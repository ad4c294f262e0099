"""SERVE — fleet throughput, jittered admission, device-pool scaling.

Three scenarios share the ``serve_throughput.json`` artifact (one
section each, see ``repro.experiments.reporting.merge_json_section``):

* **batched_vs_serial** — host-wallclock frames/sec of serving N
  concurrent adapting streams as N independent
  :class:`repro.pipeline.RealTimePipeline` runs vs. one
  :class:`repro.serve.FleetServer` multiplexing them through shared
  batched forward passes with per-stream BN state.  Both sides pay the
  same per-stream adaptation work; the fleet's edge is the shared
  inference pass.  Asserted: at N >= 4 streams the batched server
  sustains more frames/sec, while every stream's accuracy stays within
  noise of its serial twin (BN state correctly isolated).
* **jittered_admission** — the simulated-Orin jittered-arrival study
  (``repro.experiments.bench_serve``): slack-driven adaptation
  admission vs. the static stride ladder, plus the zero-jitter
  async-vs-sync ingest parity guard.  Asserted: parity holds exactly,
  and the slack policy Pareto-dominates — at equal deadline-miss rate
  it sustains at least the static fleet's adaptation throughput.
* **device_scaling** — the device-pool study: pools of 1/2/4 simulated
  Orins serve growing fleets of always-adapting jittered streams until
  each pool saturates (deadline-miss rate over the budget).  Asserted:
  at equal miss budget, the 2-device pool sustains >= 1.8x the adapting
  streams of one device, and capacity never shrinks as the pool grows.
"""

import time

import numpy as np
from conftest import results_path

from repro.adapt import LDBNAdapt, LDBNAdaptConfig
from repro.data import make_benchmark
from repro.experiments import (
    check_device_scaling,
    check_slack_dominates,
    format_table,
    get_run_scale,
    merge_json_section,
    run_bench_devices,
    run_bench_serve,
    scaling_archive,
    sustained_streams,
    train_source_model,
)
from repro.experiments.bench_serve import (
    COLUMNS as BENCH_SERVE_COLUMNS,
    DEVICE_COLUMNS as BENCH_DEVICE_COLUMNS,
)
from repro.models import get_config
from repro.pipeline import PipelineConfig, RealTimePipeline
from repro.serve import FleetConfig, FleetServer

STREAM_COUNTS = (1, 2, 4, 6)
FRAMES_PER_STREAM = 24
ADAPT_BATCH_SIZE = 2  # adaptation step every 2nd frame, as the paper ablates
ACCURACY_TOLERANCE = 0.02


def _adapter_config(scale):
    return LDBNAdaptConfig(lr=scale.adapt_lr, batch_size=ADAPT_BATCH_SIZE)


def _prepare(scale):
    """Source-trained model + per-stream pre-rendered frame sequences."""
    benchmark = make_benchmark(
        "mulane",
        get_config(scale.preset("r18")),
        source_frames=scale.source_frames,
        target_train_frames=2,
        target_test_frames=2,
        seed=scale.seed,
    )
    model = train_source_model(benchmark, "r18", scale)
    frame_lists = [
        benchmark.target_stream(
            rng=np.random.default_rng(scale.seed + 500 + i)
        ).take(FRAMES_PER_STREAM).samples
        for i in range(max(STREAM_COUNTS))
    ]
    return model, frame_lists


def _run_serial(model, pristine, frame_lists, scale):
    """N independent single-stream pipelines; returns (elapsed_s, accs)."""
    accuracies = []
    config = PipelineConfig(latency_model="wallclock", deadline_ms=1e9)
    elapsed = 0.0
    for frames in frame_lists:
        model.load_state_dict(pristine)
        adapter = LDBNAdapt(model, _adapter_config(scale))
        pipeline = RealTimePipeline(model, adapter, config)
        start = time.perf_counter()
        report = pipeline.run(iter(frames), len(frames))
        elapsed += time.perf_counter() - start
        accuracies.append(report.mean_accuracy)
    return elapsed, accuracies


def _run_batched(model, pristine, frame_lists, scale):
    """One fleet server over the same streams; returns (elapsed_s, accs)."""
    model.load_state_dict(pristine)
    server = FleetServer(
        model,
        FleetConfig(
            latency_model="wallclock",
            deadline_ms=1e9,
            max_batch_size=max(STREAM_COUNTS),
        ),
    )
    for i, frames in enumerate(frame_lists):
        server.add_stream(
            f"s{i}", iter(frames), adapter_config=_adapter_config(scale)
        )
    start = time.perf_counter()
    report = server.run(FRAMES_PER_STREAM)
    elapsed = time.perf_counter() - start
    return elapsed, list(report.per_stream_accuracy.values())


def _sweep(scale):
    model, frame_lists = _prepare(scale)
    pristine = model.state_dict()
    rows = []
    for count in STREAM_COUNTS:
        streams = frame_lists[:count]
        serial_s, serial_acc = _run_serial(model, pristine, streams, scale)
        batched_s, batched_acc = _run_batched(model, pristine, streams, scale)
        frames = count * FRAMES_PER_STREAM
        rows.append(
            {
                "streams": count,
                "serial_fps": frames / serial_s,
                "batched_fps": frames / batched_s,
                "speedup": serial_s / batched_s,
                "serial_accuracy": float(np.mean(serial_acc)),
                "batched_accuracy": float(np.mean(batched_acc)),
                "max_accuracy_gap": float(
                    np.max(np.abs(np.array(serial_acc) - np.array(batched_acc)))
                ),
            }
        )
    return rows


def test_serve_throughput(benchmark):
    scale = get_run_scale()
    rows = benchmark.pedantic(_sweep, args=(scale,), rounds=1, iterations=1)

    print("\nSERVE — fleet frames/sec, batched vs N serial pipelines")
    print(
        format_table(
            rows,
            columns=[
                "streams", "serial_fps", "batched_fps", "speedup",
                "serial_accuracy", "batched_accuracy", "max_accuracy_gap",
            ],
        )
    )
    merge_json_section(
        results_path("serve_throughput.json"), "batched_vs_serial", rows
    )

    for row in rows:
        # BN state isolation: every stream matches its serial twin
        assert row["max_accuracy_gap"] <= ACCURACY_TOLERANCE, row
        if row["streams"] >= 4:
            assert row["batched_fps"] > row["serial_fps"], (
                "batched fleet serving should beat serial pipelines "
                f"at {row['streams']} streams: {row}"
            )


def test_jittered_admission(benchmark):
    """Jittered arrivals: slack admission vs. static stride + parity."""
    scale = get_run_scale()
    rows = benchmark.pedantic(
        run_bench_serve, kwargs={"scale": scale}, rounds=1, iterations=1
    )

    print("\nSERVE — jittered arrivals: slack admission vs static stride")
    print(format_table(rows, columns=list(BENCH_SERVE_COLUMNS)))
    merge_json_section(
        results_path("serve_throughput.json"), "jittered_admission", rows
    )

    # zero-jitter async ingest must reproduce the synchronous loop
    assert all(row["parity_ok"] for row in rows)
    # at equal deadline-miss rate, slack admission sustains at least the
    # static-stride fleet's adaptation throughput
    check_slack_dominates(rows)


def test_device_scaling(benchmark):
    """Device-pool scaling: 1/2/4 devices under jittered arrivals."""
    scale = get_run_scale()
    rows = benchmark.pedantic(
        run_bench_devices, kwargs={"scale": scale}, rounds=1, iterations=1
    )

    print("\nSERVE — device-pool scaling: sustained adapting streams")
    print(format_table(rows, columns=list(BENCH_DEVICE_COLUMNS)))
    print(f"sustained capacity per pool size: {sustained_streams(rows)}")
    merge_json_section(
        results_path("serve_throughput.json"),
        "device_scaling",
        scaling_archive(rows),
    )

    # the scaling gate: at equal deadline-miss budget a 2-device pool
    # sustains >= 1.8x one device's adapting streams, and capacity is
    # monotone in pool size
    check_device_scaling(rows)
