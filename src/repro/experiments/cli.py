"""Command-line entry point: regenerate paper artifacts without pytest.

    python -m repro.experiments fig3
    python -m repro.experiments fig2 --scale tiny
    python -m repro.experiments census
    python -m repro.experiments sota-cost
    python -m repro.experiments fig1
    python -m repro.experiments fleet --streams 3 --frames 45
    python -m repro.experiments fleet --jitter 10 --drop 0.05 --admission slack
    python -m repro.experiments fleet --devices 2 --placement round_robin
    python -m repro.experiments fleet --pool orin-60w,orin-30w --migrate
    python -m repro.experiments fleet --faults crash@200:0,join@300:orin-30w
    python -m repro.experiments fleet --trace
    python -m repro.experiments trace
    python -m repro.experiments bench-infer --quick
    python -m repro.experiments bench-infer --quick --backend cgen
    python -m repro.experiments fleet --backend cgen
    python -m repro.experiments bench-adapt --quick
    python -m repro.experiments bench-serve --quick
    python -m repro.experiments bench-serve --quick --devices 2
    python -m repro.experiments bench-serve --quick --trace
    python -m repro.experiments bench-serve --quick --recovery
    python -m repro.experiments bench-scenarios --quick
    python -m repro.experiments all --scale tiny

Prints the same tables the benchmark harness archives, for quick
interactive use.  ``fleet`` is the multi-vehicle serving demo (the
``--devices``/``--placement``/``--pool``/``--migrate`` flags shard it
across a device pool; ``--trace`` additionally collects per-frame spans,
prints the telemetry dashboard and exports a Chrome ``trace_event`` JSON
plus a JSONL span log); ``trace`` is that observability run as its own
artifact; ``bench-infer`` (eager-vs-compiled inference), ``bench-adapt``
(eager-vs-compiled/fused adaptation steps) and ``bench-serve``
(jittered-arrival slack-admission study + async/sync parity guard at
``--devices 1``, the device-pool scaling study at ``--devices N``, the
telemetry-overhead study at ``--trace``, the crash-recovery study at
``--recovery``) and ``bench-scenarios`` (the shift-scenario matrix:
drift-aware adaptation resets vs stride-waiting over every registered
scenario, or the 3-scenario CI subset at ``--quick``) each archive
results and run the regression gate (none is a paper artifact, so
``all`` includes none of them).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .ablations import run_param_census, run_sota_cost
from .bench_adapt import run_bench_adapt
from .bench_infer import run_bench_infer
from .bench_scenarios import (
    COLUMNS as BENCH_SCENARIO_COLUMNS,
    QUICK_SCENARIOS,
    check_scenarios,
    run_bench_scenarios,
)
from .bench_serve import (
    COLUMNS as BENCH_SERVE_COLUMNS,
    DEVICE_COLUMNS as BENCH_DEVICE_COLUMNS,
    OVERHEAD_COLUMNS as BENCH_OVERHEAD_COLUMNS,
    RECOVERY_COLUMNS as BENCH_RECOVERY_COLUMNS,
    STRIDES,
    check_device_scaling,
    check_recovery,
    check_slack_dominates,
    check_trace_overhead,
    run_bench_devices,
    run_bench_overhead,
    run_bench_recovery,
    run_bench_serve,
    scaling_archive,
)
from .config import get_run_scale
from .fig1_datasets import run_fig1
from .fig2_accuracy import run_fig2
from .fig3_latency import run_fig3
from .fleet_serving import roofline_comparison_rows, run_fleet
from .regression import check_regressions
from .reporting import format_table, merge_json_section, save_json
from ..telemetry import SpanTracer, render_dashboard

_ARTIFACTS = (
    "fig1", "fig2", "fig3", "census", "sota-cost", "fleet", "trace",
    "bench-infer", "bench-adapt", "bench-serve", "bench-scenarios", "all",
)


def _print_fig1(scale) -> None:
    result = run_fig1(scale=scale)
    print("FIG1 — benchmark/domain statistics")
    print(format_table(result.summary_rows(), floatfmt=".3f"))


def _print_fig2(scale) -> None:
    result = run_fig2(scale=scale)
    print("FIG2 — lane-detection accuracy")
    print(format_table(result.summary_rows()))
    print()
    print("TXT1 — best per benchmark vs paper")
    print(format_table(result.paper_comparison_rows()))


def _print_fig3(scale) -> None:
    result = run_fig3()
    print("FIG3 — Jetson Orin latency (paper-scale models)")
    print(format_table(result.summary_rows()))
    status = "MATCHES" if result.all_match_paper else "DIVERGES FROM"
    print(f"feasibility pattern {status} the paper")


def _print_census(scale) -> None:
    print("TXT2 — parameter census")
    print(format_table(run_param_census(), floatfmt=".5f"))


def _print_sota_cost(scale) -> None:
    print("TXT3 — CARLANE-SOTA epoch cost vs LD-BN-ADAPT step")
    print(format_table(run_sota_cost(), floatfmt=".2f"))


def _print_fleet(scale, args, backend=None, force_trace: bool = False) -> None:
    trace_on = force_trace or args.trace
    tracer = SpanTracer() if trace_on else None
    result = run_fleet(
        scale=scale,
        backend=backend if backend is not None else "numpy",
        num_streams=args.streams,
        num_frames=args.frames,
        adapt_stride=args.adapt_stride,
        jitter_ms=args.jitter,
        drop_rate=args.drop,
        phase_spread_ms=args.phase_spread,
        admission=args.admission,
        devices=args.devices,
        placement=args.placement,
        pool=args.pool,
        migrate=args.migrate,
        faults=args.faults,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_mode=args.checkpoint_mode,
        tracer=tracer,
    )
    streams, adapt_stride = args.streams, args.adapt_stride
    devices = result.devices
    print(
        f"FLEET — {streams} heterogeneous streams, one shared model, "
        f"{devices} device(s)"
    )
    print(format_table(result.per_stream_rows(), floatfmt=".3f"))
    print()
    print("fleet dashboard")
    print(format_table(result.summary_rows(), floatfmt=".3f"))
    print()
    if devices > 1 or result.report.fault_events:
        print("device pool")
        print(format_table(result.per_device_rows(), floatfmt=".3f"))
        print()
    if result.report.fault_events:
        print(f"fault schedule ({result.faults})")
        print(
            format_table(
                result.report.fault_events,
                columns=[
                    "kind", "time_ms", "device", "duration_ms", "factor",
                    "profile",
                ],
                floatfmt=".1f",
            )
        )
        print()
    if result.report.recovery_events:
        print("session recoveries")
        print(format_table(result.report.recovery_events, floatfmt=".1f"))
        print()
    print("roofline: batched vs serial inference at this fleet size")
    print(
        format_table(
            roofline_comparison_rows(
                streams,
                power_mode=result.power_mode,
                adapt_stride=adapt_stride,
            ),
            floatfmt=".2f",
        )
    )
    if tracer is not None:
        print()
        print(render_dashboard(result.report, tracer))
        _export_trace(tracer, args.results_dir)


def _export_trace(tracer: SpanTracer, results_dir: str) -> None:
    """Write the run's spans as Chrome trace JSON + JSONL span log."""
    os.makedirs(results_dir, exist_ok=True)
    chrome_path = os.path.join(results_dir, "fleet_trace.json")
    jsonl_path = os.path.join(results_dir, "fleet_trace.jsonl")
    tracer.write_chrome(chrome_path)
    tracer.write_jsonl(jsonl_path)
    print(
        f"trace: {len(tracer)} events -> {chrome_path} "
        f"(load in chrome://tracing or ui.perfetto.dev) + {jsonl_path}"
    )


def _default_results_dir() -> str:
    """The source tree's ``benchmarks/results``, CWD-independent.

    Anchors to the repo root via this package's location (the same
    directory ``benchmarks/check_regression.py`` gates), falling back to
    a CWD-relative path for installed-without-sources environments.
    """
    repo_root = os.path.dirname(
        os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    )
    benchmarks = os.path.join(repo_root, "benchmarks")
    if os.path.isdir(benchmarks):
        return os.path.join(benchmarks, "results")
    return os.path.join("benchmarks", "results")


def _run_bench_infer(
    scale, quick: bool, results_dir: str, backend=None
) -> int:
    """Measure eager vs compiled inference, archive it, gate on p95."""
    rows = run_bench_infer(
        scale=scale,
        batch_sizes=(1, 8),
        # the gate diffs p95 across runs, so even quick runs need
        # enough samples for a stable tail (max-of-5 flakes on shared
        # hosts); quick shrinks the adapt work instead
        reps=40,
        adapt_steps=1 if quick else 2,
        backend=backend if backend is not None else "numpy",
    )
    columns = [
        "backbone", "batch", "eager_p50_ms", "compiled_p50_ms",
        "compiled_p95_ms", "speedup_p50", "cgen_speedup_p95",
        "bit_exact", "bit_exact_adapted", "cgen_within_band",
    ]
    print("BENCH-INFER — eager vs compiled inference latency (ms)")
    print(format_table(rows, columns=columns, floatfmt=".3f"))
    if backend in (None, "numpy"):
        # only the numpy lowering promises bitwise parity with eager;
        # C-rendered plans are gated on the float band instead
        if not all(r["bit_exact"] and r["bit_exact_adapted"] for r in rows):
            print("PARITY FAILURE: compiled output diverged from eager")
            return 1
    if not all(r["cgen_fallback"] or r["cgen_within_band"] for r in rows):
        print("PARITY FAILURE: cgen output left the parity band vs eager")
        return 1
    if all(r["cgen_fallback"] for r in rows):
        print(
            "NOTICE: cgen comparison SKIPPED — no C compiler, plans fell "
            "back to numpy closures"
        )
    if backend in (None, "numpy"):
        # non-default backends would diff against the numpy baseline
        save_json(os.path.join(results_dir, "infer_engine.json"), rows)
    return _gate(results_dir, quick)


def _run_bench_adapt(
    scale, quick: bool, results_dir: str, backend=None
) -> int:
    """Measure eager vs compiled/fused adaptation, archive, gate on p95."""
    # 40 reps for the same reason as bench-infer: a stable gated p95
    rows = run_bench_adapt(scale=scale, reps=40, backend=backend)
    print("BENCH-ADAPT — eager vs compiled adaptation-step latency (ms)")
    print(
        format_table(
            rows,
            columns=[
                "backbone", "mode", "streams", "eager_p50_ms",
                "compiled_p50_ms", "compiled_p95_ms", "speedup_p50",
                "parity_ok",
            ],
            floatfmt=".3f",
        )
    )
    if not all(r["parity_ok"] for r in rows):
        print("PARITY FAILURE: compiled adaptation diverged from eager")
        return 1
    if backend in (None, "numpy"):
        # non-default backends would diff against the numpy baseline
        save_json(os.path.join(results_dir, "adapt_step.json"), rows)
    return _gate(results_dir, quick)


def _run_bench_serve(
    scale, quick: bool, results_dir: str, devices: int, placement: str,
    trace: bool = False, recovery: bool = False, backend=None,
) -> int:
    """Fleet serving studies: archive, assert, gate.

    ``--devices 1`` (the default) runs the jittered-arrival admission
    study; ``--devices N`` (N > 1) runs the device-pool scaling study
    over pools of 1, 2 and N devices instead, asserting the scaling
    gate (2 devices sustain >= 1.8x the adapting streams of one);
    ``--trace`` runs the telemetry-overhead study (the same 4-stream
    2-device fleet traced vs untraced, with bitwise output parity);
    ``--recovery`` runs the crash-recovery study (checkpoint inertness,
    seeded crash+join replay determinism, bounded frame loss).
    """
    if recovery:
        rows = run_bench_recovery(
            scale=scale,
            num_streams=3,
            num_ticks=12 if quick else 24,
            backend=backend if backend is not None else "numpy",
        )
        print("BENCH-SERVE — crash recovery: checkpointed elastic pool")
        print(
            format_table(
                rows, columns=list(BENCH_RECOVERY_COLUMNS), floatfmt=".3f"
            )
        )
        try:
            check_recovery(rows)
        except AssertionError as exc:
            print(f"RECOVERY FAILURE: fault tolerance claim failed: {exc}")
            return 1
        merge_json_section(
            os.path.join(results_dir, "serve_throughput.json"),
            "recovery_quick" if quick else "recovery",
            {str(r["scenario"]): r for r in rows},
        )
        return _gate(results_dir, quick)

    if trace:
        rows = run_bench_overhead(
            scale=scale,
            num_streams=4,
            num_ticks=16 if quick else 24,
            devices=2,
            placement=placement,
            backend=backend if backend is not None else "numpy",
        )
        print("BENCH-SERVE — telemetry overhead: traced vs untraced fleet")
        print(
            format_table(
                rows, columns=list(BENCH_OVERHEAD_COLUMNS), floatfmt=".3f"
            )
        )
        try:
            check_trace_overhead(rows)
        except AssertionError as exc:
            print(f"TELEMETRY FAILURE: tracing was not inert: {exc}")
            return 1
        merge_json_section(
            os.path.join(results_dir, "serve_throughput.json"),
            "telemetry_overhead_quick" if quick else "telemetry_overhead",
            {str(r["mode"]): r for r in rows},
        )
        return _gate(results_dir, quick)

    if devices > 1:
        rows = run_bench_devices(
            scale=scale,
            device_counts=tuple(sorted({1, 2, devices})),
            num_ticks=16 if quick else 24,
            max_streams=6 if quick else 10,
            placement=placement,
            backend=backend if backend is not None else "numpy",
        )
        print("BENCH-SERVE — device-pool scaling: sustained adapting streams")
        print(
            format_table(
                rows, columns=list(BENCH_DEVICE_COLUMNS), floatfmt=".3f"
            )
        )
        try:
            check_device_scaling(rows)
        except AssertionError as exc:
            print(f"SCALING FAILURE: device pool did not scale: {exc}")
            return 1
        # quick rows (fewer ticks, lower scan ceiling) live in their own
        # section so the positional regression gate never diffs them
        # against full-run rows; same for non-standard pool sizes
        if quick:
            section = "device_scaling_quick"
        elif devices == 2:
            section = "device_scaling_cli"
        else:
            section = f"device_scaling_cli_{devices}dev"
        merge_json_section(
            os.path.join(results_dir, "serve_throughput.json"),
            section,
            scaling_archive(rows),
        )
        return _gate(results_dir, quick)

    rows = run_bench_serve(
        scale=scale,
        num_streams=4,
        num_ticks=24 if quick else 36,
        strides=(1, 8, 16) if quick else STRIDES,
        placement=placement,
        backend=backend if backend is not None else "numpy",
    )
    print("BENCH-SERVE — jittered arrivals: slack admission vs static stride")
    print(format_table(rows, columns=list(BENCH_SERVE_COLUMNS), floatfmt=".3f"))
    if not all(r["parity_ok"] for r in rows):
        print("PARITY FAILURE: zero-jitter async ingest diverged from the "
              "synchronous loop")
        return 1
    try:
        check_slack_dominates(rows)
    except AssertionError as exc:
        print(f"ADMISSION FAILURE: slack policy did not dominate: {exc}")
        return 1
    # quick rows (fewer strides/ticks) live in their own section so the
    # positional regression gate never diffs them against full-run rows
    merge_json_section(
        os.path.join(results_dir, "serve_throughput.json"),
        "jittered_admission_quick" if quick else "jittered_admission",
        rows,
    )
    return _gate(results_dir, quick)


def _run_bench_scenarios(scale, quick: bool, results_dir: str) -> int:
    """Scenario matrix: drift resets vs stride-waiting, archive, gate.

    ``--quick`` serves the 3-scenario CI subset over a shorter horizon;
    the full run covers every registered scenario.
    """
    rows = run_bench_scenarios(
        scale=scale,
        scenario_names=QUICK_SCENARIOS if quick else None,
        num_streams=2,
        num_ticks=36 if quick else 48,
    )
    print("BENCH-SCENARIOS — shift matrix: drift resets vs stride-waiting")
    print(
        format_table(rows, columns=list(BENCH_SCENARIO_COLUMNS), floatfmt=".3f")
    )
    try:
        check_scenarios(rows)
    except AssertionError as exc:
        print(f"SCENARIO FAILURE: drift-reset claim failed: {exc}")
        return 1
    # quick rows (fewer scenarios/ticks) live in their own section so the
    # positional regression gate never diffs them against full-run rows
    merge_json_section(
        os.path.join(results_dir, "serve_throughput.json"),
        "scenario_matrix_quick" if quick else "scenario_matrix",
        {f"{r['scenario']}/{r['policy']}": r for r in rows},
    )
    return _gate(results_dir, quick)


def _gate(results_dir: str, quick: bool = False) -> int:
    """Run the latency/throughput regression gate over archived results.

    Quick runs gate at a coarse 50% threshold: the smoke lane exists to
    catch faceplants on every PR — a kernel falling off its vectorized
    path or silently falling back to closures is 2-5x — while host-timed
    p95 tails on a busy shared machine routinely swing 40% run to run.
    The canonical 10% precision gate belongs to the full harness and
    ``benchmarks/check_regression.py`` on quiet hardware, where the
    drift-normalization and lone-outlier rules in
    :mod:`repro.experiments.regression` absorb what noise remains."""
    report = check_regressions(results_dir, threshold=0.50 if quick else 0.10)
    print(f"regression check: {report.summary()}")
    if report.regressions:
        print(
            format_table(
                [r.as_row() for r in report.regressions], floatfmt=".3f"
            )
        )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate paper artifacts (see DESIGN.md section 4).",
    )
    parser.add_argument("artifact", choices=_ARTIFACTS, help="which artifact to run")
    parser.add_argument(
        "--scale",
        default=None,
        help="run scale: tiny (default) or small; also honours REPRO_SCALE",
    )
    parser.add_argument(
        "--streams",
        type=int,
        default=3,
        help="fleet only: number of concurrent camera streams",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=45,
        help="fleet only: camera periods (frames per stream) to serve",
    )
    parser.add_argument(
        "--adapt-stride",
        type=int,
        default=1,
        help="fleet only: each stream adapts on every k-th of its frames",
    )
    parser.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="fleet only: per-frame arrival jitter in ms (uniform delay)",
    )
    parser.add_argument(
        "--drop",
        type=float,
        default=0.0,
        help="fleet only: probability a frame is lost before the server",
    )
    parser.add_argument(
        "--phase-spread",
        type=float,
        default=0.0,
        help="fleet only: stream i's arrival phase offset = i * spread ms",
    )
    parser.add_argument(
        "--admission",
        choices=("stride", "slack"),
        default="stride",
        help="fleet only: static adapt-stride stagger or slack-driven "
        "admission control",
    )
    parser.add_argument(
        "--devices",
        type=int,
        default=1,
        help="fleet: shard streams across a pool of N devices; "
        "bench-serve: N > 1 runs the device-pool scaling study",
    )
    parser.add_argument(
        "--placement",
        choices=("least_loaded", "round_robin"),
        default="least_loaded",
        help="fleet/bench-serve: session placement policy over the pool "
        "(the 'pinned' policy needs per-stream devices, so it is "
        "API-only: FleetServer.add_stream(device=k))",
    )
    parser.add_argument(
        "--pool",
        default=None,
        help="fleet only: explicit heterogeneous device pool, e.g. "
        "'orin-60w:2,orin-30w' (overrides --devices)",
    )
    parser.add_argument(
        "--migrate",
        action="store_true",
        help="fleet only: migrate sessions off sustained-hot devices",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help="fleet only: deterministic fault schedule, e.g. "
        "'crash@400:0,stall@600:1:50,slow@700:1:1.5,join@800:orin-30w' "
        "(kind@time_ms[:device][:arg]); crashes imply checkpointing",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        help="fleet only: checkpoint each session every N served frames "
        "(default: off, or 8 when --faults schedules a crash)",
    )
    parser.add_argument(
        "--checkpoint-mode",
        choices=("sync", "async"),
        default="sync",
        help="fleet only: durable-at-capture checkpoints, or write-behind "
        "staging that loses the newest capture on a crash",
    )
    parser.add_argument(
        "--recovery",
        action="store_true",
        help="bench-serve only: run the crash-recovery study (checkpoint "
        "inertness, replay determinism, bounded frame loss) instead",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="fleet: collect spans, print the telemetry dashboard and "
        "export a Chrome trace (the 'trace' artifact forces this on); "
        "bench-serve: run the telemetry-overhead study instead",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="fleet/bench-*: plan backend for compiled serving and "
        "adaptation (numpy, cgen; default: REPRO_BACKEND or numpy)",
    )
    parser.add_argument(
        "--parity",
        choices=("band", "strict"),
        default="band",
        help="cgen only: 'band' renders fast kernels held to a float "
        "tolerance, 'strict' renders bitwise-reproducible kernels "
        "(maps --backend cgen to the cgen-strict registration)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="bench-infer/bench-adapt/bench-serve only: fewer repetitions "
        "(fast CI smoke run)",
    )
    parser.add_argument(
        "--results-dir",
        default=None,
        help="bench-infer/bench-adapt/bench-serve only: where to archive "
        "and gate results (default: the source tree's benchmarks/results, "
        "matching benchmarks/check_regression.py)",
    )
    args = parser.parse_args(argv)
    if args.results_dir is None:
        args.results_dir = _default_results_dir()
    scale = get_run_scale(args.scale)
    backend = args.backend
    if backend == "cgen" and args.parity == "strict":
        backend = "cgen-strict"

    if args.artifact == "fleet":
        _print_fleet(scale, args, backend)
        return 0
    if args.artifact == "trace":
        _print_fleet(scale, args, backend, force_trace=True)
        return 0
    if args.artifact == "bench-infer":
        return _run_bench_infer(scale, args.quick, args.results_dir, backend)
    if args.artifact == "bench-adapt":
        return _run_bench_adapt(scale, args.quick, args.results_dir, backend)
    if args.artifact == "bench-serve":
        return _run_bench_serve(
            scale, args.quick, args.results_dir, args.devices, args.placement,
            trace=args.trace, recovery=args.recovery, backend=backend,
        )
    if args.artifact == "bench-scenarios":
        return _run_bench_scenarios(scale, args.quick, args.results_dir)

    runners = {
        "fig1": _print_fig1,
        "fig2": _print_fig2,
        "fig3": _print_fig3,
        "census": _print_census,
        "sota-cost": _print_sota_cost,
    }
    selected = list(runners) if args.artifact == "all" else [args.artifact]
    for i, name in enumerate(selected):
        if i:
            print()
        runners[name](scale)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
