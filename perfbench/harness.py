"""Workloads, measurement and correctness checks of the host benchmark.

Every workload drives the program only through its public entry points
(``RealTimePipeline.run``, ``FleetServer.add_stream``/``run``) on frames
pre-rendered from the workload seed.  One *episode* is a fixed amount of
work on a fresh deep copy of the trained source model, so its
deterministic outputs (accuracy, adaptation steps, served share, frames
lost, simulated deadline outcome) repeat exactly; a run repeats episodes
until the measured window reaches ``--seconds``.  See README.md for why
each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gc
import hashlib
import os
import resource
import statistics
import time
import warnings
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.adapt import LDBNAdapt, LDBNAdaptConfig
from repro.data import SCENARIOS, LaneSample, ScenarioStream, get_scenario
from repro.data.benchmarks import make_benchmark
from repro.engine.backends.cgen import PARITY_ATOL, PARITY_RTOL
from repro.experiments.config import get_run_scale
from repro.experiments.fig2_accuracy import train_source_model
from repro.hw.device import get_power_mode
from repro.models.registry import get_config
from repro.pipeline import PipelineConfig, RealTimePipeline
from repro.serve import (
    AdmissionConfig,
    CheckpointConfig,
    DriftResetConfig,
    FaultSchedule,
    FleetConfig,
    FleetServer,
    MigrationConfig,
)
from repro.utils.rng import child_seed

from layers import Ledger, Patches, Recording, Tracer

perf_counter = time.perf_counter

#: the shift schedules in repro.data.SCENARIOS are laid out for ~48-frame
#: horizons, so a drive is stitched from 48-frame scenario segments
SEGMENT = 48
#: benchmark-owned source training budget (tiny-r18 on the TuLane source)
TRAIN_FRAMES = 64
TRAIN_EPOCHS = 4
TRAIN_SEED = 0
#: full set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 3
DEVICE = "orin-60w"
#: logits tolerance of the cgen-vs-numpy replay on the vehicle prefix:
#: the backend's per-stage band for the logits dtype, widened for the ~40
#: rendered stages an adapted forward chains (errors compound stage to
#: stage)
PARITY_STAGES = 40


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    streams: int
    ticks: int  # frames per stream in one measured episode
    prefix: int = 0  # warm-up frames served before the window
    faults: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {
    "vehicle": Workload("vehicle", streams=1, ticks=480, prefix=16),
    "fleet": Workload("fleet", streams=8, ticks=150),
    "fleet_recover": Workload(
        "fleet_recover", streams=6, ticks=115,
        faults="crash@1500:0,join@2500:orin-60w",
    ),
}


def smoke(workload: Workload) -> Workload:
    """A short version of ``workload`` for the self-tests."""
    if workload.name == "vehicle":
        return dataclasses.replace(workload, ticks=24, prefix=4)
    if workload.name == "fleet":
        return dataclasses.replace(workload, streams=4, ticks=24)
    # crash and join scaled into a 24-tick (800 ms) horizon
    return dataclasses.replace(
        workload, streams=3, ticks=24, faults="crash@300:0,join@520:orin-60w"
    )


# ----------------------------------------------------------------------
# inputs
def train_model():
    """Train the tiny-r18 source model; returns ``(model, adapt_lr)``."""
    scale = dataclasses.replace(
        get_run_scale("tiny"),
        source_frames=TRAIN_FRAMES,
        train_epochs=TRAIN_EPOCHS,
        seed=TRAIN_SEED,
    )
    bench = make_benchmark(
        "tulane",
        get_config(scale.preset("r18")),
        source_frames=scale.source_frames,
        target_train_frames=2,
        target_test_frames=2,
        seed=scale.seed,
    )
    return train_source_model(bench, "r18", scale), scale.adapt_lr


def render_drive(seed: int, stream_id: str, frames: int, config) -> list:
    """One vehicle's drive: seeded scenario segments stitched end to end."""
    rng = np.random.default_rng(child_seed(seed, f"perfbench/{stream_id}"))
    names = sorted(SCENARIOS)
    samples: list = []
    segment = 0
    while len(samples) < frames:
        name = names[int(rng.integers(len(names)))]
        stream = ScenarioStream(
            get_scenario(name), config, seed=seed,
            stream_id=f"{stream_id}/{segment}", horizon=SEGMENT,
        )
        for _ in range(min(SEGMENT, frames - len(samples))):
            samples.append(next(stream))
        segment += 1
    return samples


class FrameClock:
    """Host time between successive completed frames of each stream.

    A frame completes when the program scores its lane prediction, which
    is the program's one read of the frame's ground-truth cells.  The
    benchmark sees that read through the frame objects it hands in
    (:class:`ProbedSample`), so no program code is wrapped.  In the
    closed-loop vehicle this is the time between successive frame pulls;
    in a fleet, where arrivals are ingested ahead of service, it is the
    host time between one vehicle's consecutive served frames.
    """

    def __init__(self) -> None:
        self.gaps_ms: List[float] = []
        self.completed: Dict[str, int] = defaultdict(int)
        self._last: Dict[str, float] = {}

    def complete(self, stream: str) -> None:
        now = perf_counter()
        last = self._last.get(stream)
        if last is not None:
            self.gaps_ms.append(1e3 * (now - last))
        self._last[stream] = now
        self.completed[stream] += 1

    def frames(self, stream: str, samples: Sequence[LaneSample]) -> list:
        probed = []
        for sample in samples:
            frame = object.__new__(ProbedSample)
            frame.__dict__.update(vars(sample))
            frame._clock, frame._stream = self, stream
            probed.append(frame)
        return probed


class ProbedSample(LaneSample):
    """A rendered frame that reports when its ground truth is read."""

    @property
    def gt_cells(self) -> np.ndarray:
        self._clock.complete(self._stream)
        return self.__dict__["gt_cells"]


# ----------------------------------------------------------------------
# the program under test
def _paper_spec():
    return get_config("paper-r18").to_spec()


def build_vehicle(model, adapt_lr: float, backend: str = "cgen"):
    adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=adapt_lr, backend=backend))
    return RealTimePipeline(
        model, adapter, PipelineConfig(backend=backend),
        device=get_power_mode(DEVICE), spec=_paper_spec(),
    )


def build_fleet(workload: Workload, model, adapt_lr: float, seed: int,
                ckpt_dir: Path, drives):
    if workload.faults is None:
        config = FleetConfig(
            latency_model="orin", jitter_ms=4.0, arrival_seed=seed,
            admission=AdmissionConfig(), devices=2,
            migration=MigrationConfig(), drift=DriftResetConfig(),
            backend="numpy",
        )
    else:
        config = FleetConfig(
            latency_model="orin", adapt_stride=1, arrival_seed=seed,
            devices=3, drift=DriftResetConfig(), backend="numpy",
            checkpoint=CheckpointConfig(
                interval_frames=8, mode="sync", dir=str(ckpt_dir)
            ),
            faults=FaultSchedule.parse(workload.faults),
        )
    server = FleetServer(
        model, config, device=get_power_mode(DEVICE), spec=_paper_spec()
    )
    for i, frames in enumerate(drives):
        server.add_stream(
            f"v{i}", iter(frames),
            adapter_config=LDBNAdaptConfig(lr=adapt_lr),
        )
    return server


def _digest(values) -> str:
    return hashlib.sha1(repr(values).encode()).hexdigest()[:16]


def vehicle_outputs(report, offered: int) -> dict:
    return {
        "accuracy": report.mean_accuracy,
        "adapt_steps": report.adaptation_steps,
        "served_share": report.num_frames / offered,
        "frames_lost": 0,
        "sim_miss_rate": report.deadline_miss_rate,
        "sim_p95_ms": report.latency_percentile(95),
        "digest": _digest([(f.accuracy, f.entropy) for f in report.frames]),
    }


def fleet_outputs(report, offered: int) -> dict:
    return {
        "accuracy": report.mean_accuracy,
        "adapt_steps": report.adaptation_steps,
        "served_share": report.total_frames / offered,
        "frames_lost": report.total_frames_lost,
        "sim_miss_rate": report.deadline_miss_rate,
        "sim_p95_ms": report.p95_latency_ms,
        "digest": _digest((
            [[f.accuracy for f in r.frames]
             for r in report.stream_reports.values()],
            report.drift_resets, report.checkpoint_writes,
            len(report.migration_events),
        )),
    }


# ----------------------------------------------------------------------
class Run:
    """One benchmark invocation: set-up, episodes, checks, metrics."""

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 delays: Optional[Dict[str, float]] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = Tracer(delays)
        self.failures: List[str] = []
        self.unserved = 0  # frames lost without a scheduled fault to blame
        self._n = 0  # unique suffix for per-episode directories

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def _fresh_dir(self, tag: str) -> Path:
        self._n += 1
        path = self.workdir / f"{tag}-{self._n}"
        path.mkdir(parents=True)
        return path

    # -- set-up --------------------------------------------------------
    def set_up(self) -> float:
        """Train, render, construct and warm once; returns its seconds.

        Each set-up gets its own empty cgen cache, so the vehicle's
        ``.so`` build is cold every time.
        """
        w = self.workload
        self.cache_dir = self._fresh_dir("cgen")
        os.environ["REPRO_CGEN_CACHE"] = str(self.cache_dir)
        t0 = perf_counter()
        model, self.adapt_lr = train_model()
        config = get_config("tiny-r18", num_lanes=model.config.num_lanes)
        self.drives = [
            render_drive(self.seed, f"v{i}", w.prefix + w.ticks, config)
            for i in range(w.streams)
        ]
        self._construct(model)
        seconds = perf_counter() - t0
        weights = _digest([
            np.asarray(v).tobytes() for v in model.state_dict().values()
        ])
        if getattr(self, "weights", weights) != weights:
            self.fail("source training is not deterministic across set-ups")
        self.weights = weights
        self.model = model
        return seconds

    def _construct(self, model):
        """Build the served instance from a deep copy and warm it."""
        w = self.workload
        self.clock = FrameClock()
        self.window_frames = [
            self.clock.frames(f"v{i}", drive[w.prefix:])
            for i, drive in enumerate(self.drives)
        ]
        served = copy.deepcopy(model)
        if w.name == "vehicle":
            instance = build_vehicle(served, self.adapt_lr)
            prefix = self.drives[0][: w.prefix]
            instance.run(iter(prefix), len(prefix))
            return instance
        return build_fleet(
            w, served, self.adapt_lr, self.seed, self._fresh_dir("ckpt"),
            self.window_frames,
        )

    # -- episodes ------------------------------------------------------
    def episode(self, window: Optional[Ledger] = None,
                build: Optional[Ledger] = None) -> dict:
        """Construct a fresh instance, then serve one measured window."""
        w = self.workload
        with Recording(self.tracer, *[l for l in (build,) if l is not None]):
            instance = self._construct(self.model)
        gc.collect()
        offered = w.streams * w.ticks
        recording = [l for l in (window,) if l is not None]
        with Recording(self.tracer, *recording):
            t0 = perf_counter()
            if w.name == "vehicle":
                report = instance.run(iter(self.window_frames[0]), w.ticks)
            else:
                report = instance.run(w.ticks)
            wall = perf_counter() - t0
        if w.name == "vehicle":
            outputs = vehicle_outputs(report, offered)
            served = report.num_frames
            if served != w.ticks or report.truncated:
                self.fail(f"vehicle served {served} of {w.ticks} frames")
                self.unserved += w.ticks - served
            per_stream = {"v0": served}
        else:
            outputs = fleet_outputs(report, offered)
            served = report.total_frames
            self._check_conservation(report)
            per_stream = {
                sid: r.num_frames for sid, r in report.stream_reports.items()
            }
        if dict(self.clock.completed) != per_stream:
            self.fail(
                f"frame completions {dict(self.clock.completed)} do not "
                f"match frames served {per_stream}"
            )
        return {"wall": wall, "served": served, "offered": offered,
                "gaps": self.clock.gaps_ms, "outputs": outputs}

    def _check_conservation(self, report) -> None:
        """served + dropped + crash-dropped == offered, per stream."""
        w = self.workload
        for i in range(w.streams):
            sid = f"v{i}"
            served = report.stream_reports[sid].num_frames
            dropped = report.dropped_frames.get(sid, 0)
            crashed = report.crash_dropped_frames.get(sid, 0)
            if served + dropped + crashed != w.ticks:
                self.fail(
                    f"{sid}: served {served} + dropped {dropped} + "
                    f"crash-dropped {crashed} != offered {w.ticks}"
                )
            # frames lost to the scheduled crash are the fault's designed
            # cost (reported as served_share); any other loss is a failure
            self.unserved += dropped + (crashed if w.faults is None else 0)
            if w.faults is None and crashed:
                self.fail(f"{sid}: {crashed} frames crash-dropped with no fault")

    def check_same_outputs(self, episodes: Iterable[dict]) -> None:
        episodes = list(episodes)
        first = episodes[0]["outputs"]
        for ep in episodes[1:]:
            if ep["outputs"] != first:
                self.fail(
                    f"deterministic outputs differ between episodes: "
                    f"{first} vs {ep['outputs']}"
                )

    def check_fallbacks(self, caught) -> int:
        """Count cgen fallback warnings; the C-backend workload allows none."""
        fallbacks = sum(
            1 for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "falling back" in str(w.message)
        )
        if fallbacks and self.workload.name == "vehicle":
            self.fail(f"cgen fell back to numpy {fallbacks} times")
        return fallbacks

    def check_backend(self) -> None:
        """cgen predictions on the vehicle prefix vs a numpy replay."""
        from repro.pipeline import realtime

        w = self.workload
        if w.name != "vehicle":
            return
        prefix = self.drives[0][: w.prefix]
        logits = {}
        original = realtime.decode_predictions
        for backend in ("cgen", "numpy"):
            captured: list = []

            def capture(raw, *args, **kwargs):
                captured.append(np.array(raw, copy=True))
                return original(raw, *args, **kwargs)

            pipeline = build_vehicle(
                copy.deepcopy(self.model), self.adapt_lr, backend
            )
            realtime.decode_predictions = capture
            try:
                pipeline.run(iter(prefix), len(prefix))
            finally:
                realtime.decode_predictions = original
            logits[backend] = np.stack(captured)
        ref = logits["numpy"]
        rtol = PARITY_STAGES * PARITY_RTOL[ref.dtype.name]
        atol = PARITY_STAGES * PARITY_ATOL[ref.dtype.name]
        excess = np.abs(logits["cgen"] - ref) - (atol + rtol * np.abs(ref))
        if excess.max() > 0:
            self.fail(
                f"cgen logits leave the numpy band on the vehicle prefix by "
                f"{excess.max():.3g}"
            )


def so_files(path: Path) -> int:
    return sum(1 for p in path.iterdir() if p.suffix == ".so")


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def measure(workload: Workload, seed: int, seconds: float, workdir: Path,
            delays: Optional[Dict[str, float]] = None,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Untraced run: set up ``setup_repeats`` times, then episodes.

    ``delays`` injects a busy-wait into the named span keys (self-tests).
    """
    run = Run(workload, seed, workdir, delays)
    patches = Patches(run.tracer) if delays else contextlib.nullcontext()
    with warnings.catch_warnings(record=True) as caught, patches:
        warnings.simplefilter("always", RuntimeWarning)
        setups = [run.set_up() for _ in range(setup_repeats)]
        run.check_backend()
        episodes = []
        while not episodes or sum(e["wall"] for e in episodes) < seconds:
            episodes.append(run.episode())
    run.check_same_outputs(episodes)
    run.check_fallbacks(caught)
    gaps = [g for e in episodes for g in e["gaps"]]
    served = sum(e["served"] for e in episodes)
    window = sum(e["wall"] for e in episodes)
    outputs = episodes[0]["outputs"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "host_fps": (served / window, "frames/s", served),
        "frame_ms_p95": (percentile(gaps, 95), "ms", len(gaps)),
        "accuracy": (outputs["accuracy"], "share", served),
        "adapt_steps": (float(outputs["adapt_steps"]), "count", len(episodes)),
        "served_share": (outputs["served_share"], "share", served),
        "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
    }
    # printed, not gated: on a host whose speed switches between phases
    # the median lands in either mode and p99 follows preemption bursts
    # (see README.md)
    info = {
        "frame_ms_p50": (percentile(gaps, 50), "ms", len(gaps)),
        "frame_ms_p99": (percentile(gaps, 99), "ms", len(gaps)),
    }
    return _result(run, episodes, metrics, outputs, info)


def measure_traced(workload: Workload, seed: int, seconds: float,
                   workdir: Path,
                   delays: Optional[Dict[str, float]] = None) -> dict:
    """Traced run: pairs of one untraced and one traced episode.

    Set-up runs once, traced, for the data/compile/.so metrics; the
    per-layer metrics of the measured window are means per traced
    episode.  Pairs alternate which side runs first, so the overhead
    estimate does not depend on episode order.
    """
    run = Run(workload, seed, workdir, delays)
    setup, build = Ledger(), Ledger()
    windows: List[Ledger] = []
    untraced: List[dict] = []
    traced: List[dict] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with Patches(run.tracer), Recording(run.tracer, setup):
            run.set_up()
        builds = so_files(run.cache_dir)
        run.check_backend()

        def untraced_episode() -> None:
            with Patches(run.tracer) if delays else contextlib.nullcontext():
                untraced.append(run.episode())

        def traced_episode() -> None:
            window = Ledger()
            with Patches(run.tracer):
                traced.append(run.episode(
                    window=window, build=None if windows else build
                ))
            windows.append(window)

        while not traced or sum(
            e["wall"] for e in untraced + traced
        ) < seconds:
            pair = (untraced_episode, traced_episode)
            for step in pair if len(windows) % 2 == 0 else pair[::-1]:
                step()
            if len(windows) == 1:
                builds_after_episode = so_files(run.cache_dir)
    run.check_same_outputs(untraced + traced)
    outputs = traced[0]["outputs"]
    metrics = layer_metrics(
        setup, build, windows, [e["wall"] for e in traced],
        [e["wall"] for e in untraced], builds, builds_after_episode,
        run.check_fallbacks(caught), outputs,
    )
    return _result(run, untraced + traced, metrics, outputs)


def layer_metrics(setup: Ledger, build: Ledger, windows: List[Ledger],
                  traced_walls: List[float], untraced_walls: List[float],
                  so_builds: int, so_total: int, fallbacks: int,
                  outputs: dict) -> dict:
    """Per-layer metrics; window figures are means per traced episode."""
    n = len(windows)
    calls = lambda k: sum(l.calls[k] for l in windows) / n  # noqa: E731
    busy = lambda k: sum(l.busy[k] for l in windows) / n  # noqa: E731
    own = lambda k: sum(l.self_s[k] for l in windows) / n  # noqa: E731
    count = lambda k: sum(l.counters[k] for l in windows) / n  # noqa: E731

    def p50_ms(key: str) -> float:
        durations = [d for l in windows for d in l.durations[key]]
        return 1e3 * statistics.median(durations) if durations else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    so_lookups = (setup.counters["engine.so_lookups"]
                  + build.counters["engine.so_lookups"]
                  + windows[0].counters["engine.so_lookups"])
    coverage = statistics.mean(
        sum(l.self_s.values()) / wall for l, wall in zip(windows, traced_walls)
    )
    overhead = 100.0 * (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
    )
    m = {
        "engine.infer_calls": (calls("engine.infer"), "count"),
        "engine.infer_busy_s": (busy("engine.infer"), "s"),
        "engine.infer_ms_p50": (p50_ms("engine.infer"), "ms"),
        "engine.infer_rows_per_call": (
            ratio(count("engine.infer_rows"), calls("engine.infer")), "rows"),
        "engine.adapt_calls": (calls("engine.adapt"), "count"),
        "engine.adapt_busy_s": (busy("engine.adapt"), "s"),
        "engine.adapt_ms_p50": (p50_ms("engine.adapt"), "ms"),
        "engine.adapt_groups_per_call": (
            ratio(count("engine.adapt_groups"), calls("engine.adapt")),
            "groups"),
        "engine.plan_lookups": (
            setup.calls["engine.lookup"] + calls("engine.lookup"), "count"),
        "engine.plans_compiled": (
            setup.counters["engine.plans_compiled"]
            + count("engine.plans_compiled"), "count"),
        "engine.compile_busy_s": (
            setup.counters["engine.compile_s"] + count("engine.compile_s"),
            "s"),
        "engine.so_builds": (float(so_builds), "count"),
        "engine.so_cache_hit_ratio": (
            ratio(so_lookups - so_total, so_lookups), "ratio"),
        "engine.cgen_fallbacks": (float(fallbacks), "count"),
        "adapt.steps": (calls("adapt.step"), "count"),
        "adapt.step_busy_s": (busy("adapt.step"), "s"),
        "nn.optim_busy_s": (busy("nn.optim"), "s"),
        "serve.batches": (calls("serve.batch"), "count"),
        "serve.batch_busy_s": (busy("serve.batch"), "s"),
        "serve.batch_size_mean": (
            ratio(count("serve.batch_rows"), calls("serve.batch")), "frames"),
        "serve.coordinator_self_s": (own("serve.coordinator"), "s"),
        "serve.admit_calls": (calls("serve.admit"), "count"),
        "serve.admit_busy_s": (busy("serve.admit"), "s"),
        "serve.grant_ratio": (
            ratio(count("serve.admit_grants"),
                  count("serve.admit_candidates")), "ratio"),
        "serve.schedule_busy_s": (busy("serve.schedule"), "s"),
        "serve.migration_busy_s": (busy("serve.migration"), "s"),
        "hw.pricing_calls": (calls("hw.pricing"), "count"),
        "hw.pricing_busy_s": (busy("hw.pricing"), "s"),
        "serve.fused_steps": (calls("serve.fused"), "count"),
        "serve.fused_busy_s": (busy("serve.fused"), "s"),
        "serve.ckpt_writes": (count("serve.ckpt_writes"), "count"),
        "serve.ckpt_busy_s": (busy("serve.ckpt"), "s"),
        "serve.ckpt_bytes": (count("serve.ckpt_bytes"), "B"),
        "serve.restores": (count("serve.restores"), "count"),
        "serve.restore_busy_s": (busy("serve.restore"), "s"),
        "serve.drift_busy_s": (busy("serve.drift"), "s"),
        "serve.drift_resets": (count("serve.drift_resets"), "count"),
        "serve.frames_lost": (float(outputs["frames_lost"]), "count"),
        "sim.miss_rate": (outputs["sim_miss_rate"], "ratio"),
        "sim.p95_ms": (outputs["sim_p95_ms"], "ms"),
        "data.frames_rendered": (
            setup.counters["data.frames_rendered"], "count"),
        "data.render_ms_per_frame": (
            1e3 * ratio(setup.busy["data.render"],
                        setup.counters["data.frames_rendered"]), "ms"),
        "models.decode_busy_s": (busy("models.decode"), "s"),
        "metrics.accuracy_busy_s": (busy("metrics.accuracy"), "s"),
        "pipeline.self_s": (own("pipeline.run"), "s"),
        "trace.coverage": (coverage, "ratio"),
        "trace.overhead_pct": (overhead, "%"),
    }
    return {name: (value, unit, n) for name, (value, unit) in m.items()}


def _result(run: Run, episodes: List[dict], metrics: dict,
            outputs: dict, info: Optional[dict] = None) -> dict:
    attempted = sum(e["offered"] for e in episodes)
    return {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": run.unserved + len(run.failures),
        "failures": run.failures,
        "episodes": len(episodes),
        "outputs": outputs,
        "metrics": metrics,
        "info": info or {},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
