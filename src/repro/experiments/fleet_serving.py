"""FLEET — multi-stream fleet serving with heterogeneous domain shift.

The scenario the single-vehicle pipeline cannot express: N vehicles share
one model (and one device), each driving its own domain schedule — e.g.
one on the MoLane model-vehicle track, one on the TuSimple highway, one
mid-transition between the two.  Each stream keeps private LD-BN-ADAPT
state; inference is batched across streams by the deadline-aware
scheduler.

:func:`run_fleet` trains one source model at the chosen run scale, builds
a heterogeneous stream per vehicle, serves ``num_frames`` fleet ticks on
the simulated Jetson Orin, and reports per-stream accuracy plus the fleet
latency/deadline dashboard, alongside the roofline comparison of batched
vs. N-serial per-frame cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..adapt import LDBNAdaptConfig
from ..data.benchmarks import make_benchmark
from ..data.dataset import FrameStream
from ..data.domains import MODEL_VEHICLE, TUSIMPLE_HIGHWAY
from ..hw.device import build_device_pool, get_power_mode
from ..hw.roofline import batched_inference_latency_ms, ld_bn_adapt_latency
from ..models.registry import get_config
from ..serve import (
    AdmissionConfig,
    CheckpointConfig,
    FaultSchedule,
    FleetConfig,
    FleetReport,
    FleetServer,
    MigrationConfig,
)
from ..telemetry import SpanTracer
from ..utils.logging import Logger
from .config import RunScale, get_run_scale
from .fig2_accuracy import train_source_model

log = Logger("fleet")

#: the three canonical vehicle profiles, cycled over the fleet
_DOMAIN_SCHEDULES = (
    ("model_vehicle", (MODEL_VEHICLE,), (2,)),
    ("tusimple_highway", (TUSIMPLE_HIGHWAY,), (4,)),
    # mid-shift: the stream flips between both targets every few seconds
    ("mid_shift", (MODEL_VEHICLE, TUSIMPLE_HIGHWAY), (2, 4)),
)


@dataclass
class FleetRunResult:
    """Fleet report plus table-ready rows."""

    report: FleetReport
    scale_name: str
    power_mode: str
    adapt_stride: int
    admission: str = "stride"  # "stride" (static) | "slack"
    jitter_ms: float = 0.0
    drop_rate: float = 0.0
    devices: int = 1
    placement: str = "least_loaded"
    pool: Optional[str] = None  # explicit heterogeneous pool, if any
    faults: Optional[str] = None  # fault-schedule spec, if any
    domain_schedules: Dict[str, str] = field(default_factory=dict)

    def per_stream_rows(self) -> List[Dict[str, object]]:
        rows = self.report.per_stream_rows()
        for row in rows:
            row["domains"] = self.domain_schedules.get(str(row["stream"]), "?")
        return rows

    def summary_rows(self) -> List[Dict[str, object]]:
        summary = self.report.summary()
        summary["power_mode"] = self.pool if self.pool else self.power_mode
        summary["admission"] = self.admission
        summary["adapt_stride"] = float(self.adapt_stride)
        summary["jitter_ms"] = float(self.jitter_ms)
        summary["drop_rate"] = float(self.drop_rate)
        summary["placement"] = self.placement
        return [summary]

    def per_device_rows(self) -> List[Dict[str, object]]:
        return self.report.per_device_rows()


def roofline_comparison_rows(
    num_streams: int,
    power_mode: str = "orin-60w",
    backbone_preset: str = "paper-r18",
    adapt_stride: int = 1,
) -> List[Dict[str, object]]:
    """Modeled per-tick cost: batched fleet vs. N time-sliced serial loops.

    Both alternatives share ONE device; the batched fleet runs the N
    inference passes of a camera period as one batch AND fuses the
    same-phase adaptation steps into one grouped training pass (per
    :mod:`repro.serve.adapt_batch`), while the serial alternative pays N
    individual passes of each.  With ``adapt_stride > 1`` the server
    staggers adaptation phases, so on average ``N / stride`` streams
    step per tick — that average group is what the batched row fuses.
    """
    spec = get_config(backbone_preset).to_spec()
    device = get_power_mode(power_mode)
    step_ms = ld_bn_adapt_latency(spec, device, 1).adaptation_ms
    adapting_per_tick = num_streams / adapt_stride
    fused_size = max(1, round(adapting_per_tick))
    fused_step_ms = ld_bn_adapt_latency(spec, device, fused_size).adaptation_ms
    serial_infer = num_streams * batched_inference_latency_ms(spec, device, 1)
    batched_infer = batched_inference_latency_ms(spec, device, num_streams)
    serial_adapt = adapting_per_tick * step_ms
    batched_adapt = fused_step_ms * (adapting_per_tick / fused_size)
    rows = []
    for label, infer_ms, adapt_ms in (
        ("serial", serial_infer, serial_adapt),
        ("batched", batched_infer, batched_adapt),
    ):
        tick_ms = infer_ms + adapt_ms
        rows.append(
            {
                "mode": label,
                "streams": num_streams,
                "inference_ms_per_tick": infer_ms,
                "adaptation_ms_per_tick": adapt_ms,
                "tick_ms": tick_ms,
                "frames_per_second": 1e3 * num_streams / tick_ms,
            }
        )
    return rows


def run_fleet(
    scale: Optional[RunScale] = None,
    num_streams: int = 3,
    num_frames: int = 45,
    power_mode: str = "orin-60w",
    adapt_stride: int = 1,
    max_batch_size: int = 8,
    jitter_ms: float = 0.0,
    drop_rate: float = 0.0,
    phase_spread_ms: float = 0.0,
    admission: str = "stride",
    devices: int = 1,
    placement: str = "least_loaded",
    pool: Optional[str] = None,
    migrate: bool = False,
    faults: Optional[object] = None,
    checkpoint_interval: Optional[int] = None,
    checkpoint_mode: str = "sync",
    tracer: Optional[SpanTracer] = None,
    backend: str = "numpy",
) -> FleetRunResult:
    """Train a source model and serve a heterogeneous fleet from it.

    ``jitter_ms``/``drop_rate``/``phase_spread_ms`` shape the per-stream
    arrival processes; ``admission="slack"`` swaps the static
    ``adapt_stride`` stagger for the slack-driven admission controller.
    ``devices`` shards the fleet across a pool of ``power_mode`` devices
    placed by ``placement``; ``pool`` overrides it with an explicit
    (possibly heterogeneous) comma list like ``"orin-60w,orin-30w"``,
    and ``migrate`` lets sessions move off sustained-hot devices.
    ``faults`` injects a deterministic failure schedule — either a
    :class:`~repro.serve.FaultSchedule` or its spec string, e.g.
    ``"crash@400:0,join@600:orin-30w"``; a schedule with crashes implies
    checkpointing (interval 8 unless ``checkpoint_interval`` overrides
    it).  ``checkpoint_interval``/``checkpoint_mode`` enable the session
    checkpoint store on their own — with no faults scheduled the run is
    bitwise identical to an uncheckpointed one.
    ``tracer`` collects per-frame spans and fleet events for the Chrome
    trace export and the telemetry dashboard; serving results are
    bitwise identical with or without it.  ``backend`` selects the plan
    backend the pool serves and adapts with (numpy / cgen / cgen-strict).
    """
    if num_streams < 1:
        raise ValueError(f"num_streams must be >= 1, got {num_streams}")
    if admission not in ("stride", "slack"):
        raise ValueError(f"unknown admission policy {admission!r}")
    if isinstance(faults, str):
        faults = FaultSchedule.parse(faults) if faults else None
    checkpoint = None
    if checkpoint_interval is not None:
        checkpoint = CheckpointConfig(
            interval_frames=checkpoint_interval, mode=checkpoint_mode
        )
    elif faults is not None and faults.crash_count:
        # a crash without a store would be rejected by FleetConfig;
        # default to the standard interval so the CLI stays one-flag
        checkpoint = CheckpointConfig(mode=checkpoint_mode)
    scale = scale if scale is not None else get_run_scale()
    device_pool = build_device_pool(pool) if pool else None
    if device_pool is not None:
        devices = len(device_pool)

    # one 4-slot source model serves every vehicle (2-lane scenes live in
    # the inner slots, exactly like MuLane's label space)
    benchmark = make_benchmark(
        "mulane",
        get_config(scale.preset("r18")),
        source_frames=scale.source_frames,
        target_train_frames=2,  # unused by the fleet; keep the build cheap
        target_test_frames=2,
        seed=scale.seed,
    )
    log.info("fleet: training shared source model (%s)", scale.name)
    model = train_source_model(benchmark, "r18", scale)

    device = get_power_mode(power_mode)
    spec = get_config("paper-r18").to_spec()
    server = FleetServer(
        model,
        FleetConfig(
            latency_model="orin",
            adapt_stride=adapt_stride,
            max_batch_size=max_batch_size,
            jitter_ms=jitter_ms,
            drop_rate=drop_rate,
            phase_spread_ms=phase_spread_ms,
            arrival_seed=scale.seed,
            admission=AdmissionConfig() if admission == "slack" else None,
            devices=devices,
            placement=placement,
            migration=MigrationConfig() if migrate else None,
            checkpoint=checkpoint,
            faults=faults,
            backend=backend,
        ),
        device=device,
        spec=spec,
        device_pool=device_pool,
        tracer=tracer,
    )

    schedules: Dict[str, str] = {}
    for i in range(num_streams):
        name, domains, scene_lanes = _DOMAIN_SCHEDULES[i % len(_DOMAIN_SCHEDULES)]
        stream_id = f"vehicle-{i}-{name}"
        stream = FrameStream(
            domains=domains,
            config=benchmark.config,
            rng=np.random.default_rng(scale.seed + 1000 + i),
            scene_lanes_per_domain=scene_lanes,
            switch_every=max(num_frames // 3, 1),
        )
        server.add_stream(
            stream_id, stream, adapter_config=LDBNAdaptConfig(lr=scale.adapt_lr)
        )
        schedules[stream_id] = "+".join(d.name for d in domains)

    log.info(
        "fleet: serving %d streams for %d ticks on %d x %s",
        num_streams,
        num_frames,
        devices,
        pool if pool else power_mode,
    )
    report = server.run(num_frames)
    return FleetRunResult(
        report=report,
        scale_name=scale.name,
        power_mode=power_mode,
        adapt_stride=adapt_stride,
        admission=admission,
        jitter_ms=jitter_ms,
        drop_rate=drop_rate,
        devices=devices,
        placement=placement,
        pool=pool,
        faults=faults.spec() if faults is not None else None,
        domain_schedules=schedules,
    )
