"""The real-time loop: inference → adaptation → next frame.

This is the deployment scenario the paper targets (Sec. III): a 30 FPS
camera produces unlabeled frames; for each frame the model first runs
inference (producing the lane estimate the vehicle acts on), then one
LD-BN-ADAPT step updates the model before the next frame arrives.

Latency accounting is pluggable:

* ``latency_model="orin"`` — per-frame latency comes from the analytic
  Jetson Orin roofline (the configuration under study), so deadline
  statistics reflect the paper's platform rather than the host CPU;
* ``latency_model="wallclock"`` — measured host time (useful for
  profiling the numpy implementation itself).

Inference runs through the compiled engine (:mod:`repro.engine`) by
default — a traced static plan with fused conv-BN-ReLU stages and arena
buffer reuse, bit-exact against eager.  Adaptation steps use the same
machinery: :class:`repro.adapt.LDBNAdapt` replays the compiled entropy
step (train-mode forward + backward restricted to BN gamma/beta), warmed
here outside the timed region like the inference plan.
``repro.nn.inference_mode(False)`` forces eager inference and
``repro.nn.adaptation_mode(False)`` the eager adaptation step (the
escape hatches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .. import nn
from ..adapt.base import Adapter
from ..engine import compile_model
from ..engine.backends import available_backends
from ..data.dataset import FrameStream, LaneSample
from ..hw.deadline import DEADLINE_30FPS_MS
from ..hw.device import DeviceProfile
from ..hw.roofline import ld_bn_adapt_latency
from ..metrics.lane_accuracy import TUSIMPLE_THRESHOLD_CELLS, point_accuracy
from ..models.spec import ModelSpec
from ..models.ufld import decode_predictions
from ..utils.profiling import Timer
from .monitor import DeadlineMonitor, FrameRecord, PipelineReport, RollingAccuracy


@dataclass(frozen=True)
class PipelineConfig:
    """Real-time loop configuration."""

    deadline_ms: float = DEADLINE_30FPS_MS
    latency_model: str = "orin"  # "orin" | "wallclock"
    decode_method: str = "expectation"
    accuracy_threshold_cells: float = TUSIMPLE_THRESHOLD_CELLS
    rolling_window: int = 30
    backend: str = "numpy"  # plan backend for the compiled forward

    def __post_init__(self):
        if self.latency_model not in ("orin", "wallclock"):
            raise ValueError(f"unknown latency model {self.latency_model!r}")
        if self.backend not in available_backends():
            raise ValueError(
                f"unknown plan backend {self.backend!r}; expected one of "
                f"{available_backends()}"
            )
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.decode_method not in ("argmax", "expectation"):
            raise ValueError(f"unknown decode method {self.decode_method!r}")
        if self.accuracy_threshold_cells <= 0:
            raise ValueError(
                f"accuracy_threshold_cells must be positive, "
                f"got {self.accuracy_threshold_cells}"
            )
        if self.rolling_window < 1:
            raise ValueError(f"rolling_window must be >= 1, got {self.rolling_window}")


class RealTimePipeline:
    """Drives a model + adapter over a frame stream with deadline tracking."""

    def __init__(
        self,
        model,
        adapter: Adapter,
        config: Optional[PipelineConfig] = None,
        device: Optional[DeviceProfile] = None,
        spec: Optional[ModelSpec] = None,
    ):
        self.model = model
        self.adapter = adapter
        self.config = config if config is not None else PipelineConfig()
        if self.config.latency_model == "orin":
            if device is None or spec is None:
                raise ValueError(
                    "latency_model='orin' requires a DeviceProfile and a "
                    "paper-size ModelSpec (the platform under study)"
                )
            batch = getattr(getattr(adapter, "config", None), "batch_size", 1)
            breakdown = ld_bn_adapt_latency(spec, device, batch)
            # inference happens every frame; the adaptation step is paid on
            # the frames where a step actually runs
            self._infer_ms = breakdown.inference_ms
            self._adapt_ms = breakdown.adaptation_ms
        else:
            self._infer_ms = None
            self._adapt_ms = None
        self.timer = Timer()
        self._compiled = None  # built lazily on the first compiled forward

    # ------------------------------------------------------------------
    def _warm_engine(self, frame: LaneSample) -> None:
        """Trace/compile outside the timed region (one-time, per shape)."""
        if nn.compiled_inference_enabled():
            if self._compiled is None:
                self._compiled = compile_model(
                    self.model, backend=self.config.backend
                )
            self.model.eval()
            self._compiled.warm(frame.image[None])
        if hasattr(self.adapter, "warm"):
            self.adapter.warm(frame.image)

    def _predict(self, frame: LaneSample) -> np.ndarray:
        self.model.eval()
        batch = frame.image[None]
        if nn.compiled_inference_enabled():
            if self._compiled is None:
                self._compiled = compile_model(
                    self.model, backend=self.config.backend
                )
            logits = self._compiled(batch)
        else:
            with nn.no_grad():
                logits = self.model(nn.Tensor(batch, _copy=False))
        return decode_predictions(
            logits.numpy(), self.model.config, method=self.config.decode_method
        )[0]

    def run(self, stream: Iterable[LaneSample], num_frames: int) -> PipelineReport:
        """Process ``num_frames`` frames; returns the full report.

        Ground-truth labels attached to the stream are used **only** for
        the online accuracy diagnostics — the adapter sees raw images.

        If the stream ends before ``num_frames`` frames were produced, the
        partial report is returned with ``report.truncated`` set instead of
        leaking the stream's ``StopIteration``.
        """
        report = PipelineReport(deadline_ms=self.config.deadline_ms)
        monitor = DeadlineMonitor(self.config.deadline_ms)
        rolling = RollingAccuracy(self.config.rolling_window)
        iterator = iter(stream)

        for index in range(num_frames):
            try:
                frame = next(iterator)
            except StopIteration:
                report.truncated = True
                break

            self._warm_engine(frame)
            with self.timer.measure("inference"):
                pred = self._predict(frame)
            with self.timer.measure("adaptation"):
                result = self.adapter.observe_frame(frame.image) if hasattr(
                    self.adapter, "observe_frame"
                ) else self.adapter.adapt(frame.image[None])

            metrics = point_accuracy(
                pred[None],
                frame.gt_cells[None],
                self.config.accuracy_threshold_cells,
            )
            rolling.update(metrics.accuracy)

            if self.config.latency_model == "orin":
                latency = self._infer_ms + (self._adapt_ms if result else 0.0)
                adapt_ms = self._adapt_ms if result else None
            else:
                adapt_wall_ms = 1e3 * self.timer.records["adaptation"][-1]
                latency = (
                    1e3 * self.timer.records["inference"][-1] + adapt_wall_ms
                )
                adapt_ms = adapt_wall_ms if result else None
            met = monitor.record(latency)

            report.frames.append(
                FrameRecord(
                    index=index,
                    timestamp=frame.timestamp,
                    domain=frame.domain,
                    latency_ms=latency,
                    deadline_ms=self.config.deadline_ms,
                    deadline_met=met,
                    accuracy=metrics.accuracy,
                    entropy=result.loss if result else None,
                    adapted=result is not None,
                    adapt_ms=adapt_ms,
                )
            )
        return report
