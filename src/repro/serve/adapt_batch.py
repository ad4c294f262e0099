"""Fleet-wide batched adaptation: fuse same-phase streams' entropy steps.

The fleet server's inference already amortizes across streams (one
batched compiled forward with per-sample BN folds); until now every
adapting stream still paid a *serial* entropy step — swap its BN state
onto the shared model, run train-forward + backward + optimizer, swap it
back out.  This module fuses the steps of streams that adapt on the same
tick (same ``adapt_phase``) into ONE grouped replay of the compiled
adaptation plan (:class:`repro.engine.CompiledAdaptStep` with
``groups=K``):

* every stream's frames form one contiguous *group* of the fused batch;
* each BatchNorm normalizes each group with that group's own batch
  statistics and that stream's own gamma/beta (plan-input slots filled
  straight from the stream's :class:`~repro.serve.streams.BNStateSnapshot`
  — no model swap-in/swap-out at all);
* the plan returns one loss and one gamma/beta gradient set per stream;
* per-stream SGD updates and running-statistics refreshes are then
  applied directly to each stream's snapshot through the same fused
  :func:`repro.nn.optim.sgd_update` kernels the serial path uses, so the
  resulting per-stream states match serial stepping to float precision
  (the only divergence is GEMM batching at the last-ulp level).

Batching contract: a stream joins a fused step when its adapter is an
:class:`~repro.adapt.LDBNAdapt` with the SGD optimizer, the incoming
frame completes its adaptation batch, and the fused batch sizes agree.
Learning rates, momenta and stats modes may differ per stream — they
only enter the per-stream update loop.  Everything else (Adam adapters,
exotic adapters, unsupported graphs) falls back to the serial path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..adapt.base import AdaptResult
from ..adapt.bn_adapt import LDBNAdapt
from ..engine import CompiledAdaptStep, UnsupportedAdaptGraph
from ..nn.optim import sgd_update
from .streams import StreamSession


def static_fuse_key(adapter):
    """The fuse key this adapter's steps carry when they run, or None.

    The *static* half of the batching contract — an SGD-driven
    :class:`LDBNAdapt` of a given batch size always fuses under the same
    key; whether a particular frame actually has a step to fuse is the
    dynamic half (:meth:`FleetAdaptationBatcher.group_key`).  The
    admission controller uses the static key to know which streams could
    ever share a fused replay (phase packing).
    """
    if isinstance(adapter, LDBNAdapt) and adapter.config.optimizer == "sgd":
        return ("ldbn-sgd", adapter.config.batch_size)
    return None


class StagedGroupStep:
    """One fused adaptation step, assembled but not yet executed.

    Staging (batch assembly + plan lookup, which traces on first use)
    happens outside the serving loop's timed region; :meth:`execute`
    is the measured work.
    """

    __slots__ = ("batcher", "sessions", "images", "plan", "group_size")

    def __init__(self, batcher, sessions, images, plan, group_size):
        self.batcher = batcher
        self.sessions = sessions
        self.images = images
        self.plan = plan
        self.group_size = group_size

    @property
    def num_streams(self) -> int:
        return len(self.sessions)

    def execute(self) -> Dict[int, AdaptResult]:
        return self.batcher._execute(self)


class FleetAdaptationBatcher:
    """Plans and runs fused same-phase adaptation steps for one model."""

    def __init__(self, model, backend=None):
        self.model = model
        self._compiled = CompiledAdaptStep(model, backend=backend)
        self._unsupported = False
        self._fused_proven = False  # a grouped stage has succeeded
        self._module_index: Optional[Dict[int, int]] = None

    @property
    def unsupported(self) -> bool:
        """True once a stage attempt found the graph unlowerable."""
        return self._unsupported

    @property
    def fuse_billable(self) -> bool:
        """Whether admission may bill steps at the fused (sublinear) rate.

        Until a grouped stage has actually succeeded, fused costing would
        be speculative: if the graph then turns out unlowerable, granted
        steps fall back to serial execution and a fused-priced budget
        would overrun the deadline it guaranteed.  Serial pricing is
        always an over-estimate of the fused cost, so billing serially
        before the first proof (and forever after an ``unsupported``
        verdict) keeps the feasibility invariant hard.
        """
        return self._fused_proven and not self._unsupported

    # ------------------------------------------------------------------
    def group_key(self, session: StreamSession):
        """Hashable fuse key for this session's next step, or None.

        None means the session cannot join a fused step now: its adapter
        is not a SGD-driven :class:`LDBNAdapt`, this frame does not
        complete its adaptation batch, or compiled adaptation is off.
        """
        if self._unsupported or not nn.compiled_adaptation_enabled():
            return None
        adapter = session.adapter
        key = static_fuse_key(adapter)
        if key is None:
            return None
        if adapter.pending_frames != adapter.config.batch_size - 1:
            return None  # this frame only buffers; no step to fuse
        return key

    def stage(
        self, sessions: Sequence[StreamSession], frames: Sequence[np.ndarray]
    ) -> Optional[StagedGroupStep]:
        """Assemble one fused step (trace/compile outside timed regions).

        ``frames`` holds each session's incoming frame image; buffered
        frames from previous ticks complete each stream's batch.  Returns
        None when the step cannot be compiled — the caller falls back to
        serial stepping (nothing has been consumed from the adapters).
        """
        if self._unsupported:
            return None
        group_size = sessions[0].adapter.config.batch_size
        batches = []
        for session, image in zip(sessions, frames):
            image = np.asarray(image, dtype=np.float32)
            if image.ndim != 3:
                raise ValueError(
                    f"expected a single (3, H, W) frame, got {image.shape}"
                )
            batches.append(np.stack(session.adapter._buffer + [image]))
        images = np.concatenate(batches)
        try:
            plan = self._compiled.plan_for(images, groups=len(sessions))
        except UnsupportedAdaptGraph:
            self._unsupported = True
            return None
        self._fused_proven = True
        return StagedGroupStep(self, list(sessions), images, plan, group_size)

    # ------------------------------------------------------------------
    def _layer_index(self, session: StreamSession) -> Dict[int, int]:
        if self._module_index is None:
            self._module_index = {
                id(module): j
                for j, module in enumerate(session.bn_state.modules)
            }
        return self._module_index

    def _execute(self, staged: StagedGroupStep) -> Dict[int, AdaptResult]:
        """Run one fused step and apply per-stream state updates."""
        sessions, plan = staged.sessions, staged.plan
        index_of = self._layer_index(sessions[0])
        # parameter slots: row k is stream k's adapted gamma/beta
        for tap in plan.bn_taps:
            j = index_of[id(tap.module)]
            for k, session in enumerate(sessions):
                tap.gamma_slot[k] = session.bn_state.params.saved[2 * j]
                tap.beta_slot[k] = session.bn_state.params.saved[2 * j + 1]
        losses = plan.run(staged.images)

        results: Dict[int, AdaptResult] = {}
        for k, session in enumerate(sessions):
            adapter = session.adapter
            adapter._buffer.clear()
            momentum = adapter.effective_momentum
            optimizer = adapter.optimizer
            for tap in plan.bn_taps:
                j = index_of[id(tap.module)]
                bufs = session.bn_state.buffers[j]
                bufs["num_batches_tracked"] += 1
                for name, stat in (
                    ("running_mean", tap.batch_mean[k]),
                    ("running_var", tap.batch_var[k]),
                ):
                    buf = bufs[name]
                    buf *= 1.0 - momentum
                    buf += momentum * stat
                for saved, grad, param in (
                    (session.bn_state.params.saved[2 * j],
                     tap.grad_gamma[k], tap.module.weight),
                    (session.bn_state.params.saved[2 * j + 1],
                     tap.grad_beta[k], tap.module.bias),
                ):
                    sgd_update(
                        saved,
                        grad,
                        optimizer.state.setdefault(id(param), {}),
                        optimizer.lr,
                        momentum=optimizer.momentum,
                        weight_decay=optimizer.weight_decay,
                        nesterov=optimizer.nesterov,
                    )
            adapter._step += 1
            loss = float(losses[k])
            results[id(session)] = AdaptResult(
                loss=loss,
                num_frames=staged.group_size,
                step_index=adapter._step,
                extras={"entropy": loss},
            )
        return results
