"""LD-BN-ADAPT — the paper's contribution.

Real-time, fully unsupervised adaptation of a deployed UFLD model (Sec.
III).  After inference on each incoming frame (or small batch of frames),
one adaptation step runs:

(i)  **statistics refresh** — every BatchNorm layer standardizes with the
     mean/std of the *current unlabeled target batch* instead of the stale
     source-domain running statistics;
(ii) **affine update** — the BN scale gamma and shift beta (~1 % of model
     parameters) are optimized by a **single backpropagation pass** of the
     Shannon-entropy loss over the model's predictions.

All other parameters stay frozen.  The updated model serves the next
frame, giving continuous on-device adaptation within the 30 FPS budget.

Implementation notes
--------------------
* Running BN in training mode implements (i): normalization uses batch
  statistics with gradients flowing through them (PyTorch semantics).
  ``stats_mode`` controls what is *persisted* into the running buffers for
  subsequent eval-mode inference: ``"replace"`` stores the latest batch's
  statistics verbatim (the paper's "recomputed from the unlabeled data"),
  ``"ema"`` blends them in with momentum (a smoother variant we ablate).
* With batch size 1 the per-channel statistics still average over H x W
  spatial positions, so conv BN layers remain well-conditioned — this is
  why bs=1 works (and wins, Fig. 2) for a dense prediction task.
* The entropy step runs through the compiled adaptation plan
  (:class:`repro.engine.CompiledAdaptStep`) by default: a traced static
  forward+backward that skips the frozen conv/linear weight gradients
  and replays without autograd bookkeeping, numerically matched against
  the eager step.  ``repro.nn.adaptation_mode(False)`` forces the eager
  path (the correctness oracle); models whose graphs the plan cannot
  lower fall back to it automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import nn
from ..nn.modules import _BatchNormBase
from .base import AdaptResult, Adapter, freeze_except, set_bn_training
from .entropy import entropy_loss


@dataclass(frozen=True)
class LDBNAdaptConfig:
    """Hyper-parameters of LD-BN-ADAPT.

    Attributes
    ----------
    lr:
        Learning rate of the single gamma/beta gradient step.
    momentum:
        SGD momentum (kept across steps; 0 disables).
    batch_size:
        Frames per adaptation step — the paper evaluates 1, 2 and 4
        (adaptation after every image, or every 2/4 images).
    stats_mode:
        "replace" — running stats := current batch stats (paper);
        "ema" — exponential blend with ``ema_momentum`` (ablation).
    ema_momentum:
        Momentum for the "ema" mode.
    optimizer:
        "sgd" (default; a single step matches the paper) or "adam".
    backend:
        Plan backend for the compiled adaptation step (``None`` →
        ``REPRO_BACKEND`` or "numpy"; see :mod:`repro.engine.backends`).
    """

    lr: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 1
    stats_mode: str = "replace"
    ema_momentum: float = 0.1
    optimizer: str = "sgd"
    backend: Optional[str] = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.stats_mode not in ("replace", "ema"):
            raise ValueError(f"unknown stats_mode {self.stats_mode!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


class LDBNAdapt(Adapter):
    """The paper's adapter: BN statistics refresh + 1-step entropy descent."""

    name = "ld_bn_adapt"

    def __init__(self, model: nn.Module, config: Optional[LDBNAdaptConfig] = None):
        super().__init__(model)
        self.config = config if config is not None else LDBNAdaptConfig()
        bn_params = []
        self._bn_modules = []
        for module in model.modules():
            if isinstance(module, _BatchNormBase):
                self._bn_modules.append(module)
                bn_params.extend([module.weight, module.bias])
        if not bn_params:
            raise ValueError("model has no BatchNorm layers to adapt")
        self._params = freeze_except(model, bn_params)
        if self.config.optimizer == "sgd":
            self.optimizer = nn.SGD(
                self._params, lr=self.config.lr, momentum=self.config.momentum
            )
        else:
            self.optimizer = nn.Adam(self._params, lr=self.config.lr)
        self._buffer: list = []
        self._compiled = None  # CompiledAdaptStep, built on first use
        self._compiled_unsupported = False  # graph can't be lowered: stay eager

    # ------------------------------------------------------------------
    @property
    def effective_momentum(self) -> float:
        """Momentum persisted into the running buffers by one step."""
        return (
            1.0 if self.config.stats_mode == "replace" else self.config.ema_momentum
        )

    @property
    def pending_frames(self) -> int:
        """Frames buffered by :meth:`observe_frame` toward the next step."""
        return len(self._buffer)

    def warm(self, image: np.ndarray) -> None:
        """Trace + compile the adaptation plan for this adapter's batch size.

        Serving loops call this outside their timed regions (mirroring
        ``CompiledInference.warm``) so the one-time trace cost never
        pollutes per-frame latency statistics.  No-op when the compiled
        path is disabled or unsupported.
        """
        if not nn.compiled_adaptation_enabled() or self._compiled_unsupported:
            return
        batch = np.zeros(
            (self.config.batch_size,) + tuple(np.shape(image)), dtype=np.float32
        )
        self._compiled_plan(batch)

    def _compiled_plan(self, images: np.ndarray):
        """The adaptation plan for ``images``, or None to use eager."""
        from ..engine import CompiledAdaptStep, UnsupportedAdaptGraph

        if self._compiled is None:
            self._compiled = CompiledAdaptStep(
                self.model, backend=self.config.backend
            )
        try:
            return self._compiled.plan_for(images)
        except UnsupportedAdaptGraph:
            self._compiled_unsupported = True
            return None

    def _adapt_compiled(self, images: np.ndarray, momentum: float):
        """One compiled entropy step; returns the loss or None (fallback).

        Replays the traced plan, persists the batch statistics into the
        running buffers with the same in-place kernel sequence the eager
        train forward uses, installs the gamma/beta gradients and runs
        the (fused, in-place) optimizer step.
        """
        plan = self._compiled_plan(images)
        if plan is None:
            return None
        losses = plan.run(images)
        for tap in plan.bn_taps:
            module = tap.module
            module.num_batches_tracked += 1
            module.running_mean *= 1.0 - momentum
            module.running_mean += momentum * tap.batch_mean.reshape(-1)
            module.running_var *= 1.0 - momentum
            module.running_var += momentum * tap.batch_var.reshape(-1)
            module.weight.grad = tap.grad_gamma.reshape(-1)
            module.bias.grad = tap.grad_beta.reshape(-1)
        self.optimizer.step()
        return float(losses[0])

    def adapt(self, images: np.ndarray) -> AdaptResult:
        """One adaptation step on a batch of unlabeled target frames.

        ``images`` is ``(N, 3, H, W)``; N is typically ``config.batch_size``
        (the pipeline buffers frames accordingly, see
        :meth:`observe_frame`).  Runs the compiled plan by default; the
        eager autograd step under ``repro.nn.adaptation_mode(False)``.
        """
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 4:
            raise ValueError(f"expected (N, 3, H, W) batch, got {images.shape}")

        momentum = self.effective_momentum
        loss_value = None
        if nn.compiled_adaptation_enabled() and not self._compiled_unsupported:
            loss_value = self._adapt_compiled(images, momentum)

        if loss_value is None:
            original_momenta = [m.momentum for m in self._bn_modules]
            for module in self._bn_modules:
                module.momentum = momentum

            set_bn_training(self.model, True)
            try:
                logits = self.model(nn.Tensor(images, _copy=False))
                loss = entropy_loss(logits, axis=1)
                self.model.zero_grad()
                loss.backward()
                self.optimizer.step()
            finally:
                set_bn_training(self.model, False)
                for module, m in zip(self._bn_modules, original_momenta):
                    module.momentum = m
            loss_value = float(loss.item())

        self._step += 1
        return AdaptResult(
            loss=loss_value,
            num_frames=len(images),
            step_index=self._step,
            extras={"entropy": loss_value},
        )

    def observe_frame(self, image: np.ndarray) -> Optional[AdaptResult]:
        """Stream interface: buffer one frame; adapt when the batch fills.

        Returns the :class:`AdaptResult` on steps where adaptation ran,
        else None.  This implements the paper's "adaptation after every
        image or every 2/4 images" batching.
        """
        if image.ndim != 3:
            raise ValueError(f"expected a single (3, H, W) frame, got {image.shape}")
        self._buffer.append(np.asarray(image, dtype=np.float32))
        if len(self._buffer) < self.config.batch_size:
            return None
        batch = np.stack(self._buffer)
        self._buffer.clear()
        return self.adapt(batch)

    def reset(self) -> None:
        super().reset()
        self._buffer.clear()
        self.optimizer.state.clear()

    @property
    def num_bn_layers(self) -> int:
        return len(self._bn_modules)
