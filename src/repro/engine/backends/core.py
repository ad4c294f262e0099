"""Backend-neutral lowering machinery shared by every plan backend.

The one lowering pass in :mod:`repro.engine.plan` builds both plan kinds
(inference and adaptation) on these pieces, and every :class:`PlanBackend`
(numpy closures, generated C) uses the same objects:

* :class:`_Arena` / :class:`_Block` — the byte-arena pool op outputs are
  recycled through, and :class:`_Liveness`, which owns arena blocks by
  key and frees each block once every key aliased to it has passed its
  last use in program order;
* :class:`ConvLowering` / :class:`PoolLowering` — the im2col geometry of
  one conv/pool layer (gather indices, padded-image buffer, column
  workspace), computed once at compile time;
* :class:`PlanProfile` / :func:`_timed_step` — the opt-in per-stage
  replay profiler, tagged with the ``backend`` that produced the stages
  it times; :meth:`PlanProfile.lap` is the sub-stage hook GEMM stages
  call to split their time into ``im2col`` / ``gemm`` / ``epilogue``.

Nothing in this module touches numpy kernels at replay time: the
workspaces are plain arrays the backends capture however they like.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...nn.functional import _conv_output_size, _im2col_indices

_ALIGN = 64


class _Block:
    """One arena-backed byte buffer, viewable as any (shape, dtype)."""

    __slots__ = ("raw", "nbytes", "alive", "pinned")

    def __init__(self, nbytes: int):
        self.raw = np.empty(nbytes, dtype=np.uint8)
        self.nbytes = nbytes
        self.alive: set = set()  # keys currently backed by this block
        self.pinned = False  # never recycled (e.g. aliased by a generic op)

    def view(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        need = int(np.prod(shape)) * dtype.itemsize
        return self.raw[:need].view(dtype).reshape(shape)


class _Arena:
    """Size-class-free best-fit pool of :class:`_Block` buffers."""

    def __init__(self):
        self.blocks: List[_Block] = []
        self._free: List[_Block] = []
        self.total_bytes = 0
        self.requested_bytes = 0  # sum of all allocation requests (pre-reuse)

    def alloc(self, shape: Tuple[int, ...], dtype) -> Tuple[_Block, np.ndarray]:
        dtype = np.dtype(dtype)
        need = max(int(np.prod(shape)) * dtype.itemsize, 1)
        self.requested_bytes += need
        aligned = -(-need // _ALIGN) * _ALIGN
        best = None
        for block in self._free:
            if block.nbytes >= aligned and (
                best is None or block.nbytes < best.nbytes
            ):
                best = block
        if best is not None:
            self._free.remove(best)
            block = best
        else:
            block = _Block(aligned)
            self.blocks.append(block)
            self.total_bytes += aligned
        return block, block.view(shape, dtype)

    def release(self, block: _Block) -> None:
        if not block.pinned:
            self._free.append(block)


class _Liveness:
    """Arena ownership by key, freed in program order.

    ``last_use`` maps every key (a value id, or a tuple naming a saved
    buffer or gradient) to the last program position that reads it.  A
    block stays allocated while any key aliased to it (views, in-place
    outputs) is alive; :meth:`advance` releases the keys dying at one
    position, in ``last_use`` insertion order.
    """

    def __init__(self, last_use: Dict[object, int]):
        self.arena = _Arena()
        self.last_use = last_use
        self._blocks: Dict[object, _Block] = {}
        self._dying: Dict[int, List[object]] = {}
        for key, pos in last_use.items():
            self._dying.setdefault(pos, []).append(key)

    def alloc(self, key, shape: Tuple[int, ...], dtype) -> np.ndarray:
        block, view = self.arena.alloc(shape, dtype)
        block.alive.add(key)
        self._blocks[key] = block
        return view

    def join(self, key, src_key) -> None:
        """``key`` aliases ``src_key``'s block: keep it alive for both."""
        block = self._blocks.get(src_key)
        if block is not None:
            block.alive.add(key)
            self._blocks[key] = block

    def pin(self, key) -> None:
        """Never recycle ``key``'s block (an op output may view it)."""
        block = self._blocks.get(key)
        if block is not None:
            block.pinned = True

    def sole_owner(self, key, pos: int) -> bool:
        """``key`` alone holds its block and dies at ``pos``."""
        block = self._blocks.get(key)
        return (
            block is not None
            and not block.pinned
            and block.alive == {key}
            and self.last_use[key] == pos
        )

    def advance(self, pos: int) -> None:
        for key in self._dying.get(pos, ()):
            block = self._blocks.pop(key, None)
            if block is not None:
                block.alive.discard(key)
                if not block.alive:
                    self.arena.release(block)


@dataclass
class ConvLowering:
    """Compile-time im2col geometry + workspaces of one conv layer.

    ``flat`` indexes the (optionally padded) input image per ``(k, p)``
    column entry; ``padded``/``core``/``cols`` are the cached per-layer
    workspaces replays gather into with ``np.take(..., out=)``.  When the
    kernel is 1x1/stride-1/unpadded (``identity_cols``) the input itself
    is the column matrix and no workspace exists.  ``kij`` keeps the raw
    ``(k, i, j)`` im2col index triple for backends that need per-element
    coordinates (the C renderer's padding-sentinel indices, the
    adaptation plan's scatter).
    """

    n: int
    c: int
    h: int
    w: int
    f_out: int
    kernel: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int]
    out_h: int
    out_w: int
    p_total: int
    k_total: int
    compute_dtype: np.dtype
    x_dtype: np.dtype
    identity_cols: bool
    flat: Optional[np.ndarray] = None
    padded: Optional[np.ndarray] = None
    core: Optional[np.ndarray] = None
    cols: Optional[np.ndarray] = None
    kij: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    workspace_nbytes: int = 0

    def release_workspace(self) -> None:
        """Drop the gather workspaces (padded image, column matrix).

        Called by a codegen backend once every stage using this lowering
        gathers inside its own kernel (fused im2col) — the plan-side
        buffers would otherwise sit resident for the plan's lifetime.
        ``flat``/``kij`` stay: they are compile-time geometry, not
        workspace.  Irreversible for this plan; the numpy closures that
        captured these arrays must already be unreachable.
        """
        self.padded = None
        self.core = None
        self.cols = None
        self.workspace_nbytes = 0


def lower_conv(
    x_shape: Tuple[int, ...],
    weight_shape: Tuple[int, ...],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    compute_dtype,
    x_dtype,
) -> ConvLowering:
    """One conv layer's im2col geometry and gather workspaces."""
    n, c, h, w = x_shape
    f_out, _, kh, kw = weight_shape
    out_h = _conv_output_size(h, kh, stride[0], padding[0])
    out_w = _conv_output_size(w, kw, stride[1], padding[1])
    p_total = out_h * out_w
    k_total = c * kh * kw
    compute_dtype = np.dtype(compute_dtype)
    x_dtype = np.dtype(x_dtype)

    geo = ConvLowering(
        n=n, c=c, h=h, w=w, f_out=f_out, kernel=(kh, kw), stride=stride,
        padding=padding, out_h=out_h, out_w=out_w, p_total=p_total,
        k_total=k_total, compute_dtype=compute_dtype, x_dtype=x_dtype,
        identity_cols=(
            kh == 1 and kw == 1 and stride == (1, 1) and padding == (0, 0)
        ),
    )
    if not geo.identity_cols:
        k, i, j, _, _ = _im2col_indices(c, h, w, (kh, kw), stride, padding)
        geo.kij = (k, i, j)
        hp, wp = h + 2 * padding[0], w + 2 * padding[1]
        geo.flat = ((k * hp + i) * wp + j).astype(np.intp)
        if padding != (0, 0):
            geo.padded = np.zeros((n, c, hp, wp), dtype=compute_dtype)
            geo.core = geo.padded[:, :, padding[0]:padding[0] + h,
                                  padding[1]:padding[1] + w]
            geo.cols = np.empty((n, k_total, p_total), dtype=compute_dtype)
            geo.workspace_nbytes = geo.padded.nbytes + geo.cols.nbytes
        else:
            geo.cols = np.empty((n, k_total, p_total), dtype=x_dtype)
            geo.workspace_nbytes = geo.cols.nbytes
    return geo


@dataclass
class PoolLowering:
    """Compile-time geometry + workspaces of one max-pool layer."""

    n: int
    c: int
    h: int
    w: int
    h_eff: int
    w_eff: int
    kernel: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int]
    out_h: int
    out_w: int
    p_total: int
    x_dtype: np.dtype
    flat: np.ndarray
    kij: Tuple[np.ndarray, np.ndarray, np.ndarray]
    padded: Optional[np.ndarray] = None
    core: Optional[np.ndarray] = None
    cols: Optional[np.ndarray] = None
    workspace_nbytes: int = 0


def lower_pool(
    x_shape: Tuple[int, ...],
    out_shape: Tuple[int, ...],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    x_dtype,
) -> PoolLowering:
    """One max-pool layer's window geometry and gather workspaces."""
    n, c, h, w = x_shape
    _, _, out_h, out_w = out_shape
    p_total = out_h * out_w
    x_dtype = np.dtype(x_dtype)

    padded = core = None
    if padding != (0, 0):
        h_eff, w_eff = h + 2 * padding[0], w + 2 * padding[1]
        padded = np.full((n * c, h_eff, w_eff), -np.inf, dtype=x_dtype)
        core = padded[:, padding[0]:padding[0] + h,
                      padding[1]:padding[1] + w]
    else:
        h_eff, w_eff = h, w
    k, i, j, _, _ = _im2col_indices(1, h_eff, w_eff, kernel, stride, (0, 0))
    flat = (i * w_eff + j).astype(np.intp)
    cols = np.empty((n * c, kernel[0] * kernel[1], p_total), dtype=x_dtype)
    workspace = cols.nbytes + (padded.nbytes if padded is not None else 0)
    return PoolLowering(
        n=n, c=c, h=h, w=w, h_eff=h_eff, w_eff=w_eff, kernel=kernel,
        stride=stride, padding=padding, out_h=out_h, out_w=out_w,
        p_total=p_total, x_dtype=x_dtype, flat=flat, kij=(k, i, j),
        padded=padded, core=core, cols=cols, workspace_nbytes=workspace,
    )


@dataclass
class PlanProfile:
    """Opt-in per-op timing of a compiled plan's replays.

    Created only when a plan is compiled with ``profile=True``; the
    default replay path never touches it.  ``op_ms`` buckets total
    milliseconds by stage label (e.g. ``"conv+bn+relu"``, ``"fwd:conv"``;
    stages a codegen backend rendered are prefixed with the backend name,
    ``"cgen:conv+bn+relu"``, so profiled runs distinguish rendered from
    fallback stages).  ``bucket_ms`` decomposes the numpy GEMM stages
    into their ``im2col`` / ``gemm`` / ``epilogue`` phases through
    :meth:`lap` (a stage's phases sum to its ``op_ms`` entry; rendered C
    stages execute as one fused kernel and contribute no buckets).
    ``backend`` names the :class:`~repro.engine.backends.base.PlanBackend`
    that lowered the plan.
    """

    op_ms: Dict[str, float] = field(default_factory=dict)
    op_calls: Dict[str, int] = field(default_factory=dict)
    bucket_ms: Dict[str, float] = field(default_factory=dict)
    runs: int = 0
    backend: str = "numpy"
    # start of the stage phase being timed: set by _timed_step, moved
    # forward by lap()
    mark: float = field(default=0.0, init=False, repr=False, compare=False)

    def add_op(self, label: str, seconds: float) -> None:
        self.op_ms[label] = self.op_ms.get(label, 0.0) + 1e3 * seconds
        self.op_calls[label] = self.op_calls.get(label, 0) + 1

    def add_bucket(self, name: str, seconds: float) -> None:
        self.bucket_ms[name] = self.bucket_ms.get(name, 0.0) + 1e3 * seconds

    def lap(self, bucket: str) -> None:
        """Bill the time since the last mark to ``bucket`` (sub-stage hook)."""
        now = time.perf_counter()
        self.add_bucket(bucket, now - self.mark)
        self.mark = now

    def summary(self) -> Dict[str, object]:
        total = sum(self.op_ms.values())
        return {
            "runs": self.runs,
            "backend": self.backend,
            "total_ms": total,
            "op_ms": dict(sorted(self.op_ms.items(), key=lambda kv: -kv[1])),
            "op_calls": dict(self.op_calls),
            "bucket_ms": dict(
                sorted(self.bucket_ms.items(), key=lambda kv: -kv[1])
            ),
        }


def _no_lap(bucket: str) -> None:
    """The sub-stage hook of stages nobody profiles."""


def _timed_step(step, label: str, profile: PlanProfile):
    """Wrap one replay closure with per-call timing into ``profile``."""

    def timed():
        t0 = profile.mark = time.perf_counter()
        step()
        profile.add_op(label, time.perf_counter() - t0)

    return timed
