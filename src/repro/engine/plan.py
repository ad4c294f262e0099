"""Lower a :class:`~repro.engine.tracer.TraceGraph` into a replayable plan.

One lowering pass builds both plan kinds.  :class:`ExecutionPlan` is the
traced forward with eval-mode BN and no backward;
:class:`~repro.engine.adapt_plan.AdaptationPlan` is the same forward with
train-mode BN plus the pruned BN-only backward.  Either way the plan is
one flat list of zero-argument closures ("stages") writing into buffers
fixed at compile time, and replay stays **bit-exact** with the eager
autograd path: every stage issues the same numpy kernels on the same
values in the same order, only the bookkeeping around them is removed.

* **Fusion** (no backward only) — a ``conv -> eval-BN -> relu`` chain
  (and ``linear -> relu``) becomes one stage: im2col-GEMM via
  ``np.matmul(..., out=)`` into the stage's arena buffer, then the BN
  affine and ReLU applied in place as a GEMM epilogue.  The BN constants
  are re-folded from the module's *live* state on every replay (O(C)
  work), so LD-BN-ADAPT updates and the per-sample ``(scale, shift)``
  fleet override need no retrace.  A plan with a backward keeps every op
  its own stage, because the backward reads the unfused intermediates.
* **Arena buffer reuse** — one liveness pass over program positions
  (forward ``0..n-1``, the backward of node ``i`` at ``2n-1-i``) assigns
  op outputs, saved-for-backward buffers and gradients to a pool of byte
  arenas (:class:`~repro.engine.backends.core._Liveness`); a buffer is
  recycled as soon as every value aliased to it is dead.  Without a
  backward, relu/add may also write in place into a dying input.
  Steady-state replays allocate nothing beyond tiny per-channel vectors.
* **Cached im2col workspaces** — gather indices, padded-image buffers and
  column matrices are precomputed per conv/pool layer for the traced
  input shape; replays gather with ``np.take(..., out=)`` instead of
  rebuilding indices and materializing fresh columns.

A codegen backend may pass a *renderer*: every lowered stage is offered
to it along with its numpy closure, and at finalize time it replaces the
accepted ones with compiled-kernel calls, see
:mod:`repro.engine.backends.cgen`.  Without a renderer the plan is the
pure numpy-closure backend and no autograd ``Context`` (or ``Tensor``)
is allocated anywhere on the replay path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn import tensor as T
from ..nn.functional import _pair
from ..nn.tensor import Context
from .backends.core import (
    PlanProfile,
    _Liveness,
    _no_lap,
    _timed_step,
    lower_conv,
    lower_pool,
)
from .tracer import ConstRef, OpNode, TraceGraph, ValueRef


@dataclass(frozen=True)
class PlanStats:
    """Introspection summary of a compiled plan."""

    num_ops: int  # traced nodes (adaptation: forward incl. loss)
    num_stages: int  # forward stages (fused chains collapse)
    fused_stages: int  # stages covering more than one traced node
    backward_stages: int  # emitted backward stages (pruned program)
    skipped_backward: int  # traced nodes with no surviving gradient path
    arena_blocks: int
    arena_bytes: int  # bytes actually held by the arena
    requested_bytes: int  # bytes the buffers would take without reuse
    workspace_bytes: int  # dedicated im2col/pool workspaces


_KINDS = {
    F._Conv2d: "conv",
    F._Linear: "linear",
    F._MaxPool2d: "maxpool",
    F._ReLU: "relu",
    F._LogSoftmax: "logsoftmax",
    T.Add: "add",
    T.Mul: "mul",
    T.Exp: "exp",
    T.Neg: "neg",
    T.Sum: "sum",
    T.Mean: "mean",
    T.Reshape: "reshape",
    T.Transpose: "transpose",
}


def _kind(node: OpNode) -> str:
    if node.module is not None:
        return "bn"
    return _KINDS.get(node.function, "generic")


def _label(node: OpNode) -> str:
    kind = _kind(node)
    if kind == "generic":
        return getattr(node.function, "__name__", "generic").lower()
    return kind


def _consumes(node: OpNode, vid: int) -> bool:
    ref = node.inputs[0]
    return isinstance(ref, ValueRef) and ref.vid == vid


def _bn_epilogue(buf3: np.ndarray, module, n: int) -> None:
    """Apply eval-mode BN in place on a ``(N, C, P)`` GEMM output.

    Mirrors the eager ops exactly: per-sample folded affine when the
    fleet override is installed, else normalize with the running stats
    (subtract mean, scale by 1/sqrt(var+eps), then gamma/beta) — the
    same elementwise kernel sequence :func:`repro.nn.functional.batch_norm`
    runs in eval mode, minus the temporaries.
    """
    if module.training:
        raise RuntimeError(
            "compiled plan replayed with a BatchNorm layer in training "
            "mode; adaptation steps must use the eager path"
        )
    c = buf3.shape[1]
    ps = module.per_sample_stats
    if ps is not None:
        scale, shift = ps
        if scale.shape != (n, c):
            raise ValueError(
                f"per_sample_stats shaped {scale.shape}, expected ({n}, {c})"
            )
        buf3 *= scale.reshape(n, c, 1)
        buf3 += shift.reshape(n, c, 1)
    else:
        inv_std = 1.0 / np.sqrt(module.running_var + module.eps)
        buf3 -= module.running_mean.reshape(1, c, 1)
        buf3 *= inv_std.reshape(1, c, 1)
        buf3 *= module.weight.data.reshape(1, c, 1)
        buf3 += module.bias.data.reshape(1, c, 1)


class _Plan:
    """The lowering pass and replay loop both plan kinds share.

    Subclasses choose the op kinds they lower (:attr:`_LOWERED`), whether
    the program has a backward (:attr:`_BACKWARD`), and supply the BN
    lowering plus, for adaptation, the backward program.
    """

    _LOWERED = frozenset()
    _BACKWARD = False
    _NOUN = "plan"

    def __init__(self, graph: TraceGraph, profile: bool = False,
                 renderer=None):
        self._input_shape = graph.input_shape
        self._input_vid = graph.input_vid
        self._steps: List[Callable[[], None]] = []
        self._slots: Dict[int, np.ndarray] = {}
        self._fixed: Dict[int, np.ndarray] = {}
        self._input_cell: List[Optional[np.ndarray]] = [None]
        self._renderer = renderer
        self._pre_replay: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self.backend_info: Dict[str, object] = {"backend": "numpy"}
        # opt-in profiling must be chosen at compile time: the traced
        # graph is dropped after compilation, so closures cannot be
        # re-instrumented later — and unprofiled stages are never wrapped,
        # keeping the disabled path cost-free
        self.profile: Optional[PlanProfile] = PlanProfile() if profile else None
        # rendered plans time whole stages only: a C kernel has no phases
        self._lap = (
            self.profile.lap
            if self.profile is not None and renderer is None
            else _no_lap
        )
        self._compile(graph)
        if renderer is not None:
            self.backend_info = renderer.finalize(self, graph)
            # the renderer holds every offered stage (and its numpy
            # fallback closure, which captures the im2col workspaces);
            # dropping it here is what lets a fused-im2col backend
            # actually free the workspaces it released
            self._renderer = None
        # the graph (and its keepalive of every traced activation) is not
        # retained: closures captured what replay needs, parameters stay
        # reachable through their ConstRef-held tensors

    # -- value access ---------------------------------------------------
    def _getter(self, ref) -> Callable[[], object]:
        if isinstance(ref, ValueRef):
            vid = ref.vid
            fixed = self._fixed.get(vid)
            if fixed is not None:
                return lambda: fixed
            if vid == self._input_vid:
                cell = self._input_cell
                return lambda: cell[0]
            slots = self._slots
            return lambda: slots[vid]
        if isinstance(ref, ConstRef):
            tensor = ref.tensor
            return lambda: tensor.data
        value = ref
        return lambda: value

    def _ref_shape_dtype(self, ref):
        if isinstance(ref, ValueRef):
            return self._shapes[ref.vid], self._dtypes[ref.vid]
        if isinstance(ref, ConstRef):
            return tuple(ref.tensor.shape), ref.tensor.data.dtype
        return None, None

    def _render_source(self, ref):
        """Classify a stage input for the renderer.

        Returns ``("input", None)`` for the plan input, ``("fixed", arr)``
        for a compile-time-fixed buffer, ``("const", tensor)`` for a
        traced constant/parameter, or ``None`` when the value is only
        available through a dynamic slot (not renderable).
        """
        if isinstance(ref, ValueRef):
            fixed = self._fixed.get(ref.vid)
            if fixed is not None:
                return ("fixed", fixed)
            if ref.vid == self._input_vid:
                return ("input", None)
            return None
        if isinstance(ref, ConstRef):
            return ("const", ref.tensor)
        return None

    def _offer(self, kind: str, spec: dict, fallback) -> None:
        """Offer one lowered stage to the renderer; append the step."""
        step = fallback
        if self._renderer is not None:
            placed = self._renderer.offer_stage(kind, spec, fallback)
            if placed is not None:
                step = placed
        self._steps.append(step)

    def _note(self, before: int, label: str) -> None:
        """Label the steps one lowering appended (for profiling)."""
        if self._renderer is not None:
            # profiling wraps happen at finalize (the renderer decides
            # per stage whether the C kernel or the numpy fallback
            # survived)
            self._renderer.note_stage(before, len(self._steps), label)
        elif self.profile is not None:
            for pos in range(before, len(self._steps)):
                self._steps[pos] = _timed_step(
                    self._steps[pos], label, self.profile
                )

    def _alias(self, vid: int, array: np.ndarray, src_vid: int) -> None:
        """Register ``array`` as ``vid``, sharing ``src_vid``'s buffer."""
        self._fixed[vid] = array
        self._mem.join(vid, src_vid)

    # -- hooks the adaptation plan fills in -----------------------------
    def _stage_kind(self, node: OpNode) -> str:
        kind = _kind(node)
        return kind if kind in self._LOWERED else "generic"

    def _plan_backward(self, graph: TraceGraph, kinds: List[str]) -> int:
        """Prune the backward program; return the program length."""
        return len(graph.nodes)

    def _backward_uses(self, index: int, node: OpNode, kind: str,
                       use) -> None:
        """Record the backward program's reads of node ``index``."""

    def _lower_backward(self, nodes: List[OpNode], kinds: List[str]) -> int:
        """Emit the backward stages; return how many were emitted."""
        return 0

    # -- compilation ----------------------------------------------------
    def _compile(self, graph: TraceGraph) -> None:
        nodes = graph.nodes
        num = len(nodes)
        kinds = [self._stage_kind(node) for node in nodes]
        shapes: Dict[int, Tuple[int, ...]] = {graph.input_vid: graph.input_shape}
        dtypes: Dict[int, np.dtype] = {graph.input_vid: graph.input_dtype}
        consumers: Dict[int, int] = {}
        for node in nodes:
            shapes[node.out_vid] = node.out_shape
            dtypes[node.out_vid] = node.out_dtype
            for ref in node.inputs:
                if isinstance(ref, ValueRef):
                    consumers[ref.vid] = consumers.get(ref.vid, 0) + 1
        self._shapes, self._dtypes = shapes, dtypes
        length = self._plan_backward(graph, kinds)

        # -- liveness over program positions ----------------------------
        last_use: Dict[object, int] = {}

        def use(key, pos: int) -> None:
            last_use[key] = max(last_use.get(key, -1), pos)

        for index, node in enumerate(nodes):
            use(node.out_vid, index)  # dead outputs die at birth
            for ref in node.inputs:
                if isinstance(ref, ValueRef):
                    use(ref.vid, index)
            self._backward_uses(index, node, kinds[index], use)
        use(graph.output_vid, length)  # the plan output never dies
        self._mem = _Liveness(last_use)
        self._workspace = 0
        self._saved: Dict[int, object] = {}

        # -- forward ----------------------------------------------------
        index = num_stages = fused = 0
        while index < num:
            node, kind = nodes[index], kinds[index]
            fuse: Dict[str, OpNode] = {}
            if kind in ("conv", "linear") and not self._BACKWARD:
                x_dtype = self._ref_shape_dtype(node.inputs[0])[1]
                w_dtype = self._ref_shape_dtype(node.inputs[1])[1]
                if np.result_type(x_dtype, w_dtype) != node.out_dtype:
                    kind = "generic"
                else:
                    fuse = self._epilogue(
                        nodes, kinds, index, consumers, graph.output_vid
                    )
            before = len(self._steps)
            getattr(self, "_lower_" + kind)(index, node, **fuse)
            chain = [node, *fuse.values()]
            end = index + len(chain) - 1
            num_stages += 1
            fused += end > index
            if self.profile is not None or self._renderer is not None:
                label = "+".join(_label(n) for n in chain)
                self._note(before, "fwd:" + label if self._BACKWARD else label)
            for pos in range(index, end + 1):
                self._mem.advance(pos)
            index = end + 1

        backward_stages = self._lower_backward(nodes, kinds)

        out_fixed = self._fixed.get(graph.output_vid)
        if out_fixed is not None:
            self._fetch_output = lambda: out_fixed
        else:
            slots, ovid = self._slots, graph.output_vid
            self._fetch_output = lambda: slots[ovid]

        arena = self._mem.arena
        self.stats = PlanStats(
            num_ops=num,
            num_stages=num_stages,
            fused_stages=fused,
            backward_stages=backward_stages,
            skipped_backward=num - backward_stages,
            arena_blocks=len(arena.blocks),
            arena_bytes=arena.total_bytes,
            requested_bytes=arena.requested_bytes,
            workspace_bytes=self._workspace,
        )
        # compile-time state only: replay closures captured what they need
        del self._mem, self._saved, self._workspace, self._shapes, self._dtypes

    def _epilogue(self, nodes, kinds, index, consumers,
                  output_vid) -> Dict[str, OpNode]:
        """The eval-BN/ReLU nodes that fuse behind the GEMM at ``index``.

        BN fuses behind conv only (BatchNorm1d after Linear would need a
        2-D epilogue).  A node fuses when it is the sole consumer of the
        chain's tail, the tail is not the plan output, and dtypes agree.
        """
        fuse: Dict[str, OpNode] = {}
        tail, scan = nodes[index], index + 1
        for kind in ("bn", "relu"):
            if kind == "bn" and kinds[index] != "conv":
                continue
            if (
                scan < len(nodes)
                and kinds[scan] == kind
                and _consumes(nodes[scan], tail.out_vid)
                and consumers.get(tail.out_vid, 0) == 1
                and tail.out_vid != output_vid
                and nodes[scan].out_dtype == tail.out_dtype
            ):
                tail = fuse[kind + "_node"] = nodes[scan]
                scan += 1
        return fuse

    def _inplace_target(self, index: int, node: OpNode,
                        refs) -> Optional[np.ndarray]:
        """A dying input buffer the stage may overwrite (no backward only:
        the backward reads forward values)."""
        if self._BACKWARD:
            return None
        for ref in refs:
            if (
                isinstance(ref, ValueRef)
                and self._mem.sole_owner(ref.vid, index)
                and self._fixed.get(ref.vid) is not None
                and self._shapes[ref.vid] == node.out_shape
                and self._dtypes[ref.vid] == node.out_dtype
            ):
                buf = self._fixed[ref.vid]
                self._alias(node.out_vid, buf, ref.vid)
                return buf
        return None

    # -- forward stage builders ----------------------------------------
    def _lower_conv(self, index, node, bn_node=None, relu_node=None):
        x_ref = node.inputs[0]
        x_shape, x_dtype = self._ref_shape_dtype(x_ref)
        weight = node.inputs[1].tensor
        bias_ref = node.inputs[2]
        bias = bias_ref.tensor if isinstance(bias_ref, ConstRef) else None
        stride = _pair(node.inputs[3])
        padding = _pair(node.inputs[4])

        geo = lower_conv(
            x_shape, weight.shape, stride, padding, node.out_dtype, x_dtype
        )
        n, c = geo.n, geo.c
        f_out, p_total, k_total = geo.f_out, geo.p_total, geo.k_total
        identity_cols = geo.identity_cols
        padded, core, cols, flat = geo.padded, geo.core, geo.cols, geo.flat
        self._workspace += geo.workspace_nbytes
        self._saved[index] = geo

        out_vid = (relu_node or bn_node or node).out_vid
        out3 = self._mem.alloc(out_vid, (n, f_out, p_total), geo.compute_dtype)
        self._fixed[out_vid] = out3.reshape(n, f_out, geo.out_h, geo.out_w)

        get_x = self._getter(x_ref)
        bn_module = bn_node.module if bn_node is not None else None
        fuse_relu = relu_node is not None
        lap = self._lap

        def run():
            x = get_x()
            if padded is not None:
                core[...] = x
                np.take(padded.reshape(n, -1), flat, axis=1, out=cols,
                        mode="clip")
                cc = cols
            elif identity_cols:
                cc = x.reshape(n, c, p_total)
            else:
                np.take(x.reshape(n, -1), flat, axis=1, out=cols,
                        mode="clip")
                cc = cols
            lap("im2col")
            np.matmul(weight.data.reshape(f_out, k_total), cc, out=out3)
            lap("gemm")
            if bias is not None:
                np.add(out3, bias.data.reshape(1, -1, 1), out=out3)
            if bn_module is not None:
                _bn_epilogue(out3, bn_module, n)
            if fuse_relu:
                np.maximum(out3, 0.0, out=out3)
            lap("epilogue")

        self._offer(
            "conv",
            dict(
                geo=geo, x_src=self._render_source(x_ref), weight=weight,
                bias=bias, bn_module=bn_module, relu=fuse_relu, out3=out3,
            ),
            run,
        )

    def _lower_linear(self, index, node, relu_node=None):
        x_ref = node.inputs[0]
        x_shape, x_dtype = self._ref_shape_dtype(x_ref)
        weight = node.inputs[1].tensor
        bias_ref = node.inputs[2]
        bias = bias_ref.tensor if isinstance(bias_ref, ConstRef) else None

        out_vid = (relu_node or node).out_vid
        out2 = self._mem.alloc(out_vid, node.out_shape, node.out_dtype)
        self._fixed[out_vid] = out2

        get_x = self._getter(x_ref)
        fuse_relu = relu_node is not None
        lap = self._lap

        def run():
            np.matmul(get_x(), weight.data.T, out=out2)
            lap("gemm")
            if bias is not None:
                np.add(out2, bias.data, out=out2)
            if fuse_relu:
                np.maximum(out2, 0.0, out=out2)
            lap("epilogue")

        self._offer(
            "linear",
            dict(
                x_src=self._render_source(x_ref), x_shape=x_shape,
                x_dtype=x_dtype, out_dtype=node.out_dtype, weight=weight,
                bias=bias, relu=fuse_relu, out2=out2,
            ),
            run,
        )

    def _lower_maxpool(self, index, node):
        x_ref = node.inputs[0]
        x_shape, x_dtype = self._ref_shape_dtype(x_ref)
        kernel = _pair(node.inputs[1])
        stride = _pair(node.inputs[2] if node.inputs[2] is not None else kernel)
        padding = _pair(node.inputs[3])

        geo = lower_pool(
            x_shape, node.out_shape, kernel, stride, padding, x_dtype
        )
        n, c, h, w = geo.n, geo.c, geo.h, geo.w
        p_total = geo.p_total
        padded, core, cols, flat = geo.padded, geo.core, geo.cols, geo.flat
        self._workspace += geo.workspace_nbytes
        arg = None
        if self._BACKWARD:
            # the backward routes each window's gradient to its argmax
            arg = self._mem.alloc(("arg", index), (n * c, p_total), np.intp)
            self._saved[index] = (geo, arg)

        out4 = self._mem.alloc(node.out_vid, node.out_shape, node.out_dtype)
        out2 = out4.reshape(n * c, p_total)
        self._fixed[node.out_vid] = out4
        get_x = self._getter(x_ref)

        def run():
            x = get_x()
            if padded is not None:
                core[...] = x.reshape(n * c, h, w)
                np.take(padded.reshape(n * c, -1), flat, axis=1, out=cols,
                        mode="clip")
            else:
                np.take(x.reshape(n * c, -1), flat, axis=1, out=cols,
                        mode="clip")
            if arg is not None:
                np.argmax(cols, axis=1, out=arg)
            np.max(cols, axis=1, out=out2)

        self._offer(
            "maxpool",
            dict(
                geo=geo, x_src=self._render_source(x_ref),
                out_dtype=node.out_dtype, out2=out2, arg=arg,
            ),
            run,
        )

    def _elementwise_out(self, index, node, refs) -> np.ndarray:
        out = self._inplace_target(index, node, refs)
        if out is None:
            out = self._mem.alloc(node.out_vid, node.out_shape, node.out_dtype)
            self._fixed[node.out_vid] = out
        return out

    def _lower_unary(self, index, node):
        kind = _kind(node)
        x_ref = node.inputs[0]
        out = self._elementwise_out(index, node, (x_ref,))
        get_x = self._getter(x_ref)
        if kind == "relu":
            run = lambda: np.maximum(get_x(), 0.0, out=out)  # noqa: E731
        else:
            ufunc = np.exp if kind == "exp" else np.negative
            run = lambda: ufunc(get_x(), out=out)  # noqa: E731
        self._offer(
            kind,
            dict(x_src=self._render_source(x_ref), out=out,
                 dtype=node.out_dtype),
            run,
        )

    _lower_relu = _lower_exp = _lower_neg = _lower_unary

    def _lower_binary(self, index, node):
        kind = _kind(node)
        a_ref, b_ref = node.inputs[0], node.inputs[1]
        out = self._elementwise_out(index, node, (a_ref, b_ref))
        get_a, get_b = self._getter(a_ref), self._getter(b_ref)
        ufunc = np.add if kind == "add" else np.multiply
        self._offer(
            kind,
            dict(
                a_src=self._render_source(a_ref),
                b_src=self._render_source(b_ref),
                a_shape=self._ref_shape_dtype(a_ref)[0],
                b_shape=self._ref_shape_dtype(b_ref)[0],
                out_shape=node.out_shape, out=out, dtype=node.out_dtype,
            ),
            lambda: ufunc(get_a(), get_b(), out=out),
        )

    _lower_add = _lower_mul = _lower_binary

    def _lower_view(self, index, node):
        src = node.inputs[0]
        if _kind(node) == "reshape":
            param = node.kwargs["shape"]
            transform = lambda a: a.reshape(param)  # noqa: E731
        else:
            param = node.kwargs["axes"]
            transform = lambda a: np.transpose(a, param)  # noqa: E731
        if isinstance(src, ValueRef):
            fixed = self._fixed.get(src.vid)
            if fixed is not None:
                view = transform(fixed)
                # reshape of a non-contiguous view COPIES: freezing that
                # copy would replay stale data, so only precompute when
                # the result genuinely aliases the live buffer
                if np.shares_memory(view, fixed):
                    self._alias(node.out_vid, view, src.vid)
                    return  # pure view of a fixed buffer: zero replay cost
        self._lower_dynamic_view(node, transform)

    _lower_reshape = _lower_transpose = _lower_view

    def _lower_dynamic_view(self, node, transform):
        get_src = self._getter(node.inputs[0])
        slots, vid = self._slots, node.out_vid

        def run():
            slots[vid] = transform(get_src())

        self._steps.append(run)

    # -- replay ---------------------------------------------------------
    def _replay(self, x: np.ndarray):
        if x.shape != self._input_shape:
            raise ValueError(
                f"{self._NOUN} compiled for input {self._input_shape}, "
                f"got {x.shape}"
            )
        if self._pre_replay is not None:
            x = self._pre_replay(x)
        self._input_cell[0] = x
        if self.profile is not None:
            self.profile.runs += 1
        for step in self._steps:
            step()
        return self._fetch_output()

    def profile_summary(self) -> Optional[Dict[str, object]]:
        """Per-op timing plus arena byte counters.

        ``None`` unless the plan was compiled with ``profile=True``.
        """
        if self.profile is None:
            return None
        out = self.profile.summary()
        out["arena_bytes"] = self.stats.arena_bytes
        out["requested_bytes"] = self.stats.requested_bytes
        out["workspace_bytes"] = self.stats.workspace_bytes
        return out


class ExecutionPlan(_Plan):
    """Executable form of one traced forward at one input shape.

    ``run`` returns a view into plan-owned storage: the contents are
    overwritten by the next ``run`` call, so copy if you need to keep a
    result across frames (serving loops decode immediately and don't).

    ``renderer`` (optional) is a codegen backend's stage renderer: every
    lowered stage is *offered* to it along with the numpy closure; at the
    end of compilation its ``finalize`` replaces accepted stages with
    compiled-kernel calls (declined or parity-demoted stages keep their
    numpy closures, so fallback is per-stage and structural).
    """

    _LOWERED = frozenset(
        ("bn", "conv", "linear", "maxpool", "relu", "add", "reshape",
         "transpose")
    )

    def _lower_bn(self, index, node):
        """Standalone eval-mode BN (not behind a conv): literal eager math.

        Never offered to a renderer: the numpy path allocates fresh
        output arrays into dynamic slots, and rendering it would change
        the fallback's allocation semantics — structural parity keeps
        this stage on the oracle path.
        """
        module = node.module
        get_x = self._getter(node.inputs[0])
        slots, vid = self._slots, node.out_vid

        def run():
            x = get_x()
            if module.training:
                raise RuntimeError(
                    "compiled plan replayed with a BatchNorm layer in "
                    "training mode; adaptation steps must use the eager path"
                )
            if x.ndim == 4:
                stat_shape = (1, x.shape[1], 1, 1)
            else:
                stat_shape = (1, x.shape[1])
            ps = module.per_sample_stats
            if ps is not None:
                scale, shift = ps
                shape = (x.shape[0], x.shape[1]) + (1,) * (x.ndim - 2)
                slots[vid] = x * scale.reshape(shape) + shift.reshape(shape)
                return
            mean = module.running_mean.reshape(stat_shape)
            var = module.running_var.reshape(stat_shape)
            inv_std = 1.0 / np.sqrt(var + module.eps)
            x_hat = (x - mean) * inv_std
            gamma = module.weight.data.reshape(stat_shape)
            beta = module.bias.data.reshape(stat_shape)
            slots[vid] = (gamma * x_hat + beta).astype(x.dtype, copy=False)

        self._steps.append(run)

    def _lower_generic(self, index, node):
        """Fallback: re-run the op's forward with a throwaway context."""
        fn = node.function
        getters = [self._getter(ref) for ref in node.inputs]
        kwargs = node.kwargs
        slots, vid = self._slots, node.out_vid

        def run():
            ctx = Context(fn, ())
            slots[vid] = fn.forward(ctx, *[g() for g in getters], **kwargs)

        self._steps.append(run)
        # the output may be a view of any tensor input: never recycle
        # their buffers under it
        for ref in node.inputs:
            if isinstance(ref, ValueRef):
                self._mem.pin(ref.vid)

    def run(self, x: np.ndarray) -> np.ndarray:
        return self._replay(x)
