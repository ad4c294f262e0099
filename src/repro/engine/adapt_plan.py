"""The LD-BN-ADAPT entropy step as a replayable static plan.

The adaptation hot path is one train-mode forward (BatchNorm normalizing
with live batch statistics), the Shannon-entropy loss, and a backward
pass restricted to BN gamma/beta.  :class:`AdaptationPlan` lowers the
traced step (:func:`repro.engine.tracer.trace_entropy_step`) through the
same lowering pass as inference (:mod:`repro.engine.plan`): the forward
stages are the inference builders without fusion or in-place writes, and
this module adds what only a program with a backward needs:

* train-mode BN stages that save ``x_hat`` and publish their batch
  statistics and gradients through :class:`BNLayerTap`;
* the loss as one mean entropy per group;
* the backward program, pruned to the gradient paths that actually reach
  a BN gamma/beta — conv/linear weight gradients and the gradient into
  the stem conv are never computed.  Its stages are appended to the same
  step list as the forward, and its saved buffers (``x_hat``, pool
  argmax, ReLU masks) and gradients share the forward's arena through the
  one liveness pass.

Every kernel replays the eager op sequence on the same values in the
same order, so gradients match the autograd oracle, and no autograd
``Context`` or ``Tensor`` is allocated anywhere on the replay path.

**Grouped replay** is the fleet-batching mechanism: with ``groups=G`` the
batch axis is split into G contiguous groups of equal size, every
BatchNorm normalizes each group with that group's own batch statistics
and per-group gamma/beta (read from plan-input *slots*), and the loss is
one mean entropy per group.  A single grouped replay therefore equals G
independent serial adaptation steps — one per stream — sharing every
GEMM.  With ``groups=1`` gamma/beta are read live from the model's BN
modules and the plan is the single-stream compiled step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..nn.modules import _BatchNormBase
from .plan import _Plan, _kind
from .tracer import OpNode, TraceGraph, ValueRef


# arena buffers keyed (name, node index): what a forward stage saves for
# its backward, and the scratch a backward stage allocates
_SAVED = {"bn": ("xh",), "logsoftmax": ("ls",), "maxpool": ("arg",)}
_BWD_SCRATCH = {
    "conv": ("gcols", "gpad"),
    "maxpool": ("gcols", "gpad"),
    "relu": ("mask",),
}


class UnsupportedAdaptGraph(RuntimeError):
    """The traced step contains an op the adaptation plan cannot lower.

    Callers fall back to the eager autograd step (which handles every
    op); the compiled path only ever covers graphs it can replay exactly.
    """


@dataclass
class BNLayerTap:
    """Plan inputs/outputs of one BatchNorm layer, in execution order.

    ``gamma_slot``/``beta_slot`` are ``(G, C)`` parameter inputs read at
    every replay — the fleet batcher fills row ``g`` with stream ``g``'s
    adapted gamma/beta.  With ``groups == 1`` they are None and the plan
    reads the live module parameters instead (so single-stream LD-BN-ADAPT
    updates are visible without refilling anything).  After ``run``:

    * ``grad_gamma``/``grad_beta`` hold the entropy gradients, ``(G, C)``;
    * ``batch_mean``/``batch_var`` hold the per-group batch statistics the
      forward normalized with — exactly what the statistics-refresh step
      persists into the running buffers.
    """

    module: _BatchNormBase
    gamma_slot: Optional[np.ndarray]
    beta_slot: Optional[np.ndarray]
    grad_gamma: np.ndarray
    grad_beta: np.ndarray
    batch_mean: np.ndarray
    batch_var: np.ndarray


class AdaptationPlan(_Plan):
    """Executable entropy step at one (input shape, group count).

    ``run(x)`` replays the compiled forward, computes the loss, replays
    the pruned backward, and returns the per-group losses ``(G,)``.
    Gradients and batch statistics are left in the :class:`BNLayerTap`
    buffers (overwritten by the next ``run``).
    """

    # every op with a lowered backward; anything else (transpose,
    # generic ops) raises UnsupportedAdaptGraph
    _LOWERED = frozenset(
        ("bn", "conv", "linear", "maxpool", "relu", "logsoftmax", "add",
         "mul", "exp", "neg", "sum", "mean", "reshape")
    )
    _BACKWARD = True
    _NOUN = "adaptation plan"

    def __init__(self, graph: TraceGraph, groups: int = 1,
                 profile: bool = False, renderer=None):
        batch = graph.input_shape[0]
        if groups < 1 or batch % groups:
            raise ValueError(
                f"groups={groups} must divide the traced batch size {batch}"
            )
        self.groups = groups
        self.group_size = batch // groups
        self._grads: Dict[int, np.ndarray] = {}
        self.bn_taps: List[BNLayerTap] = []
        super().__init__(graph, profile=profile, renderer=renderer)

    # ------------------------------------------------------------------
    # the backward program
    # ------------------------------------------------------------------
    def _stage_kind(self, node: OpNode) -> str:
        kind = _kind(node)
        if kind not in self._LOWERED:
            raise UnsupportedAdaptGraph(
                f"op {node.function.__name__} has no adaptation-plan "
                f"lowering; use the eager step"
            )
        return kind

    def _plan_backward(self, graph: TraceGraph, kinds: List[str]) -> int:
        nodes = graph.nodes
        num = len(nodes)
        loss_vid = graph.output_vid
        loss_node = nodes[-1]
        if (
            loss_node.out_vid != loss_vid
            or kinds[-1] != "mean"
            or loss_node.kwargs.get("axis") is not None
        ):
            raise UnsupportedAdaptGraph(
                "adaptation plan requires the trace to end in a global "
                "mean loss (entropy_loss does)"
            )
        # carries: the value's producing subgraph contains a train-mode BN,
        # i.e. a gradient flowing into it can still reach some gamma/beta.
        carries: set = set()
        for node in nodes:
            if node.train_bn:
                carries.add(node.out_vid)
            elif any(
                isinstance(r, ValueRef) and r.vid in carries
                for r in node.inputs
            ):
                carries.add(node.out_vid)
        # reaches: the value feeds the loss (live branch of the trace)
        reaches = {loss_vid}
        for node in reversed(nodes):
            if node.out_vid in reaches:
                for r in node.inputs:
                    if isinstance(r, ValueRef):
                        reaches.add(r.vid)
        self._grad_vids = {v for v in carries if v in reaches}
        # a node emits a backward stage when its output gradient exists
        # (the loss node seeds instead of consuming a gradient)
        self._has_bwd = [
            node.out_vid in self._grad_vids or node.out_vid == loss_vid
            for node in nodes
        ]
        self._written: Dict[int, bool] = {}
        return 2 * num

    def _bwd_pos(self, index: int) -> int:
        return 2 * len(self._has_bwd) - 1 - index

    def _grad_inputs(self, node: OpNode) -> List[int]:
        """The inputs of ``node`` that receive gradient contributions."""
        return [
            r.vid
            for r in node.inputs
            if isinstance(r, ValueRef) and r.vid in self._grad_vids
        ]

    def _backward_uses(self, index: int, node: OpNode, kind: str,
                       use) -> None:
        has_bwd = self._has_bwd[index]
        pos = self._bwd_pos(index) if has_bwd else index
        if has_bwd:
            if kind in ("relu", "logsoftmax", "exp"):
                use(node.out_vid, pos)
            elif kind == "mul":
                for r in node.inputs:
                    if isinstance(r, ValueRef):
                        use(r.vid, pos)
        for name in _SAVED.get(kind, ()):
            use((name, index), pos)
        if has_bwd:
            for name in _BWD_SCRATCH.get(kind, ()):
                use((name, index), pos)
        # a gradient buffer is born at the backward stage of its latest
        # consumer and dies at the backward stage of its producer
        if node.out_vid in self._grad_vids:
            use(("g", node.out_vid), pos)

    def _lower_backward(self, nodes: List[OpNode], kinds: List[str]) -> int:
        emitted = 0
        for index in range(len(nodes) - 1, -1, -1):
            if self._has_bwd[index]:
                node, kind = nodes[index], kinds[index]
                grad_in = self._grad_inputs(node)
                # BN always emits: its own gamma/beta gradients are the
                # point, whether or not anything upstream needs one
                if grad_in or kind == "bn":
                    before = len(self._steps)
                    getattr(self, f"_bwd_{kind}")(node, index, grad_in)
                    self._note(before, f"bwd:{kind}")
                emitted += 1
            self._mem.advance(self._bwd_pos(index))
        return emitted

    # ------------------------------------------------------------------
    # adaptation-only forward stage builders
    # ------------------------------------------------------------------
    def _lower_dynamic_view(self, node, transform):
        raise UnsupportedAdaptGraph(
            "reshape in an adaptation trace must be a view of an activation"
        )

    def _lower_sum(self, index, node):
        axis = node.kwargs.get("axis")
        keepdims = node.kwargs.get("keepdims", False)
        if not isinstance(axis, int):
            raise UnsupportedAdaptGraph("sum lowering supports a single axis")
        out = self._mem.alloc(node.out_vid, node.out_shape, node.out_dtype)
        self._fixed[node.out_vid] = out
        get_x = self._getter(node.inputs[0])
        self._saved[index] = (axis, keepdims)
        self._steps.append(
            lambda: np.sum(get_x(), axis=axis, keepdims=keepdims, out=out)
        )

    def _lower_mean(self, index, node):
        # only emitted for the final global-mean loss (validated upfront):
        # lowered as one mean per group so a grouped replay returns each
        # stream's own loss
        in_shape, _ = self._ref_shape_dtype(node.inputs[0])
        groups = self.groups
        per_group = int(np.prod(in_shape)) // groups
        out = np.empty((groups,), dtype=node.out_dtype)
        self._fixed[node.out_vid] = out
        get_x = self._getter(node.inputs[0])
        self._saved[index] = per_group
        self._steps.append(
            lambda: np.mean(get_x().reshape(groups, per_group), axis=1, out=out)
        )

    def _lower_logsoftmax(self, index, node):
        axis = node.inputs[1]
        out = self._mem.alloc(node.out_vid, node.out_shape, node.out_dtype)
        self._fixed[node.out_vid] = out
        scratch = self._mem.alloc(("ls", index), node.out_shape,
                                  node.out_dtype)
        get_x = self._getter(node.inputs[0])
        self._saved[index] = (axis, scratch)

        def run():
            x = get_x()
            mx = x.max(axis=axis, keepdims=True)
            np.subtract(x, mx, out=out)  # shifted
            np.exp(out, out=scratch)
            s = scratch.sum(axis=axis, keepdims=True)
            np.log(s, out=s)
            np.subtract(out, s, out=out)

        self._steps.append(run)

    def _lower_bn(self, index, node):
        if not node.train_bn:
            raise UnsupportedAdaptGraph(
                "eval-mode BN inside an adaptation trace"
            )
        module = node.module
        x_ref = node.inputs[0]
        x_shape, _ = self._ref_shape_dtype(x_ref)
        groups, group_size = self.groups, self.group_size
        c = module.num_features
        if x_shape[0] != groups * group_size:
            raise UnsupportedAdaptGraph("BN input batch does not match groups")
        if len(x_shape) == 4:
            gshape = (groups, group_size, c, x_shape[2], x_shape[3])
            axes = (1, 3, 4)
            pshape = (groups, 1, c, 1, 1)
        elif len(x_shape) == 2:
            gshape = (groups, group_size, c)
            axes = (1,)
            pshape = (groups, 1, c)
        else:  # pragma: no cover - BN accepts 2-D/4-D only
            raise UnsupportedAdaptGraph(f"BN on {len(x_shape)}-D input")
        m = float(group_size * int(np.prod(x_shape[2:], dtype=np.int64)))
        eps = module.eps

        out = self._mem.alloc(node.out_vid, node.out_shape, node.out_dtype)
        xhat = self._mem.alloc(("xh", index), node.out_shape, node.out_dtype)
        # inv_std persists in a plan-owned buffer (not a per-run
        # temporary): the rendered backward reads it through a pointer
        # fixed at compile time.  Tiny — (G, C) per BN layer.
        inv_std = np.empty((groups, c), dtype=node.out_dtype)
        inv5 = inv_std.reshape(pshape)
        if groups > 1:
            # ones/zeros (the BN identity), not np.empty: the backend
            # parity probe replays the traced example before the fleet
            # fills the slots, and garbage would make probes flaky
            gamma_slot = np.ones((groups, c), dtype=np.float64)
            beta_slot = np.zeros((groups, c), dtype=np.float64)
            get_gamma = lambda: gamma_slot.reshape(pshape)  # noqa: E731
            get_beta = lambda: beta_slot.reshape(pshape)  # noqa: E731
        else:
            gamma_slot = beta_slot = None
            stat = (1, 1, c) + (1,) * (len(pshape) - 3)
            get_gamma = lambda: module.weight.data.reshape(stat)  # noqa: E731
            get_beta = lambda: module.bias.data.reshape(stat)  # noqa: E731
        tap = BNLayerTap(
            module=module,
            gamma_slot=gamma_slot,
            beta_slot=beta_slot,
            grad_gamma=np.empty((groups, c), dtype=np.float64),
            grad_beta=np.empty((groups, c), dtype=np.float64),
            batch_mean=np.empty((groups, c), dtype=np.float64),
            batch_var=np.empty((groups, c), dtype=np.float64),
        )
        self.bn_taps.append(tap)
        get_x = self._getter(x_ref)
        hw = int(np.prod(x_shape[2:], dtype=np.int64))
        self._saved[index] = dict(
            gshape=gshape, axes=axes, m=m, tap=tap, xhat=xhat,
            get_gamma=get_gamma, inv_std=inv_std, inv5=inv5, hw=hw,
            gamma_slot=gamma_slot, module=module,
        )

        def run():
            x5 = get_x().reshape(gshape)
            mean = x5.mean(axis=axes, keepdims=True)
            var = x5.var(axis=axes, keepdims=True)
            # same ufunc sequence as `1.0 / np.sqrt(var + eps)`, written
            # into the persistent buffer — bitwise identical values
            np.add(var, eps, out=inv5)
            np.sqrt(inv5, out=inv5)
            np.divide(1.0, inv5, out=inv5)
            xh5 = xhat.reshape(gshape)
            np.subtract(x5, mean, out=xh5)
            np.multiply(xh5, inv5, out=xh5)
            out5 = out.reshape(gshape)
            np.multiply(xh5, get_gamma(), out=out5)
            np.add(out5, get_beta(), out=out5)
            tap.batch_mean[...] = mean.reshape(groups, c)
            tap.batch_var[...] = var.reshape(groups, c)

        self._steps.append(run)
        self._fixed[node.out_vid] = out

    # ------------------------------------------------------------------
    # backward stage builders (emitted in reverse node order)
    # ------------------------------------------------------------------
    def _sink(self, vid: int):
        """(buffer, fresh) for one gradient contribution into ``vid``."""
        buf = self._grads.get(vid)
        if buf is None:
            buf = self._mem.alloc(("g", vid), self._shapes[vid],
                                  self._dtypes[vid])
            self._grads[vid] = buf
        fresh = not self._written.get(vid, False)
        self._written[vid] = True
        return buf, fresh

    def _contribute(self, vid, compute_fresh, compute_value, offer=None):
        """Emit one gradient contribution into ``vid``.

        ``compute_fresh(dst)`` writes the contribution with ``out=``;
        ``compute_value()`` returns it (used in accumulate mode, where the
        eager path also materializes a temporary before ``existing +
        grad``).  ``offer`` is an optional ``(kind, spec)`` renderer offer
        for the fresh-write form — the destination buffer is added to the
        spec once the sink fixes it.  Accumulating contributions are never
        offered (the rendered backward covers the reduced single-writer
        chain).
        """
        dst, fresh = self._sink(vid)
        if not fresh:
            self._steps.append(lambda: np.add(dst, compute_value(), out=dst))
            return
        fallback = lambda: compute_fresh(dst)  # noqa: E731
        if offer is None:
            self._steps.append(fallback)
        else:
            kind, spec = offer
            self._offer(kind, dict(spec, dst=dst), fallback)

    def _bwd_mean(self, node, index, grad_in):
        vid = grad_in[0]
        seed = 1.0 / self._saved[index]
        self._contribute(
            vid,
            lambda dst: dst.fill(seed),
            lambda: seed,
            offer=("fill", dict(value=seed, dtype=self._dtypes[vid])),
        )

    def _bwd_neg(self, node, index, grad_in):
        g = self._grads[node.out_vid]
        self._contribute(
            grad_in[0],
            lambda dst: np.negative(g, out=dst),
            lambda: -g,
        )

    def _bwd_sum(self, node, index, grad_in):
        g = self._grads[node.out_vid]
        axis, keepdims = self._saved[index]
        in_shape = self._shapes[grad_in[0]]
        axis_norm = axis % len(in_shape)

        def expanded():
            return g if keepdims else np.expand_dims(g, axis_norm)

        self._contribute(
            grad_in[0],
            lambda dst: np.copyto(dst, expanded()),
            expanded,
        )

    def _bwd_mul(self, node, index, grad_in):
        g = self._grads[node.out_vid]
        a_ref, b_ref = node.inputs[0], node.inputs[1]
        get_a, get_b = self._getter(a_ref), self._getter(b_ref)
        if isinstance(a_ref, ValueRef) and a_ref.vid in grad_in:
            self._contribute(
                a_ref.vid,
                lambda dst: np.multiply(g, get_b(), out=dst),
                lambda: g * get_b(),
            )
        if isinstance(b_ref, ValueRef) and b_ref.vid in grad_in:
            self._contribute(
                b_ref.vid,
                lambda dst: np.multiply(g, get_a(), out=dst),
                lambda: g * get_a(),
            )

    def _bwd_exp(self, node, index, grad_in):
        g = self._grads[node.out_vid]
        out = self._fixed[node.out_vid]
        self._contribute(
            grad_in[0],
            lambda dst: np.multiply(g, out, out=dst),
            lambda: g * out,
        )

    def _bwd_logsoftmax(self, node, index, grad_in):
        g = self._grads[node.out_vid]
        out = self._fixed[node.out_vid]
        axis, scratch = self._saved[index]

        def value():
            np.exp(out, out=scratch)  # softmax
            s = g.sum(axis=axis, keepdims=True)
            np.multiply(scratch, s, out=scratch)
            return scratch

        self._contribute(
            grad_in[0],
            lambda dst: np.subtract(g, value(), out=dst),
            lambda: g - value(),
        )

    def _bwd_reshape(self, node, index, grad_in):
        g = self._grads[node.out_vid]
        in_shape = self._shapes[grad_in[0]]

        def reshaped():
            return g.reshape(in_shape)

        self._contribute(
            grad_in[0],
            lambda dst: np.copyto(dst, reshaped()),
            reshaped,
            offer=("copy", dict(g=g, dtype=node.out_dtype)),
        )

    def _bwd_add(self, node, index, grad_in):
        g = self._grads[node.out_vid]
        for ref in node.inputs[:2]:
            if isinstance(ref, ValueRef) and ref.vid in grad_in:
                self._contribute(
                    ref.vid,
                    lambda dst: np.copyto(dst, g),
                    lambda: g,
                    offer=("copy", dict(g=g, dtype=node.out_dtype)),
                )

    def _bwd_relu(self, node, index, grad_in):
        g = self._grads[node.out_vid]
        out = self._fixed[node.out_vid]
        mask = self._mem.alloc(("mask", index), node.out_shape, np.bool_)

        def fresh(dst):
            np.greater(out, 0, out=mask)
            np.multiply(g, mask, out=dst)

        def value():
            np.greater(out, 0, out=mask)
            return g * mask

        self._contribute(
            grad_in[0], fresh, value,
            offer=("relu_bwd", dict(g=g, y=out, dtype=node.out_dtype)),
        )

    def _bwd_linear(self, node, index, grad_in):
        g = self._grads[node.out_vid]
        weight = node.inputs[1].tensor
        self._contribute(
            grad_in[0],
            lambda dst: np.matmul(g, weight.data, out=dst),
            lambda: g @ weight.data,
            offer=("linear_bwd", dict(
                g=g, weight=weight,
                g_shape=self._shapes[node.out_vid],
                fin=int(weight.shape[1]), dtype=node.out_dtype,
            )),
        )

    def _bwd_conv(self, node, index, grad_in):
        g4 = self._grads[node.out_vid]
        weight = node.inputs[1].tensor
        geo = self._saved[index]
        n, c, h, w = geo.n, geo.c, geo.h, geo.w
        padding = geo.padding
        k_total, p_total, f_out = geo.k_total, geo.p_total, geo.f_out
        dtype = node.out_dtype
        grad_cols = self._mem.alloc(("gcols", index), (n, k_total, p_total),
                                    dtype)
        identity = geo.identity_cols
        if not identity:
            k, i, j = geo.kij
            hp, wp = h + 2 * padding[0], w + 2 * padding[1]
            gpad = self._mem.alloc(("gpad", index), (n, c, hp, wp), dtype)
            inner = gpad[:, :, padding[0]:padding[0] + h,
                         padding[1]:padding[1] + w]

        def value():
            g_mat = g4.reshape(n, f_out, p_total)
            np.einsum(
                "fk,nfp->nkp", weight.data.reshape(f_out, k_total), g_mat,
                out=grad_cols, optimize=True,
            )
            if identity:
                return grad_cols.reshape(n, c, h, w)
            gpad.fill(0.0)
            np.add.at(gpad, (slice(None), k, i, j), grad_cols)
            return inner

        # only the 1x1 (identity-column) case renders: the scatter-add of
        # a strided kernel stays on numpy
        self._contribute(
            grad_in[0],
            lambda dst: np.copyto(dst, value()),
            value,
            offer=("conv_bwd", dict(
                g=g4, weight=weight, g_dims=(n, f_out, p_total),
                kt=k_total, dtype=dtype,
            )) if identity else None,
        )

    def _bwd_maxpool(self, node, index, grad_in):
        g4 = self._grads[node.out_vid]
        geo, arg = self._saved[index]
        n, c, h, w = geo.n, geo.c, geo.h, geo.w
        kernel, padding = geo.kernel, geo.padding
        h_eff, w_eff = geo.h_eff, geo.w_eff
        k, i, j = geo.kij
        p_total = geo.p_total
        dtype = node.out_dtype
        grad_cols = self._mem.alloc(
            ("gcols", index), (n * c, kernel[0] * kernel[1], p_total), dtype
        )
        gpad = self._mem.alloc(("gpad", index), (n * c, 1, h_eff, w_eff),
                               dtype)
        ph, pw = padding

        def value():
            g_flat = g4.reshape(n * c, -1)
            grad_cols.fill(0.0)
            np.put_along_axis(
                grad_cols, arg[:, None, :], g_flat[:, None, :], axis=1
            )
            gpad.fill(0.0)
            np.add.at(gpad, (slice(None), k, i, j), grad_cols)
            grad = gpad.reshape(n, c, h_eff, w_eff)
            if ph or pw:
                return grad[:, :, ph:ph + h, pw:pw + w]
            return grad

        self._contribute(
            grad_in[0],
            lambda dst: np.copyto(dst, value()),
            value,
        )

    def _bwd_bn(self, node, index, grad_in):
        g = self._grads[node.out_vid]
        cell = self._saved[index]
        gshape, axes, m = cell["gshape"], cell["axes"], cell["m"]
        tap, xhat = cell["tap"], cell["xhat"]
        get_gamma = cell["get_gamma"]
        inv5 = cell["inv5"]
        groups = self.groups
        c = tap.module.num_features

        def grads_gamma_beta():
            g5 = g.reshape(gshape)
            xh5 = xhat.reshape(gshape)
            tap.grad_gamma[...] = (
                (g5 * xh5).sum(axis=axes, keepdims=True).reshape(groups, c)
            )
            tap.grad_beta[...] = (
                g5.sum(axis=axes, keepdims=True).reshape(groups, c)
            )
            return g5, xh5

        gamma_src = (
            ("slot", cell["gamma_slot"]) if cell["gamma_slot"] is not None
            else ("module", cell["module"])
        )
        spec = dict(
            g=g, xhat=xhat, inv_std=cell["inv_std"],
            grad_gamma=tap.grad_gamma, grad_beta=tap.grad_beta,
            dims=(groups, self.group_size, c, cell["hw"]),
            m=m, gamma=gamma_src, dtype=node.out_dtype,
        )

        if grad_in:
            in_shape = self._shapes[grad_in[0]]

            def value():
                g5, xh5 = grads_gamma_beta()
                dx_hat = g5 * get_gamma()
                grad5 = (
                    inv5
                    / m
                    * (
                        m * dx_hat
                        - dx_hat.sum(axis=axes, keepdims=True)
                        - xh5 * (dx_hat * xh5).sum(axis=axes, keepdims=True)
                    )
                )
                return grad5.reshape(in_shape)

            self._contribute(
                grad_in[0],
                lambda dst: np.copyto(dst, value()),
                value,
                offer=("bn_bwd", spec),
            )
        else:
            # the first BN in the network: nothing upstream needs gradient
            self._offer("bn_bwd", spec, lambda: grads_gamma_beta())

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def run(self, x: np.ndarray) -> np.ndarray:
        """One compiled entropy step; returns per-group losses ``(G,)``.

        BN gradients and batch statistics are left in :attr:`bn_taps`
        (plan-owned buffers, overwritten by the next ``run``).
        """
        return self._replay(x)
