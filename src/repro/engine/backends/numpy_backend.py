"""The numpy-closure backend: the engine's original lowering, as a backend.

This is the bit-exactness oracle — every stage issues the same numpy
kernels on the same buffers in the same order as the eager autograd
path.  The codegen backends compile through the *same* plan classes and
differ only in the renderer they pass, which is what makes their
per-stage fallback structural: a declined stage simply keeps the closure
this backend would have produced.
"""

from __future__ import annotations

from .base import PlanBackend, register_backend


class NumpyBackend(PlanBackend):
    name = "numpy"

    def compile_inference(self, graph, profile: bool = False):
        from ..plan import ExecutionPlan

        return ExecutionPlan(graph, profile=profile)

    def compile_adaptation(self, graph, groups: int = 1,
                           profile: bool = False):
        from ..adapt_plan import AdaptationPlan

        return AdaptationPlan(graph, groups=groups, profile=profile)


register_backend("numpy", NumpyBackend)
