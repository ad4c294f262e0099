"""The ``plan -> backend`` interface: how traced graphs become plans.

A :class:`PlanBackend` lowers a traced graph (inference forward or
LD-BN-ADAPT entropy step) into an executable plan.  Every backend runs
the same lowering pass (:mod:`repro.engine.plan`: fusion scan, one
liveness/arena pass, im2col workspaces from
:mod:`repro.engine.backends.core`) and differs only in the stage
*renderer* it hands that pass:

* ``numpy`` (:class:`NumpyBackend`) — no renderer: the plan replays its
  numpy closures, bit-exact with the eager autograd path and therefore
  the correctness oracle for everything else.
* ``cgen`` / ``cgen-strict`` (:mod:`~repro.engine.backends.cgen`) — the
  plan rendered to one C translation unit, compiled at runtime and
  driven through ``ctypes``; unrenderable stages (or a missing compiler)
  fall back per stage to the numpy closures.

Backends are looked up by name through a registry so callers thread a
plain string (``FleetConfig(backend="cgen")``, ``--backend cgen``)
without importing backend modules.  ``resolve_backend(None)`` honours
the ``REPRO_BACKEND`` environment variable, defaulting to ``numpy``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List

_ENV_BACKEND = "REPRO_BACKEND"


class PlanBackend:
    """Lowers traced graphs to executable plans.

    Both plan kinds come from the one lowering pass; a backend only
    chooses the stage renderer (:meth:`renderer`) that pass offers every
    stage to.
    """

    name: str = "abstract"

    def renderer(self):
        """A fresh single-use stage renderer, or ``None`` for closures."""
        return None

    def compile_inference(self, graph, profile: bool = False):
        from ..plan import ExecutionPlan

        return ExecutionPlan(graph, profile=profile, renderer=self.renderer())

    def compile_adaptation(self, graph, groups: int = 1,
                           profile: bool = False):
        from ..adapt_plan import AdaptationPlan

        return AdaptationPlan(
            graph, groups=groups, profile=profile, renderer=self.renderer()
        )


class NumpyBackend(PlanBackend):
    """The numpy-closure plans: the bit-exactness oracle."""

    name = "numpy"


_REGISTRY: Dict[str, Callable[[], PlanBackend]] = {}
_INSTANCES: Dict[str, PlanBackend] = {}


def register_backend(name: str, factory: Callable[[], PlanBackend]) -> None:
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Registered backend names (registration order)."""
    return list(_REGISTRY)


def get_backend(name: str) -> PlanBackend:
    """Instantiate (once) and return the backend registered as ``name``."""
    backend = _INSTANCES.get(name)
    if backend is None:
        factory = _REGISTRY.get(name)
        if factory is None:
            raise ValueError(
                f"unknown plan backend {name!r}; "
                f"available: {', '.join(_REGISTRY)}"
            )
        backend = _INSTANCES[name] = factory()
    return backend


def resolve_backend(spec=None) -> PlanBackend:
    """Turn a backend spec into a :class:`PlanBackend` instance.

    ``None`` resolves the ``REPRO_BACKEND`` environment variable (default
    ``numpy``); a string goes through the registry; a backend instance
    passes through unchanged.
    """
    if spec is None:
        spec = os.environ.get(_ENV_BACKEND) or "numpy"
    if isinstance(spec, PlanBackend):
        return spec
    return get_backend(spec)


register_backend("numpy", NumpyBackend)
