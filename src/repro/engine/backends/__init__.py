"""Plan backends: what executes the stages of the one lowering pass.

``numpy`` is the bit-exact closure oracle, ``cgen``/``cgen-strict``
render plans to a compiled C translation unit with per-stage numpy
fallback; every rendered stage is one single-threaded C function.  See
:mod:`repro.engine.backends.base` for the interface and registry,
:mod:`repro.engine.backends.core` for the shared arena/liveness/im2col
lowering machinery.
"""

from .base import (
    NumpyBackend,
    PlanBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from .cgen import PARITY_ATOL, PARITY_RTOL, CGenBackend, find_cc

__all__ = [
    "PlanBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "NumpyBackend",
    "CGenBackend",
    "PARITY_RTOL",
    "PARITY_ATOL",
    "find_cc",
]
