"""Host-time spans around the calls into each layer of ``repro``.

The program itself carries no host-time instrumentation, so the traced
run patches wrappers onto the public entry points of every layer for
the duration of a traced scope and restores the originals afterwards.
Untraced runs never see a wrapper.

A span records its inclusive duration and its self time (duration minus
the time its wrapped children took).  Layer names are the package's
module names (``engine``, ``adapt``, ``serve``, ``hw``, ``data``,
``models``, ``metrics``, ``pipeline``, ``nn``); a span key is
``<layer>.<entry>``.

Besides timing, a wrapper can inject a busy-wait delay into one span key.
The self-tests use that to prove a one-layer slowdown is visible.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter


class Ledger:
    """Per-span-key call counts, busy/self seconds, durations, counters."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, float] = defaultdict(float)


class Tracer:
    """Span stack plus the ledgers currently recording.

    ``ledgers`` is empty outside traced scopes; wrappers then only apply
    an injected delay (if any) and call through.
    """

    def __init__(self, delays: Optional[Dict[str, float]] = None) -> None:
        self.delays: Dict[str, float] = dict(delays or {})
        self.ledgers: List[Ledger] = []
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = defaultdict(int)

    def span(self, key: str, fn: Callable, args, kwargs, hook=None,
             before=None):
        delay = self.delays.get(key, 0.0)
        if not self.ledgers:
            if delay:
                spin(delay)
            return fn(*args, **kwargs)
        cell = [0.0]
        self._stack.append(cell)
        self._depth[key] += 1
        state = before(args) if before is not None else None
        t0 = perf_counter()
        try:
            if delay:
                spin(delay)
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            self._depth[key] -= 1
            if self._stack:
                self._stack[-1][0] += dur
        own = dur - cell[0]
        outermost = self._depth[key] == 0
        for ledger in self.ledgers:
            ledger.self_s[key] += own
            if outermost:  # recursion into the same key counts once
                ledger.calls[key] += 1
                ledger.busy[key] += dur
                ledger.durations[key].append(dur)
            if hook is not None:
                hook(ledger, args, result, own, state)
        return result


def spin(seconds: float) -> None:
    """Busy-wait, so an injected delay costs CPU like a real slowdown."""
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


# ----------------------------------------------------------------------
# per-call counts, measured where the work happens.  A hook is called as
# ``hook(ledger, args, result, own, before)``; ``before`` is what the
# optional ``before(args)`` of the target returned.
def _rows(ledger, args, result, own, before):
    ledger.counters["engine.infer_rows"] += args[1].shape[0]


def _groups(ledger, args, result, own, before):
    ledger.counters["engine.adapt_groups"] += args[0].groups


def _num_plans(args):
    return args[0].num_plans


def _compiled(ledger, args, result, own, before):
    """A plan lookup that grew the cache traced and compiled a plan."""
    grown = args[0].num_plans - before
    if grown:
        ledger.counters["engine.plans_compiled"] += grown
        ledger.counters["engine.compile_s"] += own
        if getattr(args[0].backend, "name", "").startswith("cgen"):
            ledger.counters["engine.so_lookups"] += grown


def _batch(ledger, args, result, own, before):
    ledger.counters["serve.batch_rows"] += args[1].batch_size


def _admit(ledger, args, result, own, before):
    ledger.counters["serve.admit_candidates"] += len(result)
    ledger.counters["serve.admit_grants"] += sum(bool(g) for g in result)


def _checkpoint(ledger, args, result, own, before):
    if result:
        store, session = args[0], args[1]
        ledger.counters["serve.ckpt_writes"] += result
        try:
            size = os.path.getsize(store.path_for(session.stream_id))
        except OSError:
            size = 0
        ledger.counters["serve.ckpt_bytes"] += size


def _restore(ledger, args, result, own, before):
    if result is not None:
        ledger.counters["serve.restores"] += 1


def _drift_reset(ledger, args, result, own, before):
    ledger.counters["serve.drift_resets"] += 1


def _render(ledger, args, result, own, before):
    ledger.counters["data.frames_rendered"] += 1


def _targets():
    """(owner, attribute, span key, hook, before) per wrapped entry point.

    An owner is a class (the method is patched on it) or a function
    (patched wherever a ``repro`` module binds it by name).
    """
    from repro.adapt.bn_adapt import LDBNAdapt
    from repro.data.dataset import ScenarioStream
    from repro.engine import (
        AdaptationPlan,
        CompiledAdaptStep,
        CompiledInference,
        ExecutionPlan,
    )
    from repro.hw.roofline import batched_inference_latency_ms, ld_bn_adapt_latency
    from repro.metrics.lane_accuracy import point_accuracy
    from repro.models.ufld import decode_predictions
    from repro.nn.optim import SGD, Adam, sgd_update
    from repro.pipeline.realtime import RealTimePipeline
    from repro.serve.adapt_batch import StagedGroupStep
    from repro.serve.admission import SlackAdmission
    from repro.serve.checkpoint import SessionCheckpointStore
    from repro.serve.drift import SessionDriftState
    from repro.serve.pool import DeviceWorker
    from repro.serve.scheduler import DeadlineAwareScheduler
    from repro.serve.server import FleetServer

    return [
        (ExecutionPlan, "run", "engine.infer", _rows, None),
        (AdaptationPlan, "run", "engine.adapt", _groups, None),
        (CompiledInference, "__call__", "engine.lookup", _compiled, _num_plans),
        (CompiledInference, "warm", "engine.lookup", _compiled, _num_plans),
        (CompiledAdaptStep, "plan_for", "engine.lookup", _compiled, _num_plans),
        (LDBNAdapt, "adapt", "adapt.step", None, None),
        (SGD, "step", "nn.optim", None, None),
        (Adam, "step", "nn.optim", None, None),
        (sgd_update, None, "nn.optim", None, None),
        (FleetServer, "run", "serve.coordinator", None, None),
        (FleetServer, "_maybe_migrate", "serve.migration", None, None),
        (DeviceWorker, "serve_batch", "serve.batch", _batch, None),
        (SlackAdmission, "admit", "serve.admit", _admit, None),
        (DeadlineAwareScheduler, "next_batch", "serve.schedule", None, None),
        (StagedGroupStep, "execute", "serve.fused", None, None),
        (SessionCheckpointStore, "observe", "serve.ckpt", _checkpoint, None),
        (SessionCheckpointStore, "checkpoint", "serve.ckpt", _checkpoint, None),
        (SessionCheckpointStore, "restore", "serve.restore", _restore, None),
        (SessionDriftState, "observe", "serve.drift", None, None),
        (SessionDriftState, "reset", "serve.drift", _drift_reset, None),
        (ld_bn_adapt_latency, None, "hw.pricing", None, None),
        (batched_inference_latency_ms, None, "hw.pricing", None, None),
        (decode_predictions, None, "models.decode", None, None),
        (point_accuracy, None, "metrics.accuracy", None, None),
        (RealTimePipeline, "run", "pipeline.run", None, None),
        (ScenarioStream, "__next__", "data.render", _render, None),
    ]


def _wrapper(tracer: Tracer, key: str, fn: Callable, hook, before) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.span(key, fn, args, kwargs, hook, before)

    return wrapped


class Patches:
    """Install the wrappers on entry, restore every original on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[tuple] = []

    def __enter__(self) -> "Patches":
        try:
            for owner, attr, key, hook, before in _targets():
                if attr is not None:
                    original = owner.__dict__[attr]
                    setattr(owner, attr,
                            _wrapper(self.tracer, key, original, hook, before))
                    self._undo.append((owner, attr, original))
                    continue
                wrapped = _wrapper(self.tracer, key, owner, hook, before)
                for name, module in list(sys.modules.items()):
                    if module is None or not (
                        name == "repro" or name.startswith("repro.")
                    ):
                        continue
                    for attr_name, value in list(vars(module).items()):
                        if value is owner:
                            setattr(module, attr_name, wrapped)
                            self._undo.append((module, attr_name, owner))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Recording:
    """Make ``ledgers`` record for the duration of a ``with`` block."""

    def __init__(self, tracer: Tracer, *ledgers: Ledger) -> None:
        self.tracer = tracer
        self.ledgers = ledgers

    def __enter__(self) -> None:
        self.tracer.ledgers.extend(self.ledgers)

    def __exit__(self, *exc) -> None:
        for ledger in self.ledgers:
            self.tracer.ledgers.remove(ledger)
