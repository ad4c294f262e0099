"""Real-time deadline definitions and feasibility checks.

Two deadlines from the paper (Sec. IV):

* **33.3 ms** — the 30 FPS camera rate ("tight real-time performance
  constraints of up to 30 FPS");
* **55.5 ms** — 18 FPS, "similar to Audi A8 sedan with level 3 autonomous
  driving system".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple


DEADLINE_30FPS_MS = 1000.0 / 30.0  # 33.33 ms
DEADLINE_18FPS_MS = 1000.0 / 18.0  # 55.56 ms

NAMED_DEADLINES: Dict[str, float] = {
    "30fps": DEADLINE_30FPS_MS,
    "18fps_audi_a8": DEADLINE_18FPS_MS,
}


def meets_deadline(latency_ms: float, deadline_ms: float) -> bool:
    """True when a per-frame latency fits within the frame period."""
    if latency_ms < 0 or deadline_ms <= 0:
        raise ValueError("latencies and deadlines must be positive")
    return latency_ms <= deadline_ms


def deadline_slack_ms(latency_ms: float, deadline_ms: float) -> float:
    """Slack a frame finished with: ``deadline - latency`` (negative = miss).

    The quantity the fleet's admission controller watches — sustained low
    or negative slack means the device is hot and optional work (the
    adaptation step) should be shed.
    """
    if latency_ms < 0 or deadline_ms <= 0:
        raise ValueError("latencies and deadlines must be positive")
    return deadline_ms - latency_ms


def adaptation_budget_ms(
    batch_deadline_ms: float,
    inference_done_ms: float,
    headroom_ms: float = 0.0,
) -> float:
    """Time left for adaptation steps after a served batch's forward pass.

    ``batch_deadline_ms`` is the earliest absolute deadline in the batch
    and ``inference_done_ms`` the absolute clock at which the shared
    forward completes; whatever remains (minus a safety ``headroom_ms``)
    is the budget the admission controller may spend on adaptation
    without the roofline model predicting a new deadline miss.  May be
    negative — the batch is already doomed and no step should be granted.
    """
    if headroom_ms < 0:
        raise ValueError("headroom_ms must be non-negative")
    return batch_deadline_ms - inference_done_ms - headroom_ms


def stream_utilization(service_ms: float, period_ms: float) -> float:
    """Fraction of one device a stream occupies, per camera period.

    ``service_ms`` is the stream's roofline-estimated per-period service
    demand on a *specific* device (inference at batch 1 plus its share
    of the adaptation step) — heterogeneous pools price the same stream
    differently per power mode.  The device-pool placement policies sum
    these utilizations to compare device loads; a device whose total
    exceeds ~1.0 cannot keep up even with perfect batching.
    """
    if period_ms <= 0:
        raise ValueError(f"period_ms must be positive, got {period_ms}")
    if service_ms < 0:
        raise ValueError(f"service_ms must be >= 0, got {service_ms}")
    return service_ms / period_ms


@dataclass(frozen=True)
class FeasibilityEntry:
    """One (configuration, deadline) feasibility record."""

    config: str
    latency_ms: float
    deadline_name: str
    deadline_ms: float
    feasible: bool


def feasibility_table(
    latencies: Dict[str, float],
    deadlines: Dict[str, float] = None,
) -> List[FeasibilityEntry]:
    """Cross every configuration latency with every deadline.

    ``latencies`` maps configuration names (e.g. ``"r18@orin-60w"``) to
    per-frame milliseconds.  Returns a flat list of records, the data
    behind Fig. 3's deadline lines.
    """
    targets = deadlines if deadlines is not None else NAMED_DEADLINES
    table = []
    for config, latency in sorted(latencies.items()):
        for name, deadline in sorted(targets.items()):
            table.append(
                FeasibilityEntry(
                    config=config,
                    latency_ms=latency,
                    deadline_name=name,
                    deadline_ms=deadline,
                    feasible=meets_deadline(latency, deadline),
                )
            )
    return table


def max_fps(latency_ms: float) -> float:
    """Highest sustainable frame rate for a per-frame latency."""
    if latency_ms <= 0:
        raise ValueError("latency must be positive")
    return 1000.0 / latency_ms
