"""Self-tests of the host benchmark.

Run from the repository root (they train a small model and take about
two minutes)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as perfbench_run  # noqa: E402

SPEC = json.loads((perfbench_run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def workdir():
    path = perfbench_run.prepare(f"selftest-{os.getpid()}")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _dir(workdir: Path, tag: str) -> Path:
    path = workdir / tag
    path.mkdir()
    return path


def _smoke(workdir, name, traced=False, delays=None, tag=""):
    import harness

    workload = harness.smoke(harness.WORKLOADS[name])
    out = _dir(workdir, f"{name}-{int(traced)}{tag}")
    if traced:
        return harness.measure_traced(workload, 3, 0.0, out, delays=delays)
    return harness.measure(workload, 3, 0.0, out, delays=delays,
                           setup_repeats=1)


def _assert_emits(result, declared):
    assert result["correct"], result["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert list(result["metrics"]) == list(units)
    for name, (value, unit, samples) in result["metrics"].items():
        assert unit == units[name], name
        assert value == value and abs(value) != float("inf"), name
        assert samples >= 1, name


def test_workloads_match_benchmark_json(workdir):
    import harness

    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", ["vehicle", "fleet", "fleet_recover"])
def test_smoke_emits_every_metric(workdir, name):
    untraced = _smoke(workdir, name)
    _assert_emits(untraced, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert untraced["metrics"][metric["name"]][0] > 0, metric["name"]
    traced = _smoke(workdir, name, traced=True)
    _assert_emits(traced, SPEC["per_layer"])
    # tracing is inert: the deterministic outputs match the untraced run
    assert traced["outputs"] == untraced["outputs"]


def test_trace_accounts_for_the_window(workdir):
    for name, root in (("fleet", "serve.coordinator_self_s"),
                       ("vehicle", "pipeline.self_s")):
        metrics = _smoke(workdir, name, traced=True, tag="-cov")["metrics"]
        assert 0.97 <= metrics["trace.coverage"][0] <= 1.0 + 1e-9
        assert metrics[root][0] > 0


def test_injected_delay_is_visible(workdir):
    delay = 0.004  # seconds per call of the scheduler's next_batch
    key = "serve.schedule"
    base = _smoke(workdir, "fleet", traced=True, tag="-base")["metrics"]
    slow = _smoke(workdir, "fleet", traced=True, delays={key: delay},
                  tag="-slow")["metrics"]
    calls = slow["serve.batches"][0]
    injected = calls * delay
    gained = slow["serve.schedule_busy_s"][0] - base["serve.schedule_busy_s"][0]
    assert 0.9 * injected <= gained <= 1.5 * injected
    # the untraced end-to-end metric sees the same slowdown
    fast_e2e = _smoke(workdir, "fleet", tag="-fast")["metrics"]
    slow_e2e = _smoke(workdir, "fleet", delays={key: delay},
                      tag="-slow")["metrics"]
    frames = slow_e2e["host_fps"][2]
    window_fast = frames / fast_e2e["host_fps"][0]
    window_slow = frames / slow_e2e["host_fps"][0]
    assert window_slow - window_fast >= 0.7 * injected
