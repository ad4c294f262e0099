#!/usr/bin/env bash
# PR verification lanes — run from the repo root on every PR.
#
#   ./ci.sh            tier-1 tests, the slow marker, the
#                      gated-benchmark smoke lane, the cgen backend lane
#                      and the host-benchmark self-test
#   ./ci.sh --full     additionally runs the remaining quick benchmark
#                      gates (bench-infer, bench-adapt)
#
# The smoke lane exists so the benchmark regression loop (archive to
# benchmarks/results/*.json, diff p95/fps against the previous run's
# baseline via repro.experiments.regression) is exercised on every PR,
# not just when a human runs the benchmarks by hand.  Lane 4 exercises
# the cgen C plan backend (renderer parity tests plus a quick C-served
# bench run); on hosts without a C compiler it prints a visible skip
# notice and runs only the compiler-free fallback/registry tests.  Lane 5
# runs the host benchmark's self-tests (perfbench/selftest.py): the only
# check that patches ExecutionPlan.run/AdaptationPlan.run for the traced
# per-layer run and compares traced with untraced outputs.

set -euo pipefail
cd "$(dirname "$0")"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "=== lane 1: tier-1 tests (pytest -x -q) ==="
python -m pytest -x -q

echo "=== lane 2: slow marker (pytest -m slow) ==="
python -m pytest -m slow -q

echo "=== lane 3: gated benchmark smoke (bench-serve --quick + check_regression) ==="
python -m repro.experiments bench-serve --quick
# the 2-device quick run exercises the sharded device-pool path (and its
# >= 1.8x scaling gate) on every PR, not just when the full benchmark runs
python -m repro.experiments bench-serve --quick --devices 2
# telemetry must stay inert: the overhead study re-serves the 2-device
# fleet traced vs untraced, asserts bitwise output parity and archives
# both rows under the same regression gate
python -m repro.experiments bench-serve --quick --trace
# fault tolerance: checkpointing must be bitwise inert fault-free, a
# seeded crash+join must recover every hosted session with bounded
# frame loss, and the identical schedule must replay bitwise; rows are
# archived under the same regression gate
python -m repro.experiments bench-serve --quick --recovery
# scenario matrix smoke: 3 scenarios served with and without drift
# resets, per-scenario accuracy/recovery gates asserted and rows
# archived under the same regression gate
python -m repro.experiments bench-scenarios --quick
# seeded crash+join fleet smoke: the elastic-pool path end to end
# through the CLI (fault/recovery tables printed, results are scratch)
python -m repro.experiments fleet --streams 3 --frames 12 --devices 2 \
    --migrate --faults "crash@200:0,join@300:orin-30w" \
    --checkpoint-interval 4 --results-dir "$(mktemp -d)" > /dev/null
# traced fleet smoke: dashboard + Chrome-trace export end to end (the
# trace files are scratch, not archived benchmark results)
python -m repro.experiments fleet --trace --streams 2 --frames 8 \
    --results-dir "$(mktemp -d)" > /dev/null
if [[ "${1:-}" == "--full" ]]; then
    python -m repro.experiments bench-infer --quick
    python -m repro.experiments bench-adapt --quick
fi
python benchmarks/check_regression.py

echo "=== lane 4: cgen backend (C plan renderer parity + quick bench) ==="
# the C backend needs a host compiler; when there is none the engine
# falls back to numpy closures by design, so this lane degrades to a
# loud skip rather than a silent pass-through
if python - <<'EOF'
import sys
from repro.engine.backends import find_cc
sys.exit(0 if find_cc() else 1)
EOF
then
    python -m pytest tests/test_backends.py -q
    # quick end-to-end run with the C backend serving the compiled
    # column: band parity vs eager is asserted inside the command
    python -m repro.experiments bench-infer --quick --backend cgen
else
    echo "NOTICE: cgen lane SKIPPED — no C compiler on this host;"
    echo "        plans will fall back to numpy closures at runtime"
    # the fallback contract itself is still testable without a compiler
    python -m pytest tests/test_backends.py -q -k "Fallback or Config or Registry"
fi

echo "=== lane 5: host benchmark self-test (perfbench/selftest.py) ==="
python3 -m pytest perfbench/selftest.py -q

echo "ci.sh: all lanes passed"
