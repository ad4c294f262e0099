"""Micro-benchmarks of the substrate's hot paths.

Not a paper artifact — these time the numpy framework itself (conv
forward/backward, one full LD-BN-ADAPT step, UFLD inference) so that
performance regressions in the substrate are visible.  Uses real repeated
timing rounds, unlike the single-shot experiment benches.

``test_micro_ops_backends`` additionally races the engine's two plan
backends per kernel family (fused conv-BN-ReLU, 1x1 identity-columns
GEMM, padded im2col conv, linear, max-pool, elementwise ReLU) and
archives the rows to ``results/micro_ops.json``, whose ``*_p95_ms`` keys
ride the standard regression gate — a slowdown in any one kernel fails
CI even when the end-to-end backbone numbers still pass.  There is no
per-kernel cross-backend speedup gate: at micro scale an isolated BLAS
GEMM legitimately beats the C kernel, and plan dispatch overhead
dominates the tiniest shapes; the end-to-end >= 1.3x cgen gate lives in
``bench_infer_engine.py``.
"""

import numpy as np
import pytest
from conftest import results_path

from repro import nn
from repro.adapt import LDBNAdapt, LDBNAdaptConfig
from repro.experiments import format_table, save_json
from repro.experiments.bench_micro import run_micro_ops
from repro.models import build_model
from repro.nn import functional as F


@pytest.fixture(scope="module")
def tiny_model():
    return build_model("tiny-r18", num_lanes=2, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def frame():
    return np.random.default_rng(1).random((1, 3, 32, 80)).astype(np.float32)


def test_conv2d_forward(benchmark):
    rng = np.random.default_rng(0)
    x = nn.Tensor(rng.standard_normal((4, 16, 16, 40)).astype(np.float32))
    w = nn.Tensor(rng.standard_normal((32, 16, 3, 3)).astype(np.float32))

    benchmark(lambda: F.conv2d(x, w, stride=1, padding=1))


def test_conv2d_backward(benchmark):
    rng = np.random.default_rng(0)
    x_data = rng.standard_normal((4, 16, 16, 40)).astype(np.float32)
    w_data = rng.standard_normal((32, 16, 3, 3)).astype(np.float32)

    def run():
        x = nn.Tensor(x_data, requires_grad=True)
        w = nn.Tensor(w_data, requires_grad=True)
        F.conv2d(x, w, stride=1, padding=1).sum().backward()

    benchmark(run)


def test_ufld_inference(benchmark, tiny_model, frame):
    tiny_model.eval()

    def run():
        with nn.no_grad():
            return tiny_model(nn.Tensor(frame, _copy=False))

    benchmark(run)


def test_ld_bn_adapt_step(benchmark, tiny_model, frame):
    adapter = LDBNAdapt(tiny_model, LDBNAdaptConfig(lr=1e-3))

    benchmark(lambda: adapter.adapt(frame))


def test_batchnorm_train_forward(benchmark):
    rng = np.random.default_rng(0)
    bn = nn.BatchNorm2d(64)
    x = nn.Tensor(rng.standard_normal((4, 64, 8, 20)).astype(np.float32))

    benchmark(lambda: bn(x))


MICRO_REPS = 200

MICRO_COLUMNS = [
    "op", "shape", "numpy_p50_ms", "numpy_p95_ms",
    "cgen_p50_ms", "cgen_p95_ms", "speedup_p95",
    "rendered", "fallback", "max_abs_diff",
]


def test_micro_ops_backends(benchmark):
    rows = benchmark.pedantic(
        run_micro_ops, kwargs=dict(reps=MICRO_REPS), rounds=1, iterations=1,
    )

    print("\nMICRO — per-kernel numpy vs cgen latency (ms)")
    print(format_table(rows, columns=MICRO_COLUMNS, floatfmt=".4f"))
    save_json(results_path("micro_ops.json"), rows)

    for row in rows:
        assert row["max_abs_diff"] < 1e-3, (
            f"cgen kernel diverged from the numpy closure: {row}"
        )
        if row["fallback"]:
            print(
                f"NOTICE: cgen timing for {row['op']} measured the numpy "
                "fallback — no C compiler rendered the plan"
            )
        # No cross-backend speedup assertion per kernel: at micro scale
        # per-call plan overhead dominates and an isolated BLAS GEMM can
        # legitimately beat the C kernel (cgen wins end-to-end through
        # fusion — that >= 1.3x gate lives in bench_infer_engine.py).
        # Drift in either backend's kernels is caught by the regression
        # gate over the archived *_p95_ms keys.
