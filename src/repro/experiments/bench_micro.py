"""Numpy-vs-C micro-benchmarks of the engine's stage kernels.

Each case traces a single-layer model through both plan backends and
times the resulting one-stage plans head-to-head, isolating one kernel
family: the im2col-GEMM conv (gather + matmul + fused BN/ReLU epilogue),
the identity-columns 1x1 GEMM, the linear GEMM, max-pool, and the
elementwise ReLU epilogue.  Rows are archived to
``results/micro_ops.json`` by :mod:`benchmarks.bench_micro_ops`; the
``*_p95_ms`` keys ride the standard regression gate
(:mod:`repro.experiments.regression`), so a slowdown in either backend's
kernels fails CI like any other latency regression.

Rows where ``fallback`` is True (no C compiler — the cgen plan ran the
numpy closures stage-by-stage) time the same closures twice by
construction; the harness skips the speedup assertions for them.
"""

from __future__ import annotations

import time
import warnings
from typing import Dict, List

import numpy as np

from .. import nn
from ..engine import compile_model
from ..pipeline.monitor import latency_percentile


def _micro_cases(rng: np.random.Generator):
    """(name, model, input) triples, one engine stage each."""
    conv_bn_relu = nn.Sequential(
        nn.Conv2d(16, 16, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(16),
        nn.ReLU(),
    )
    cases = [
        (
            "conv3x3_bn_relu",
            conv_bn_relu,
            rng.standard_normal((1, 16, 16, 40)),
        ),
        (
            "conv1x1_gemm",
            nn.Conv2d(16, 32, 1, bias=False, rng=rng),
            rng.standard_normal((1, 16, 16, 40)),
        ),
        (
            "conv3x3_im2col",
            nn.Conv2d(16, 16, 3, padding=1, bias=False, rng=rng),
            rng.standard_normal((1, 16, 16, 40)),
        ),
        (
            "linear",
            nn.Linear(512, 128, rng=rng),
            rng.standard_normal((8, 512)),
        ),
        (
            "maxpool2x2",
            nn.MaxPool2d(2),
            rng.standard_normal((1, 16, 16, 40)),
        ),
        (
            "relu_epilogue",
            nn.ReLU(),
            rng.standard_normal((1, 32, 32, 80)),
        ),
    ]
    return cases


def _time_ms(fn, reps: int) -> List[float]:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(1e3 * (time.perf_counter() - start))
    return samples


def run_micro_ops(reps: int = 200, seed: int = 0) -> List[Dict[str, object]]:
    """Time each micro kernel through the numpy and cgen backends."""
    rng = np.random.default_rng(seed)
    rows: List[Dict[str, object]] = []
    for name, model, x in _micro_cases(rng):
        model.eval()
        eng_np = compile_model(model)
        eng_c = compile_model(model, backend="cgen")
        eng_np(x)
        with warnings.catch_warnings():
            # a missing compiler warns; the row records the fallback
            warnings.simplefilter("ignore", RuntimeWarning)
            y_c = eng_c(x).numpy().copy()
        y_np = eng_np(x).numpy().copy()
        info = eng_c.plan_for(x.shape, x.dtype).backend_info

        np_ms = _time_ms(lambda: eng_np(x), reps)
        c_ms = _time_ms(lambda: eng_c(x), reps)
        np_p95 = latency_percentile(np_ms, 95)
        c_p95 = latency_percentile(c_ms, 95)
        rows.append(
            {
                "op": name,
                "shape": "x".join(str(d) for d in x.shape),
                "reps": reps,
                "numpy_p50_ms": latency_percentile(np_ms, 50),
                "numpy_p95_ms": np_p95,
                "cgen_p50_ms": latency_percentile(c_ms, 50),
                "cgen_p95_ms": c_p95,
                "speedup_p95": np_p95 / c_p95,
                "rendered": info["rendered"],
                "fallback": info["rendered"] == 0,
                "max_abs_diff": float(np.abs(y_c - y_np).max()),
            }
        )
    return rows
