"""ENGINE — eager vs compiled inference latency on the serving hot path.

Measures, in host wallclock, the eval-mode forward of both backbones at
the configured run scale, two ways over identical inputs:

* **eager** — the autograd define-by-run path (``model(Tensor(x))`` under
  ``no_grad``);
* **compiled** — the traced static plan from :mod:`repro.engine` (fused
  conv-BN-ReLU GEMM epilogues, arena buffer reuse, cached im2col
  workspaces).

Asserted: the compiled path is >= 1.5x faster at batch sizes 1 and 8 on
the r18 preset (and strictly faster on r34), and its outputs are
bit-exact (``np.array_equal``) against eager both on the pristine model
and after LD-BN-ADAPT steps have rewritten the BN state.  The ``cgen``
C backend additionally must be >= 1.3x faster (p95) than the numpy
compiled path at r18 batch 1 and inside the parity band — asserted only
when a C compiler rendered the plan; without one the gate is skipped
with a visible notice (the fallback runs the numpy closures, so there is
nothing to gate).
"""

from conftest import results_path

from repro.experiments import format_table, get_run_scale, save_json
from repro.experiments.bench_infer import run_bench_infer

MIN_SPEEDUP_R18 = 1.5
MIN_CGEN_SPEEDUP_R18 = 1.3  # p95, vs the numpy compiled path, batch 1
BATCH_SIZES = (1, 8)
REPS = 30

COLUMNS = [
    "backbone", "batch", "eager_p50_ms", "eager_p95_ms",
    "compiled_p50_ms", "compiled_p95_ms", "speedup_p50",
    "cgen_p95_ms", "cgen_speedup_p95",
    "bit_exact", "bit_exact_adapted", "cgen_within_band",
]


def test_infer_engine_speedup(benchmark):
    scale = get_run_scale()
    rows = benchmark.pedantic(
        run_bench_infer,
        kwargs=dict(scale=scale, batch_sizes=BATCH_SIZES, reps=REPS),
        rounds=1,
        iterations=1,
    )

    print("\nENGINE — eager vs compiled inference latency (ms)")
    print(format_table(rows, columns=COLUMNS, floatfmt=".3f"))
    save_json(results_path("infer_engine.json"), rows)

    for row in rows:
        assert row["bit_exact"], f"compiled output diverged from eager: {row}"
        assert row["bit_exact_adapted"], (
            f"compiled output diverged after BN adaptation: {row}"
        )
        if row["backbone"] == "r18":
            assert row["speedup_p50"] >= MIN_SPEEDUP_R18, (
                f"compiled path should be >= {MIN_SPEEDUP_R18}x faster "
                f"than eager at batch {row['batch']}: {row}"
            )
        else:
            assert row["speedup_p50"] > 1.0, (
                f"compiled path should beat eager on r34: {row}"
            )
        if row["cgen_fallback"]:
            print(
                "NOTICE: cgen gate SKIPPED for "
                f"{row['backbone']} batch {row['batch']} — no C compiler, "
                "plan fell back to numpy closures"
            )
            continue
        assert row["cgen_within_band"], (
            f"cgen output left the parity band: {row}"
        )
        if row["backbone"] == "r18" and row["batch"] == 1:
            assert row["cgen_speedup_p95"] >= MIN_CGEN_SPEEDUP_R18, (
                f"cgen backend should be >= {MIN_CGEN_SPEEDUP_R18}x faster "
                f"(p95) than the numpy compiled path at batch 1: {row}"
            )
