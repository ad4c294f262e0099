"""``repro.experiments`` — harnesses that regenerate every paper artifact.

See DESIGN.md section 4 for the experiment index (FIG1/FIG2/FIG3, TXT1-3,
ABL1-3) and ``benchmarks/`` for the pytest-benchmark entry points.
"""

from .ablations import (
    VariantResult,
    run_batch_size_ablation,
    run_param_census,
    run_sota_cost,
    run_stats_mode_ablation,
    run_variant_comparison,
)
from .bench_adapt import run_bench_adapt
from .bench_infer import run_bench_infer
from .bench_scenarios import (
    QUICK_SCENARIOS,
    check_scenarios,
    recovery_spans,
    run_bench_scenarios,
)
from .bench_serve import (
    check_device_scaling,
    check_slack_dominates,
    run_bench_devices,
    run_bench_serve,
    scaling_archive,
    sustained_streams,
)
from .config import (
    ADAPT_BATCH_SIZES,
    BACKBONES,
    BENCHMARK_NAMES,
    CARLANE_SPLIT_SIZES,
    METHODS,
    PAPER_AVG_LDBN,
    PAPER_AVG_SOTA,
    PAPER_BEST_LDBN,
    PAPER_BEST_SOTA,
    RUN_SCALES,
    RunScale,
    get_run_scale,
)
from .fig1_datasets import DomainStats, Fig1Result, export_gallery, run_fig1
from .fig2_accuracy import Fig2Cell, Fig2Result, run_fig2, train_source_model
from .fig3_latency import PAPER_FEASIBILITY, Fig3Result, Fig3Row, run_fig3
from .fleet_serving import FleetRunResult, roofline_comparison_rows, run_fleet
from .regression import RegressionReport, check_regressions
from .reporting import (
    format_markdown_table,
    format_table,
    load_json,
    merge_json_section,
    save_json,
)

__all__ = [
    "RunScale",
    "RUN_SCALES",
    "get_run_scale",
    "BENCHMARK_NAMES",
    "BACKBONES",
    "METHODS",
    "ADAPT_BATCH_SIZES",
    "PAPER_BEST_SOTA",
    "PAPER_BEST_LDBN",
    "PAPER_AVG_SOTA",
    "PAPER_AVG_LDBN",
    "CARLANE_SPLIT_SIZES",
    "run_fig1",
    "export_gallery",
    "Fig1Result",
    "DomainStats",
    "run_fig2",
    "train_source_model",
    "Fig2Result",
    "Fig2Cell",
    "run_fig3",
    "Fig3Result",
    "Fig3Row",
    "PAPER_FEASIBILITY",
    "run_fleet",
    "FleetRunResult",
    "roofline_comparison_rows",
    "run_param_census",
    "run_variant_comparison",
    "run_batch_size_ablation",
    "run_stats_mode_ablation",
    "run_sota_cost",
    "run_bench_infer",
    "run_bench_adapt",
    "run_bench_serve",
    "run_bench_devices",
    "run_bench_scenarios",
    "check_scenarios",
    "recovery_spans",
    "QUICK_SCENARIOS",
    "check_slack_dominates",
    "check_device_scaling",
    "scaling_archive",
    "sustained_streams",
    "check_regressions",
    "RegressionReport",
    "VariantResult",
    "format_table",
    "format_markdown_table",
    "save_json",
    "load_json",
    "merge_json_section",
]
