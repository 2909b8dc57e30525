"""Trade-off analysis and design-space exploration.

* :mod:`repro.analysis.tradeoff` -- SRAG-versus-CntAG evaluation producing
  the records behind Figures 8-10 and Table 3.
* :mod:`repro.analysis.explorer` -- multi-architecture design-space
  exploration (the paper's stated future-work goal): a one-workload
  campaign on the engine, rendered with its Pareto front marked.
* :mod:`repro.analysis.reporting` -- plain-text table/series formatting used
  by the benchmark harnesses.
"""

from repro.analysis.explorer import describe_design_space, explore
from repro.analysis.reporting import format_figure, format_series, format_table
from repro.analysis.tradeoff import (
    GeneratorMetrics,
    TradeoffRecord,
    average_factors,
    compare_generators,
    evaluate_cntag,
    evaluate_srag,
)

__all__ = [
    "describe_design_space",
    "explore",
    "format_figure",
    "format_series",
    "format_table",
    "GeneratorMetrics",
    "TradeoffRecord",
    "average_factors",
    "compare_generators",
    "evaluate_cntag",
    "evaluate_srag",
]
