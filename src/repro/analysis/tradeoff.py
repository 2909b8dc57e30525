"""Performance-area trade-off evaluation (the paper's Section 6).

This module turns workloads into the numbers the paper's evaluation reports:
for each access pattern and array size it synthesises the SRAG and the CntAG
baseline, computes the CntAG delay the way the paper does (counter component
plus the worst decoder component, per Figure 9), and produces
:class:`TradeoffRecord` rows from which Figures 8-10 and Table 3 are
regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.core.addm_generator import SragAddressGenerator
from repro.flow import FlowSpec
from repro.generators.counter_based import CounterBasedAddressGenerator
from repro.synth.cell_library import CellLibrary, STD018
from repro.synth.report import SynthesisResult
from repro.workloads.loopnest import AffineAccessPattern

__all__ = [
    "GeneratorMetrics",
    "TradeoffRecord",
    "evaluate_srag",
    "evaluate_cntag",
    "compare_generators",
    "average_factors",
]


@dataclass
class GeneratorMetrics:
    """Delay and area of one synthesised address generator."""

    style: str
    delay_ns: float
    area_cells: float
    flip_flops: int
    detail: Dict[str, SynthesisResult] = field(default_factory=dict)


@dataclass
class TradeoffRecord:
    """One row of the SRAG-versus-CntAG comparison.

    Attributes
    ----------
    workload:
        Workload name (e.g. ``motion_est_read``).
    rows, cols:
        Array dimensions of the data point.
    srag, cntag:
        Metrics of the two generators.
    """

    workload: str
    rows: int
    cols: int
    srag: GeneratorMetrics
    cntag: GeneratorMetrics

    @property
    def delay_reduction_factor(self) -> float:
        """How many times faster the SRAG is (CntAG delay / SRAG delay)."""
        return self.cntag.delay_ns / self.srag.delay_ns

    @property
    def area_increase_factor(self) -> float:
        """How many times larger the SRAG is (SRAG area / CntAG area)."""
        return self.srag.area_cells / self.cntag.area_cells

    def describe(self) -> str:
        """One-line summary used in benchmark output."""
        return (
            f"{self.workload:<24} {self.rows}x{self.cols}: "
            f"SRAG {self.srag.delay_ns:5.2f} ns / {self.srag.area_cells:9.0f} cu   "
            f"CntAG {self.cntag.delay_ns:5.2f} ns / {self.cntag.area_cells:9.0f} cu   "
            f"delay x{self.delay_reduction_factor:4.2f}  area x{self.area_increase_factor:4.2f}"
        )


def evaluate_srag(
    pattern: AffineAccessPattern, library: CellLibrary = STD018
) -> GeneratorMetrics:
    """Synthesise the SRAG for ``pattern`` and return its metrics."""
    design = SragAddressGenerator(pattern.to_sequence())
    result = design.synthesize(spec=FlowSpec(library=library))
    return GeneratorMetrics(
        style="SRAG",
        delay_ns=result.delay_ns,
        area_cells=result.area_cells,
        flip_flops=result.area.flip_flop_count,
        detail={"full": result},
    )


def evaluate_cntag(
    pattern: AffineAccessPattern, library: CellLibrary = STD018
) -> GeneratorMetrics:
    """Synthesise the CntAG for ``pattern`` and return its metrics.

    The delay follows the paper's methodology (counter section plus worst
    decoder); the area is that of the complete netlist including both
    decoders.
    """
    design = CounterBasedAddressGenerator(pattern)
    full = design.synthesize(spec=FlowSpec(library=library))
    components = design.component_reports(library)
    delay = components["counter"].delay_ns + max(
        components["row_decoder"].delay_ns, components["column_decoder"].delay_ns
    )
    detail = dict(components)
    detail["full"] = full
    return GeneratorMetrics(
        style="CntAG",
        delay_ns=delay,
        area_cells=full.area_cells,
        flip_flops=full.area.flip_flop_count,
        detail=detail,
    )


def compare_generators(
    workload: str,
    pattern: AffineAccessPattern,
    library: CellLibrary = STD018,
) -> TradeoffRecord:
    """Build the SRAG/CntAG trade-off record for one access pattern."""
    return TradeoffRecord(
        workload=workload,
        rows=pattern.rows,
        cols=pattern.cols,
        srag=evaluate_srag(pattern, library),
        cntag=evaluate_cntag(pattern, library),
    )


def average_factors(records: Sequence[TradeoffRecord]) -> Tuple[float, float]:
    """Average delay-reduction and area-increase factors over ``records``.

    This is how each row of the paper's Table 3 is computed: the factors are
    averaged over the array-size sweep of one workload.
    """
    if not records:
        raise ValueError("cannot average an empty record list")
    delay = sum(r.delay_reduction_factor for r in records) / len(records)
    area = sum(r.area_increase_factor for r in records) / len(records)
    return delay, area
