"""Synthesis result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hdl.netlist import Netlist
from repro.lint.core import LintReport
from repro.synth.area import AreaReport
from repro.synth.opt import OptReport
from repro.synth.timing import TimingReport
from repro.verify.cec import CecResult

__all__ = ["SynthesisResult"]


@dataclass
class SynthesisResult:
    """Area/delay result for one synthesised design.

    This is the unit of comparison everywhere in the reproduction: every
    paper figure or table row reduces to comparing ``delay_ns`` and
    ``area_cells`` of two or more :class:`SynthesisResult` objects.

    Attributes
    ----------
    name:
        Design name (for example ``"srag_read_64x64"``).
    area:
        Detailed area report.
    timing:
        Detailed timing report.
    buffers_inserted:
        Number of buffers added by high-fanout buffering.
    netlist:
        The synthesis tool's working copy -- the optimized and buffered
        clone the area and timing numbers were measured on.  Downstream
        analyses (the power study) must run on this netlist so all metrics
        in one result describe the same structure.
    opt_report:
        Per-pass logic-optimization statistics (``None`` when the flow ran
        at ``opt_level=0``).
    lint_report:
        Design-rule findings over ``netlist`` (``None`` unless the flow ran
        with ``spec.lint`` set).  Purely diagnostic: never serialised into
        cached records.
    cec_report:
        Formal equivalence verdict of ``netlist`` against the pre-flow
        netlist (``None`` unless the flow ran with ``spec.cec`` set).
        Same diagnostic contract as ``lint_report``: never serialised into
        cached records.
    metadata:
        Free-form extra data (sequence length, array shape, generator style,
        mapping parameters) recorded by the experiment harnesses.
    """

    name: str
    area: AreaReport
    timing: TimingReport
    buffers_inserted: int = 0
    netlist: Optional[Netlist] = None
    opt_report: Optional[OptReport] = None
    lint_report: Optional[LintReport] = None
    cec_report: Optional[CecResult] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def delay_ns(self) -> float:
        """Critical-path delay in nanoseconds."""
        return self.timing.critical_path_delay

    @property
    def area_cells(self) -> float:
        """Total area in cell units."""
        return self.area.total

    def summary(self) -> str:
        """One-line summary used by the benchmark harnesses."""
        return (
            f"{self.name:<28} delay = {self.delay_ns:6.3f} ns   "
            f"area = {self.area_cells:10.1f} cell units   "
            f"FFs = {self.area.flip_flop_count}"
        )
