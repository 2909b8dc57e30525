"""SRAdGen -- the end-to-end tool flow of the paper's Section 5.

The paper's SRAdGen tool "accepts a sequence of one-dimensional addresses
and, if mapping is successful, produces synthesisable VHDL code describing
the corresponding SRAG".  :func:`generate` reproduces that flow on top of the
library: sequence in, mapping parameters + structural netlist + HDL text +
synthesis report out.  The command-line front end in :mod:`repro.cli` is a
thin wrapper around this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.addm_generator import SragAddressGenerator
from repro.core.mapping_params import SragMapping
from repro.flow import DEFAULT_SPEC, FlowSpec
from repro.hdl.emit import emit_verilog, emit_vhdl
from repro.synth.flow import run_synthesis_flow
from repro.synth.report import SynthesisResult
from repro.workloads.sequences import AddressSequence

__all__ = ["SRAdGenResult", "generate"]


@dataclass
class SRAdGenResult:
    """Everything SRAdGen produces for one address sequence.

    Attributes
    ----------
    generator:
        The mapped and elaborated two-hot SRAG.
    row_mapping, col_mapping:
        Mapping parameters of each dimension (the Table 2 quantities).
    vhdl, verilog:
        Generated HDL text (``None`` unless requested).
    synthesis:
        Area/delay report (``None`` unless requested).  Synthesis works on a
        clone of the netlist, so the emitted HDL and the generator's netlist
        are unaffected by buffer insertion.
    """

    generator: SragAddressGenerator
    row_mapping: SragMapping
    col_mapping: SragMapping
    vhdl: Optional[str] = None
    verilog: Optional[str] = None
    synthesis: Optional[SynthesisResult] = None

    def describe(self) -> str:
        """Human-readable summary (mapping parameters plus synthesis figures)."""
        lines = [
            f"SRAdGen result for {self.generator.sequence.name!r} "
            f"({self.generator.rows}x{self.generator.cols} array, "
            f"{self.generator.sequence.length} accesses)",
            "",
            "row address sequence mapping:",
            self.row_mapping.describe(),
            "",
            "column address sequence mapping:",
            self.col_mapping.describe(),
        ]
        if self.synthesis is not None:
            lines += ["", self.synthesis.summary()]
        return "\n".join(lines)


def generate(
    sequence: AddressSequence,
    *,
    emit_vhdl_text: bool = True,
    emit_verilog_text: bool = False,
    synthesize: bool = False,
    spec: FlowSpec = DEFAULT_SPEC,
    verify: bool = True,
    name: Optional[str] = None,
) -> SRAdGenResult:
    """Run the complete SRAdGen flow on ``sequence``.

    Parameters
    ----------
    sequence:
        The 2-D address sequence to implement.
    emit_vhdl_text, emit_verilog_text:
        Which HDL back ends to run.
    synthesize:
        Also run the synthesis flow (optimization + buffering + timing +
        area).
    spec:
        Flow configuration (:class:`repro.flow.FlowSpec`) for the synthesis
        step: cell library, buffering threshold, logic-optimization effort.
        Defaults to the all-defaults spec.
    verify:
        Run the gate-level sequence check
        (:meth:`~repro.generators.base.AddressGeneratorDesign.verify`): the
        elaborated netlist must regenerate the input sequence before
        anything is emitted.
    name:
        Optional netlist/entity name.

    Raises
    ------
    MappingError
        If the sequence violates an SRAG restriction.
    RuntimeError
        If verification fails (which would indicate a library bug rather
        than an unmappable sequence).
    """
    generator = SragAddressGenerator.from_sequence(sequence, name=name)
    if verify and not generator.verify():
        raise RuntimeError(
            f"gate-level sequence check failed for sequence {sequence.name!r}"
        )
    vhdl_text = emit_vhdl(generator.netlist) if emit_vhdl_text else None
    verilog_text = emit_verilog(generator.netlist) if emit_verilog_text else None
    synthesis = None
    if synthesize:
        synthesis = run_synthesis_flow(
            generator.netlist,
            spec=spec,
            name=generator.netlist.name,
            metadata={
                "workload": sequence.name,
                "rows": sequence.rows,
                "cols": sequence.cols,
                "accesses": sequence.length,
            },
        )
    return SRAdGenResult(
        generator=generator,
        row_mapping=generator.row_mapping,
        col_mapping=generator.col_mapping,
        vhdl=vhdl_text,
        verilog=verilog_text,
        synthesis=synthesis,
    )
