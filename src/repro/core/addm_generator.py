"""Complete two-hot SRAG address generator for an ADDM array.

The full generator of the paper's Section 4 is the composition of two
identical one-dimensional SRAGs: a row SRAG driving the ``2^m`` row-select
lines and a column SRAG driving the ``2^n`` column-select lines, both fed by
the same ``clk`` / ``next`` / ``reset`` inputs.  Each dimension is mapped
independently by the SRAdGen procedure on its own RowAS / ColAS.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.mapper import map_address_sequence
from repro.core.srag import SragFunctionalModel, SragPorts, build_srag
from repro.generators.base import AddressGeneratorDesign
from repro.hdl.compiled import CompiledSimulator, sample_outputs
from repro.hdl.netlist import Netlist, sanitise_name
from repro.workloads.sequences import AddressSequence

__all__ = ["SragAddressGenerator"]


class SragAddressGenerator(AddressGeneratorDesign):
    """The paper's two-hot SRAG as an :class:`AddressGeneratorDesign`.

    Constructing one runs the SRAdGen mapping procedure on both dimensions,
    so an unmappable sequence fails fast with a
    :class:`~repro.core.mapping_params.MappingError`.  The netlist is
    elaborated from the stored mappings on first use (and again after
    :meth:`invalidate`); :meth:`from_sequence` maps and elaborates in one
    step, as the SRAdGen tool does.

    Attributes
    ----------
    row_mapping, col_mapping:
        SRAdGen mapping parameters of each dimension.
    row_ports, col_ports:
        Internal port bundles of the two one-dimensional SRAGs in the latest
        elaboration (``None`` before the first).  The netlist has inputs
        ``clk``, ``next``, ``reset`` and outputs ``rs_<i>`` and ``cs_<j>``.
    """

    style = "SRAG"

    def __init__(self, sequence: AddressSequence, *, name: Optional[str] = None):
        super().__init__(sequence, name=name or f"srag_{sequence.name}")
        self.row_mapping, self.col_mapping = map_address_sequence(sequence)
        self.row_ports: Optional[SragPorts] = None
        self.col_ports: Optional[SragPorts] = None

    @classmethod
    def from_sequence(
        cls, sequence: AddressSequence, *, name: Optional[str] = None
    ) -> "SragAddressGenerator":
        """Map ``sequence`` and elaborate the complete two-hot generator.

        Raises :class:`~repro.core.mapping_params.MappingError` when either
        dimension violates an SRAG restriction.
        """
        generator = cls(sequence, name=name)
        generator.netlist  # elaborate now; the netlist is cached
        return generator

    def elaborate(self) -> Netlist:
        netlist = Netlist(sanitise_name(self.name))
        clk = netlist.add_input("clk")
        next_signal = netlist.add_input("next")
        reset = netlist.add_input("reset")
        self.row_ports = build_srag(
            netlist, self.row_mapping, clk, next_signal, reset, prefix="row"
        )
        self.col_ports = build_srag(
            netlist, self.col_mapping, clk, next_signal, reset, prefix="col"
        )
        netlist.add_output_bus("rs", self.row_ports.select_lines)
        netlist.add_output_bus("cs", self.col_ports.select_lines)
        return netlist

    # ---------------------------------------------------------------- queries
    @property
    def rows(self) -> int:
        """Number of row-select lines."""
        return self.sequence.rows

    @property
    def cols(self) -> int:
        """Number of column-select lines."""
        return self.sequence.cols

    @property
    def select_line_count(self) -> int:
        """Total select lines (two-hot width)."""
        return self.rows + self.cols

    def functional_models(self) -> Tuple[SragFunctionalModel, SragFunctionalModel]:
        """Behavioural models of the row and column SRAGs."""
        return (
            SragFunctionalModel.from_mapping(self.row_mapping),
            SragFunctionalModel.from_mapping(self.col_mapping),
        )

    # ------------------------------------------------------------- simulation
    def simulate_functional(self, cycles: Optional[int] = None) -> List[int]:
        """Linear addresses produced by the behavioural models (the oracle
        the gate-level :meth:`simulate` is tested against)."""
        steps = cycles if cycles is not None else self.sequence.length
        row_model, col_model = self.functional_models()
        addresses = []
        for _ in range(steps):
            addresses.append(row_model.current_address * self.cols + col_model.current_address)
            row_model.step()
            col_model.step()
        return addresses

    def simulate(self, cycles: Optional[int] = None) -> List[int]:
        """Linear addresses produced by gate-level simulation of the netlist."""
        steps = cycles if cycles is not None else self.sequence.length
        netlist = self.netlist
        row_lines = self.row_ports.select_lines
        col_lines = self.col_ports.select_lines

        def address(sim: CompiledSimulator) -> int:
            row = sim.peek_onehot(row_lines)
            col = sim.peek_onehot(col_lines)
            if row is None or col is None:
                raise RuntimeError("select lines are not one-hot during simulation")
            return row * self.cols + col

        return sample_outputs(netlist, steps, address, next=1)
