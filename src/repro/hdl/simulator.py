"""Cycle-accurate two-phase reference simulator for primitive-cell netlists.

The simulator evaluates the combinational cells of a :class:`~repro.hdl.netlist.Netlist`
in topological order, then updates every flip-flop simultaneously on a
simulated rising clock edge.  It is the reproduction's *oracle*: the
straightforward model that :class:`~repro.hdl.compiled.CompiledSimulator` --
which runs every generator's ``simulate()`` and so the gate-level sequence
check ``AddressGeneratorDesign.verify`` -- is tested against bit for bit.  Its remaining users are the tests, the
replay of CEC counterexamples (:mod:`repro.verify.cec`) and the power
oracle ``repro.synth.power._reference_toggles``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.hdl.netlist import Cell, Net, Netlist
from repro.hdl.primitives import combinational_eval, flop_next_state
from repro.obs import metrics

__all__ = ["Simulator", "SimulationError"]


class SimulationError(Exception):
    """Raised for simulation-time errors (unknown ports, undriven nets)."""


class Simulator:
    """Two-phase (settle combinational logic, then clock) netlist simulator.

    Parameters
    ----------
    netlist:
        The netlist to simulate.  It is validated and levelised once at
        construction time.

    Notes
    -----
    * The clock is implicit: every call to :meth:`step` represents one rising
      clock edge.  ``CLK`` pins on flip-flops are ignored functionally.
    * All nets start at 0 and all flip-flops start in state 0; use
      :meth:`poke` to drive inputs (for example a ``reset`` input) before the
      first clock edge.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self._order: List[Cell] = netlist.topological_combinational_order()
        self._flops: List[Cell] = netlist.sequential_cells()
        self._values: Dict[str, int] = {name: 0 for name in netlist.nets}
        self._state: Dict[str, int] = {cell.name: 0 for cell in self._flops}
        self.cycle = 0
        self.settle()

    # ------------------------------------------------------------------ I/O
    def poke(self, port: str, value: int) -> None:
        """Drive a top-level input port with 0 or 1."""
        inputs = self.netlist.inputs
        if port not in inputs:
            raise SimulationError(f"unknown input port {port!r}")
        self._values[inputs[port].name] = 1 if value else 0

    def poke_bus(self, bus: Sequence[Net], value: int) -> None:
        """Drive a bus of input nets with the binary encoding of ``value``."""
        for i, net in enumerate(bus):
            if net.name not in self._values:
                raise SimulationError(f"net {net.name!r} is not in the netlist")
            if not net.is_input:
                raise SimulationError(f"net {net.name!r} is not an input")
            self._values[net.name] = (value >> i) & 1

    def peek(self, port_or_net) -> int:
        """Read the current value of a top-level port name or a :class:`Net`."""
        if isinstance(port_or_net, Net):
            if port_or_net.name not in self._values:
                raise SimulationError(
                    f"net {port_or_net.name!r} is not in the netlist"
                )
            return self._values[port_or_net.name]
        name = port_or_net
        if name in self.netlist.outputs:
            return self._values[self.netlist.outputs[name].name]
        if name in self.netlist.inputs:
            return self._values[self.netlist.inputs[name].name]
        if name in self.netlist.nets:
            return self._values[name]
        raise SimulationError(f"unknown port or net {name!r}")

    def peek_bus(self, bus: Sequence[Net]) -> int:
        """Read a bus as an unsigned integer (bit 0 is the LSB)."""
        value = 0
        for i, net in enumerate(bus):
            if net.name not in self._values:
                raise SimulationError(f"net {net.name!r} is not in the netlist")
            value |= self._values[net.name] << i
        return value

    def peek_onehot(self, bus: Sequence[Net]) -> Optional[int]:
        """Return the index of the single asserted bit of ``bus``.

        Returns ``None`` when no bit is asserted and raises
        :class:`SimulationError` when more than one bit is asserted — the
        condition the paper warns would corrupt an ADDM array.
        """
        values = self._values
        try:
            asserted = [i for i, net in enumerate(bus) if values[net.name]]
        except KeyError as exc:
            raise SimulationError(f"net {exc.args[0]!r} is not in the netlist") from None
        if not asserted:
            return None
        if len(asserted) > 1:
            raise SimulationError(f"multiple select lines asserted: {asserted}")
        return asserted[0]

    def flop_state(self, cell_name: str) -> int:
        """Return the current state of the named flip-flop cell."""
        if cell_name not in self._state:
            raise SimulationError(f"unknown flip-flop {cell_name!r}")
        return self._state[cell_name]

    # ------------------------------------------------------------- evaluation
    def settle(self) -> None:
        """Propagate flip-flop outputs and inputs through combinational logic."""
        # One aggregate incr per settle (not per cell): the reference
        # simulator re-evaluates its whole topological order each settle.
        metrics.incr("sim.reference.settle_events", len(self._order))
        for flop in self._flops:
            q_net = flop.pins.get("Q")
            if q_net is not None:
                self._values[q_net.name] = self._state[flop.name]
        for cell in self._order:
            pin_values = {
                pin: self._values[net.name] for pin, net in cell.input_nets().items()
            }
            outputs = combinational_eval(cell.cell_type, pin_values)
            for pin, value in outputs.items():
                net = cell.pins.get(pin)
                if net is not None:
                    self._values[net.name] = value

    def step(self, cycles: int = 1, **ports: int) -> None:
        """Advance the simulation by ``cycles`` rising clock edges.

        Keyword arguments drive input ports for the duration of the call,
        e.g. ``sim.step(next=1, reset=0)``; their previous values are
        restored before returning.
        """
        metrics.incr("sim.reference.cycles", cycles)
        previous: Dict[str, int] = {}
        for port, value in ports.items():
            previous[port] = self.peek(port)
            self.poke(port, value)
        for _ in range(cycles):
            self.settle()
            next_state: Dict[str, int] = {}
            for flop in self._flops:
                pin_values = {
                    pin: self._values[net.name]
                    for pin, net in flop.input_nets().items()
                }
                pin_values["Q"] = self._state[flop.name]
                next_state[flop.name] = flop_next_state(flop.cell_type, pin_values)
            self._state.update(next_state)
            self.cycle += 1
        self.settle()
        for port, value in previous.items():
            self.poke(port, value)

    def reset(self, reset_port: str = "reset", cycles: int = 1) -> None:
        """Pulse a synchronous reset input for ``cycles`` clock edges."""
        self.poke(reset_port, 1)
        self.step(cycles)
        self.poke(reset_port, 0)
        self.settle()

    # ------------------------------------------------------------ conveniences
    def run_sequence(
        self,
        output_bus: Sequence[Net],
        cycles: int,
        *,
        next_port: Optional[str] = "next",
        onehot: bool = False,
    ) -> List[int]:
        """Clock the design ``cycles`` times and sample ``output_bus`` each cycle.

        The bus is sampled *before* each clock edge (i.e. the value produced
        by the current state), which matches how the paper's address
        generators present address ``a_n`` while ``next`` requests ``a_{n+1}``.
        """
        if next_port is not None:
            self.poke(next_port, 1)
        samples: List[int] = []
        for _ in range(cycles):
            self.settle()
            if onehot:
                index = self.peek_onehot(output_bus)
                samples.append(-1 if index is None else index)
            else:
                samples.append(self.peek_bus(output_bus))
            self.step()
        return samples
