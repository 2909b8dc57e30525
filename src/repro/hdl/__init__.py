"""Structural RTL substrate.

This package provides the hardware-modelling layer that the rest of the
reproduction is built on:

* :mod:`repro.hdl.netlist` -- a flat gate-level netlist representation
  (:class:`~repro.hdl.netlist.Netlist`, :class:`~repro.hdl.netlist.Cell`,
  :class:`~repro.hdl.netlist.Net`, :class:`~repro.hdl.netlist.Bus`).
* :mod:`repro.hdl.primitives` -- the primitive cell vocabulary (gates,
  multiplexors, flip-flops) with functional models used by the simulator.
* :mod:`repro.hdl.compiled` -- a levelised, event-driven compiled simulator
  that skips quiescent logic cones and unchanged flops; it runs every
  gate-level check (every generator's ``simulate()`` and so the sequence
  check ``verify``, through :func:`~repro.hdl.compiled.sample_outputs`) and
  power estimation.
* :mod:`repro.hdl.simulator` -- a cycle-accurate two-phase simulator for
  netlists built from those primitives: the reference implementation, kept
  as the oracle the compiled simulator must match bit for bit.
* :mod:`repro.hdl.components` -- structural generators for the mid-level
  building blocks used by the paper's address generators (binary counters,
  shift registers, decoders, comparators, adders, multiplexor trees).
* :mod:`repro.hdl.emit` -- VHDL / Verilog / DOT emitters.

The netlist layer is deliberately technology-agnostic: cells are referenced
by type name only.  Area and delay live in :mod:`repro.synth.cell_library`,
which maps the same type names onto a 0.18 um-class standard-cell model.
"""

from repro.hdl.compiled import CompiledSimulator
from repro.hdl.netlist import Bus, Cell, Net, Netlist, NetlistError
from repro.hdl.primitives import CellSpec, PRIMITIVES, is_sequential
from repro.hdl.simulator import Simulator, SimulationError

__all__ = [
    "Bus",
    "Cell",
    "Net",
    "Netlist",
    "NetlistError",
    "CellSpec",
    "PRIMITIVES",
    "is_sequential",
    "CompiledSimulator",
    "Simulator",
    "SimulationError",
]
