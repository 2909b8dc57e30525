"""Synthesis and estimation layer.

This package plays the role that Synopsys Design Compiler and the 0.18 um
CMOS standard-cell library play in the paper: it assigns area and delay to a
structural netlist and provides the logic-synthesis machinery (two-level
minimisation, FSM state encoding and synthesis) needed to build the symbolic
state machine baseline of Section 3.

Main entry points
-----------------
* :data:`repro.synth.cell_library.STD018` -- the calibrated 0.18 um-class cell
  library (area in "cell units", logical-effort delay parameters).
* :func:`repro.synth.flow.run_synthesis_flow` -- buffer high-fanout nets, run
  static timing analysis and area accounting, and return a
  :class:`~repro.synth.report.SynthesisResult`.
* :mod:`repro.synth.logic` -- truth tables, Quine-McCluskey / heuristic
  two-level minimisation and SOP-to-netlist synthesis.
* :mod:`repro.synth.fsm` -- symbolic FSM model, state encodings and FSM
  synthesis (the paper's "symbolic state machine" baseline).
"""

# Not re-exported here: repro.synth.flow imports repro.flow, which imports
# this package's cell library while it initialises, so importing the flow
# from this package would be an import cycle.
from repro.synth.area import AreaReport, area_report
from repro.synth.buffering import insert_buffer_trees
from repro.synth.cell_library import CellCharacteristics, CellLibrary, STD018
from repro.synth.report import SynthesisResult
from repro.synth.timing import TimingReport, timing_report

__all__ = [
    "AreaReport",
    "area_report",
    "insert_buffer_trees",
    "CellCharacteristics",
    "CellLibrary",
    "STD018",
    "SynthesisResult",
    "TimingReport",
    "timing_report",
]

