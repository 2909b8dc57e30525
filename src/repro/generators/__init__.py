"""Address-generator architectures.

All architectures share the :class:`~repro.generators.base.AddressGeneratorDesign`
interface (elaborate / simulate / verify / synthesize), where ``verify`` is
the gate-level sequence check: the simulated netlist must regenerate the
target sequence.

* :class:`~repro.core.addm_generator.SragAddressGenerator` -- the paper's
  SRAG.  It lives in :mod:`repro.core` with the mapping procedure it is
  built from, and is exported from there.
* :class:`~repro.generators.counter_based.CounterBasedAddressGenerator` --
  the CntAG baseline of Section 6 (loop counters + decoders).
* :class:`~repro.generators.arithmetic.ArithmeticAddressGenerator` -- the
  accumulator/stride style mentioned as the other conventional approach.
* :class:`~repro.generators.fsm_based.FsmAddressGenerator` -- the symbolic
  state machine baseline of Section 3.
* :class:`~repro.generators.sfm_pointer.SfmPointerGenerator` -- Aloqeely's
  Sequential FIFO Memory pointer pair (prior art, FIFO-only).
"""

from repro.generators.arithmetic import ArithmeticAddressGenerator
from repro.generators.base import AddressGeneratorDesign
from repro.generators.counter_based import (
    CounterBasedAddressGenerator,
    build_standalone_decoder,
    standalone_decoder_report,
)
from repro.generators.fsm_based import FsmAddressGenerator
from repro.generators.sfm_pointer import SfmPointerGenerator

__all__ = [
    "AddressGeneratorDesign",
    "ArithmeticAddressGenerator",
    "CounterBasedAddressGenerator",
    "FsmAddressGenerator",
    "SfmPointerGenerator",
    "build_standalone_decoder",
    "standalone_decoder_report",
]
