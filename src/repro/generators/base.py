"""Common interface for address-generator designs.

Every architecture the library can build -- the SRAG, the counter-based
CntAG, the arithmetic-based generator, the symbolic-FSM generator and the
SFM pointer pair -- is wrapped in an :class:`AddressGeneratorDesign` so the
experiment harnesses and the design-space explorer can treat them uniformly:
elaborate, verify by simulation, synthesise, and compare area/delay.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from repro.flow import DEFAULT_SPEC, FlowSpec
from repro.hdl.netlist import Netlist
from repro.obs import phase
from repro.synth.flow import run_synthesis_flow
from repro.synth.report import SynthesisResult
from repro.workloads.sequences import AddressSequence

__all__ = ["AddressGeneratorDesign"]


class AddressGeneratorDesign(abc.ABC):
    """Abstract base for all address-generator architectures.

    Subclasses implement :meth:`elaborate` (build a fresh netlist) and
    :meth:`simulate` (produce the linear address sequence the hardware
    generates).  The base class provides caching, synthesis and verification
    on top of those two primitives.
    """

    #: Short architecture label used in reports (e.g. ``"SRAG"``, ``"CntAG"``).
    style: str = "generic"

    def __init__(self, sequence: AddressSequence, name: Optional[str] = None):
        self.sequence = sequence
        self.name = name or f"{self.style.lower()}_{sequence.name}"
        self._netlist: Optional[Netlist] = None

    # ------------------------------------------------------------- interface
    @abc.abstractmethod
    def elaborate(self) -> Netlist:
        """Build and return a fresh structural netlist for this design."""

    @abc.abstractmethod
    def simulate(self, cycles: Optional[int] = None) -> List[int]:
        """Linear addresses the design produces over ``cycles`` cycles."""

    # ------------------------------------------------------------ conveniences
    @property
    def netlist(self) -> Netlist:
        """The elaborated netlist (cached after the first elaboration)."""
        if self._netlist is None:
            self._netlist = self.elaborate()
        return self._netlist

    def invalidate(self) -> None:
        """Drop the cached netlist so the next access re-elaborates."""
        self._netlist = None

    def verify(self, cycles: Optional[int] = None) -> bool:
        """The gate-level sequence check: the simulated netlist must
        regenerate the target sequence (periodically, for ``cycles`` beyond
        its length)."""
        steps = cycles if cycles is not None else self.sequence.length
        produced = self.simulate(steps)
        expected = [
            self.sequence.linear[i % self.sequence.length] for i in range(steps)
        ]
        return produced == expected

    def lint_context(self) -> Dict[str, object]:
        """Extra inputs for the design-rule checker (``spec.lint``).

        Architectures with checkable high-level structure override this;
        the FSM generator returns ``{"fsm": <FiniteStateMachine>}`` so the
        reachability rule can run against the symbolic machine.
        """
        return {}

    def synthesize(
        self,
        spec: FlowSpec = DEFAULT_SPEC,
        *,
        metadata: Optional[Dict[str, object]] = None,
    ) -> SynthesisResult:
        """Run the synthesis flow on the design's netlist.

        The flow is configured by ``spec`` (:class:`repro.flow.FlowSpec`;
        defaults to the all-defaults spec).  It optimizes and buffers a
        private clone of the netlist, so repeated synthesis runs (under
        different specs, say) all start from the same raw design.
        """
        # Elaboration ("logic synthesis": building the structural netlist,
        # including any FSM minimisation) is attributed as its own flow
        # stage; note the cached-netlist fast path makes repeat synthesis
        # report a near-zero elaborate time, which is itself informative.
        with phase("flow.elaborate"):
            netlist = self.netlist
        info: Dict[str, object] = {
            "style": self.style,
            "workload": self.sequence.name,
            "rows": self.sequence.rows,
            "cols": self.sequence.cols,
            "accesses": self.sequence.length,
        }
        info.update(metadata or {})
        return run_synthesis_flow(
            netlist,
            spec=spec,
            name=self.name,
            metadata=info,
            lint_context=self.lint_context() if spec.lint else None,
        )
