"""Top-level synthesis flow.

``run_synthesis_flow`` is the stand-in for "synthesise this design with
Design Compiler and read area/delay off the report": it validates the
netlist, optionally runs logic optimization (``spec.opt_level``), inserts
buffer trees on high-fanout nets, and runs static timing analysis and area
accounting against the chosen standard-cell library.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.flow import DEFAULT_SPEC, FlowSpec
from repro.hdl.netlist import Netlist
from repro.obs import phase
from repro.synth.area import area_report
from repro.synth.buffering import insert_buffer_trees
from repro.synth.opt import optimize_netlist
from repro.synth.report import SynthesisResult
from repro.synth.timing import timing_report

__all__ = ["run_synthesis_flow"]


def run_synthesis_flow(
    netlist: Netlist,
    *,
    spec: FlowSpec = DEFAULT_SPEC,
    name: Optional[str] = None,
    metadata: Optional[Dict[str, object]] = None,
    lint_context: Optional[Dict[str, object]] = None,
) -> SynthesisResult:
    """Optimize, buffer, time and measure ``netlist``; return a :class:`SynthesisResult`.

    Parameters
    ----------
    netlist:
        The design to evaluate.  Optimization and buffer insertion run on a
        private clone (the synthesis tool's working copy), so the caller's
        netlist is left untouched and can be re-synthesised -- under another
        library or opt level, say -- without accumulating rewrites.
    spec:
        The flow configuration (:class:`repro.flow.FlowSpec`); defaults to
        the all-defaults spec.  ``spec.library`` picks the standard-cell
        characterisation, ``spec.max_fanout`` the buffering threshold and
        ``spec.opt_level`` the logic-optimization effort (0 reports on the
        raw generated netlist, exactly as before optimization existed; 1
        runs the full :mod:`repro.synth.opt` pipeline before buffering and
        timing, the way a real synthesis tool always would).
    name:
        Report name; defaults to the netlist name.
    metadata:
        Extra key/value pairs propagated into the result.
    lint_context:
        Extra inputs for the design-rule checker when ``spec.lint`` is set
        (generators pass ``{"fsm": <FiniteStateMachine>}`` so reachability
        can be checked).  Ignored when linting is off.
    """
    cell_library = spec.resolve_library()
    # Every stage runs under a span (free when tracing is disabled); the
    # span tree is the per-stage breakdown.
    with phase("flow.validate"):
        netlist.validate()
        working_copy = netlist.clone()
    opt_report = None
    if spec.opt_level:
        with phase("flow.opt"):
            opt_report = optimize_netlist(working_copy, opt_level=spec.opt_level)
            # Cheap invariant check: optimization must hand buffering/timing
            # a structurally sound netlist or every figure downstream is
            # garbage.
            working_copy.validate()
    with phase("flow.buffer"):
        buffers = insert_buffer_trees(working_copy, max_fanout=spec.max_fanout)
    with phase("flow.timing"):
        timing = timing_report(working_copy, cell_library)
    with phase("flow.area"):
        area = area_report(working_copy, cell_library)
    # Lint is a pure diagnostic over the measured netlist: default-off, and
    # when off the cost is one falsy attribute test (floor-tested), so every
    # pre-existing flow is bit-identical in output *and* time.
    lint_report = None
    if spec.lint:
        from repro.lint.design import lint_netlist, rules_for_level

        with phase("flow.lint"):
            lint_report = lint_netlist(
                working_copy,
                library=cell_library,
                max_fanout=spec.max_fanout,
                fsm=(lint_context or {}).get("fsm"),
                rules=rules_for_level(spec.lint),
            )
    # CEC shares the lint contract: a default-off diagnostic that proves
    # the measured netlist still implements the caller's netlist, without
    # perturbing any measured figure.
    cec_report = None
    if spec.cec:
        from repro.verify.cec import check_equivalence

        with phase("flow.cec"):
            cec_report = check_equivalence(netlist, working_copy)
    return SynthesisResult(
        name=name or netlist.name,
        area=area,
        timing=timing,
        buffers_inserted=buffers,
        netlist=working_copy,
        opt_report=opt_report,
        lint_report=lint_report,
        cec_report=cec_report,
        metadata=dict(metadata or {}),
    )
