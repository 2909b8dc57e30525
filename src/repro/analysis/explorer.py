"""Design-space exploration across address-generator styles.

The paper's closing goal is "to discover algorithms and heuristics which can
explore the vast design space opened up by address decoder decoupling at a
high level of abstraction and choose the best architecture".  This module is
the interactive, single-workload face of that explorer: :func:`explore` runs
a one-workload campaign -- every architecture in
:data:`repro.engine.jobs.STYLE_VARIANTS` -- through the campaign engine, and
:func:`describe_design_space` renders its area/delay points with the Pareto
frontier marked.  For grid-scale exploration with caching and parallelism
use ``sradgen --campaign`` or :class:`repro.engine.CampaignRunner` directly.
"""

from __future__ import annotations

from repro.engine.jobs import STYLE_VARIANTS, Campaign, EvalJob
from repro.engine.pareto import pareto_min
from repro.engine.runner import OK, SKIPPED, CampaignResult, CampaignRunner, EvalRecord
from repro.flow import DEFAULT_SPEC, FlowSpec
from repro.workloads.registry import build_pattern

__all__ = ["describe_design_space", "explore"]


def explore(
    workload: str,
    rows: int,
    cols: int,
    *,
    spec: FlowSpec = DEFAULT_SPEC,
) -> CampaignResult:
    """Evaluate every architecture for registry workload ``workload`` on a
    ``rows x cols`` array.

    The jobs run serially in process on a :class:`CampaignRunner` with an
    in-memory cache, so each candidate is one
    :func:`~repro.engine.runner.evaluate_job`: architectures that cannot
    implement the pattern (SRAG restrictions, SFM's FIFO-only limitation,
    non-power-of-two arrays for the arithmetic style) come back as
    ``skipped`` records with the reason, and an unexpected failure as an
    ``error`` record, so one candidate cannot take down the exploration.
    The result's ``campaign`` name is the workload's sequence name.

    Parameters
    ----------
    spec:
        Flow configuration (:class:`repro.flow.FlowSpec`) applied at every
        design point; defaults to the all-defaults spec.  ``spec.fsm_encodings``
        selects the symbolic-FSM candidates, ``spec.max_fsm_states`` omits
        them for sequences longer than that bound (keeping exploration time
        bounded; the blow-up itself is measured by the synthesis-effort
        benchmark instead), and ``spec.opt_level`` sets the
        logic-optimization effort (0 = raw netlists, the historical
        behaviour).
    """
    pattern = build_pattern(workload, rows, cols)
    fsm_fits = pattern.trip_count <= spec.max_fsm_states
    jobs = [
        EvalJob(workload, rows, cols, style, variant, spec)
        for style, variant in STYLE_VARIANTS
        if style != "FSM" or (fsm_fits and variant in spec.fsm_encodings)
    ]
    with CampaignRunner(workers=0) as runner:
        return runner.run(Campaign(pattern.to_sequence().name, jobs))


def describe_design_space(result: CampaignResult) -> str:
    """The design-space table of an :func:`explore` result.

    Applicable points are sorted by delay, with ``*`` on the (delay, area)
    Pareto front; skipped points show why the architecture does not apply
    and error points the first line of their failure.
    """
    lines = [f"design space for {result.campaign}:"]
    points = result.ok_records()
    front = {id(r) for r in pareto_min(points, key=lambda r: (r.delay_ns, r.area_cells))}
    for record in sorted(points, key=lambda r: r.delay_ns):
        marker = "*" if id(record) in front else " "
        lines.append(
            f" {marker} {_label(record):<22} delay {record.delay_ns:6.2f} ns   "
            f"area {record.area_cells:10.0f} cu   FFs {record.flip_flops}"
        )
    for record in result.records:
        if record.status == SKIPPED:
            lines.append(f"   {_label(record):<22} not applicable: {record.note}")
        elif record.status != OK:
            first_line = (record.note.splitlines() or [""])[0]
            lines.append(f"   {_label(record):<22} {record.status}: {first_line}")
    lines.append("(* = Pareto-optimal)")
    return "\n".join(lines)


def _label(record: EvalRecord) -> str:
    return f"{record.style}[{record.variant}]"
