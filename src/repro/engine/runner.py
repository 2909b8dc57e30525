"""Campaign execution: fan jobs out, stream records back, merge Pareto fronts.

:class:`CampaignRunner` is the synchronous client of the dispatch layer:
pool ownership, chunking, caching and the per-future error policy all live
in :class:`~repro.engine.scheduler.Scheduler` (which the campaign service
shares across clients), while the runner maps one :class:`Campaign` through
one submission and merges the streamed records into a
:class:`CampaignResult` whose records are in campaign order -- so serial,
parallel and remote runs of the same campaign are bit-for-bit identical.
This module also hosts the worker-side pieces the scheduler dispatches
(:func:`evaluate_job`, :func:`_evaluate_batch`, :func:`_warm_worker`).
"""

from __future__ import annotations

import time
import traceback
import warnings
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.engine.cache import ResultCache
from repro.engine.jobs import Campaign, EvalJob, build_design
from repro.engine.pareto import pareto_min
from repro.flow import opt_label_suffix
from repro.obs import (
    NULL_SPAN,
    Tracer,
    get_tracer,
    metrics,
    set_tracer,
    span,
)
from repro.resilience.faults import fault_point
from repro.resilience.retry import DETERMINISTIC_ERRORS, RetryPolicy
from repro.synth.power import estimate_power

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.engine.scheduler import Scheduler

__all__ = ["CampaignResult", "CampaignRunner", "EvalRecord", "evaluate_job"]

#: Record status values.
OK, SKIPPED, ERROR = "ok", "skipped", "error"


@dataclass
class EvalRecord:
    """The outcome of one evaluation job.

    ``status`` is ``"ok"`` (metrics valid), ``"skipped"`` (architecture not
    applicable to the workload; ``note`` holds the reason) or ``"error"``
    (unexpected failure; ``note`` holds the traceback summary).

    ``energy_per_access_fj`` / ``avg_power_uw`` are NaN unless the job asked
    for the power study (``EvalJob.power_cycles > 0``); records cached before
    power existed load fine -- :meth:`from_dict` fills missing fields with
    their defaults.

    ``opt_level`` / ``opt_cells_removed`` record the logic-optimization
    setting and its win (net cells eliminated before buffering); both stay
    at their zero defaults -- and out of the cached dictionary form -- for
    jobs that do not opt in, so pre-optimization cache entries round-trip
    unchanged.

    ``lint_findings`` holds the design-rule findings (as plain dicts) when
    the job ran with ``spec.lint`` set.  Like ``cached`` it is *volatile*
    evaluation metadata, never part of the cached dictionary form: lint is a
    diagnostic over the evaluation, not part of it, so records written with
    linting on and off must be indistinguishable on disk (and a cached
    record legitimately satisfies a linted request).

    ``cec_result`` holds the formal-equivalence verdict (as a plain dict)
    when the job ran with ``spec.cec`` set; volatile under exactly the
    lint contract above.
    """

    workload: str
    rows: int
    cols: int
    style: str
    variant: str
    library: str
    key: str
    status: str
    delay_ns: float = float("nan")
    area_cells: float = float("nan")
    flip_flops: int = 0
    total_cells: int = 0
    buffers_inserted: int = 0
    energy_per_access_fj: float = float("nan")
    avg_power_uw: float = float("nan")
    opt_level: int = 0
    opt_cells_removed: int = 0
    note: str = ""
    duration_s: float = 0.0
    cached: bool = False
    lint_findings: List[dict] = field(default_factory=list)
    cec_result: Optional[dict] = None

    @property
    def has_power(self) -> bool:
        """True when the record carries power-study metrics."""
        return self.energy_per_access_fj == self.energy_per_access_fj

    @property
    def label(self) -> str:
        """Compact display label, e.g. ``fifo 8x8 SRAG[two-hot] O1``."""
        return (
            f"{self.workload} {self.rows}x{self.cols} "
            f"{self.style}[{self.variant}]{opt_label_suffix(self.opt_level)}"
        )

    def to_dict(self) -> dict:
        """Plain-dict form stored in the result cache (``cached`` and the
        diagnostics excluded).

        The power fields are omitted when the study did not run, and the
        optimization fields when the job ran at the default ``opt_level=0``,
        so cache entries for jobs predating either feature keep their exact
        original format (and NaN never has to survive a JSON round-trip).
        """
        data = asdict(self)
        data.pop("cached")
        data.pop("lint_findings")
        data.pop("cec_result")
        if not self.has_power:
            data.pop("energy_per_access_fj")
            data.pop("avg_power_uw")
        if not self.opt_level:
            data.pop("opt_level")
            data.pop("opt_cells_removed")
        return data

    @classmethod
    def from_dict(cls, data: dict, *, cached: bool = False) -> "EvalRecord":
        """Rebuild a record from its cached dictionary form."""
        known = {f for f in cls.__dataclass_fields__ if f != "cached"}
        return cls(cached=cached, **{k: v for k, v in data.items() if k in known})


def _warm_worker() -> None:
    """Process-pool initializer: pre-import the evaluation stack.

    Run once per worker process instead of lazily on its first job, so the
    import and registry-construction cost overlaps with job submission and
    every job -- including the first one a worker sees -- pays only for its
    own evaluation.

    Also detaches the signal plumbing a fork-started worker inherits from
    an asyncio parent: ``loop.add_signal_handler`` registers a wakeup fd
    (a self-pipe the event loop reads), and after ``fork`` the worker
    shares that pipe.  A signal delivered to the *worker* -- e.g. the
    SIGTERM ``ProcessPoolExecutor`` sends its survivors when a sibling
    crashes and the pool breaks -- would be written into the shared pipe
    and replayed as the *parent's* signal, gracefully shutting down the
    campaign service mid-rebuild.  Resetting the dispositions and wakeup
    fd keeps worker-directed signals in the worker.
    """
    import signal

    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from repro.hdl import primitives
    from repro.synth import cell_library
    from repro.workloads.registry import available_workloads

    available_workloads()
    # Touching the tables forces their module-level construction here.
    assert primitives.PRIMITIVES and cell_library.LIBRARIES


#: Shape of one worker batch result: the records, the serialised span trees
#: recorded while evaluating them (empty unless the parent traces), and the
#: worker-side metrics counter delta for the batch.
BatchResult = Tuple[List[EvalRecord], List[Dict[str, Any]], Dict[str, Any]]


def _evaluate_batch(jobs: List[EvalJob], collect_spans: bool = False) -> BatchResult:
    """Evaluate a chunk of jobs in one worker call (amortises pickling).

    This is the worker-side telemetry collector: metric increments made
    while evaluating the batch are snapshotted and shipped back as a delta,
    and -- when the dispatching parent traces (``collect_spans``) -- the
    batch runs under a fresh tracer whose span trees are serialised into the
    return value so the parent can re-parent them under its dispatch span.
    """
    fault_point("scheduler.worker")
    before = metrics.snapshot()
    if collect_spans:
        previous = get_tracer()
        tracer = set_tracer(Tracer(enabled=True))
        try:
            records = [evaluate_job(job) for job in jobs]
        finally:
            set_tracer(previous)
        spans = [root.to_dict() for root in tracer.roots]
    else:
        records = [evaluate_job(job) for job in jobs]
        spans = []
    return records, spans, metrics.counters_since(before)


def evaluate_job(job: EvalJob) -> EvalRecord:
    """Evaluate one job: build the pattern and design, synthesise, measure.

    Never raises: inapplicable architectures come back as ``skipped`` records
    and unexpected failures as ``error`` records, so one bad grid point
    cannot take down a campaign (or a worker process).

    With tracing enabled the evaluation runs under an ``evaluate_job`` span
    with one child span per phase (``job.pattern``, ``job.mapping``,
    ``job.synthesize`` with the ``flow.*`` stages under it, ``job.power``);
    :func:`~repro.obs.collect_phase_totals` over that span gives the
    record's per-stage breakdown.
    """
    start = time.perf_counter()
    spec = job.spec
    base = dict(
        workload=job.workload,
        rows=job.rows,
        cols=job.cols,
        style=job.style,
        variant=job.variant,
        library=spec.library,
        key=job.key,
        # Part of the base so skipped/error records keep the grid axis too.
        opt_level=spec.opt_level,
    )
    with span("evaluate_job", detail=job.label):
        try:
            # Inside the try: an injected exception classifies exactly like
            # a real one (deterministic -> skipped, transient -> error).
            fault_point("runner.evaluate")
            with span("job.pattern"):
                pattern = job.pattern()
            if job.style == "FSM" and pattern.trip_count > spec.max_fsm_states:
                return EvalRecord(
                    status=SKIPPED,
                    note=(
                        f"sequence length {pattern.trip_count} exceeds "
                        f"max_fsm_states={spec.max_fsm_states}"
                    ),
                    duration_s=time.perf_counter() - start,
                    **base,
                )
            with span("job.mapping"):
                design = build_design(pattern, job.style, job.variant)
            with span("job.synthesize"):
                result = design.synthesize(spec=spec)
            power: Dict[str, float] = {}
            if spec.power_cycles:
                # Measure on the buffered working copy the area/delay figures
                # came from, so inserted buffer trees pay their switching
                # energy.
                with span("job.power"):
                    report = estimate_power(
                        result.netlist,
                        library=spec.resolve_library(),
                        cycles=spec.power_cycles,
                    )
                power = {
                    "energy_per_access_fj": report.energy_per_access_fj,
                    "avg_power_uw": report.average_power_uw,
                }
            lint_findings = (
                [finding.to_dict() for finding in result.lint_report.findings]
                if result.lint_report is not None
                else []
            )
            cec_result = (
                result.cec_report.to_dict()
                if result.cec_report is not None
                else None
            )
        except DETERMINISTIC_ERRORS as error:
            return EvalRecord(
                status=SKIPPED,
                note=str(error),
                duration_s=time.perf_counter() - start,
                **base,
            )
        except Exception:  # pragma: no cover - defensive; surfaced in the record
            return EvalRecord(
                status=ERROR,
                note=traceback.format_exc(limit=3),
                duration_s=time.perf_counter() - start,
                **base,
            )
        return EvalRecord(
            status=OK,
            delay_ns=result.delay_ns,
            area_cells=result.area_cells,
            flip_flops=result.area.flip_flop_count,
            total_cells=sum(result.area.cell_counts.values()),
            buffers_inserted=result.buffers_inserted,
            opt_cells_removed=(
                result.opt_report.cells_removed if result.opt_report else 0
            ),
            duration_s=time.perf_counter() - start,
            lint_findings=lint_findings,
            cec_result=cec_result,
            **power,
            **base,
        )


GroupKey = Tuple[str, int, int, str]  # (workload, rows, cols, library)


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    campaign: str
    records: List[EvalRecord] = field(default_factory=list)

    # -------------------------------------------------------------- queries
    @property
    def hits(self) -> int:
        """Number of records served from the cache."""
        return sum(1 for record in self.records if record.cached)

    @property
    def evaluated(self) -> int:
        """Number of records evaluated fresh in this run."""
        return len(self.records) - self.hits

    def ok_records(self) -> List[EvalRecord]:
        """Records with valid metrics."""
        return [record for record in self.records if record.status == OK]

    def groups(self) -> Dict[GroupKey, List[EvalRecord]]:
        """Successful records grouped by (workload, rows, cols, library)."""
        grouped: Dict[GroupKey, List[EvalRecord]] = {}
        for record in self.ok_records():
            key = (record.workload, record.rows, record.cols, record.library)
            grouped.setdefault(key, []).append(record)
        return grouped

    def pareto_fronts(self) -> Dict[GroupKey, List[EvalRecord]]:
        """Per-group Pareto fronts minimising (delay, area)."""
        return {
            key: pareto_min(records, key=lambda r: (r.delay_ns, r.area_cells))
            for key, records in self.groups().items()
        }

    # ------------------------------------------------------------ reporting
    def describe(self) -> str:
        """Multi-line campaign summary with per-group Pareto fronts."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        lines = [
            f"campaign {self.campaign!r}: {len(self.records)} points "
            f"({counts.get(OK, 0)} ok, {counts.get(SKIPPED, 0)} skipped, "
            f"{counts.get(ERROR, 0)} errors); "
            f"cache hits {self.hits}/{len(self.records)}"
        ]
        for group_key, front in sorted(self.pareto_fronts().items()):
            workload, rows, cols, library = group_key
            lines.append(f"  {workload} {rows}x{cols} @{library}:")
            for record in sorted(front, key=lambda r: r.delay_ns):
                style = f"{record.style}[{record.variant}]"
                style += opt_label_suffix(record.opt_level)
                power = (
                    f"   e/access {record.energy_per_access_fj:8.1f} fJ"
                    if record.has_power
                    else ""
                )
                lines.append(
                    f"    * {style:<18} delay {record.delay_ns:7.3f} ns   "
                    f"area {record.area_cells:10.1f} cu   FFs {record.flip_flops}"
                    f"{power}"
                )
        return "\n".join(lines)


class CampaignRunner:
    """Run campaigns against a result cache, serially or in parallel.

    Since the scheduler split, the runner is a thin *synchronous client* of
    :class:`repro.engine.scheduler.Scheduler`: the warmed process pool,
    chunking heuristic, per-future error policy and cache writes all live in
    the scheduler, and :meth:`run` just submits the campaign's jobs and
    drains the resulting record stream in campaign order.  The public API
    and result semantics are unchanged.

    Parameters
    ----------
    cache:
        Result store to consult and populate; defaults to a fresh in-memory
        cache (no persistence).
    workers:
        Worker process count.  ``None`` picks ``min(cpu_count, 8)``;
        ``0``/``1`` runs serially in-process.
    progress:
        Optional callback invoked as ``progress(record, done, total)`` as
        each record becomes available (cached records first, then fresh ones
        in completion order).
    chunk_size:
        Jobs per worker submission.  ``None`` (the default) picks a size
        that spreads the pending jobs over roughly four batches per worker,
        amortising per-submit pickling without starving the pool of
        parallelism; ``1`` restores one-future-per-job dispatch.
    retry_policy:
        Optional :class:`~repro.resilience.retry.RetryPolicy` forwarded to
        the private scheduler: transient (``error``) records are re-run
        under bounded deterministic backoff before being surfaced.
    rebuild_budget:
        How many broken-pool rebuilds the private scheduler performs before
        degrading to serial evaluation (default 2).
    scheduler:
        An existing :class:`~repro.engine.scheduler.Scheduler` to run
        against instead of constructing a private one -- this is how
        several runners (or the campaign service) share one pool, one cache
        and one in-flight dedup table.  Mutually exclusive with ``cache`` /
        ``workers`` / ``chunk_size`` / ``retry_policy`` /
        ``rebuild_budget``, which configure the private scheduler.  A
        shared scheduler is *not* closed by the runner.

    One worker pool is kept alive across the runner's lifetime, so a
    sequence of ``run()`` calls (a campaign sweep, an explorer session)
    pays process startup and the per-worker registry warm-up exactly once.
    Use the runner as a context manager -- or call :meth:`close` -- to shut
    the pool down deterministically; a runner whose still-warm private pool
    is instead reclaimed by the garbage collector emits a
    ``ResourceWarning``.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        *,
        workers: Optional[int] = None,
        progress: Optional[Callable[[EvalRecord, int, int], None]] = None,
        chunk_size: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        rebuild_budget: Optional[int] = None,
        scheduler: Optional["Scheduler"] = None,
    ):
        if scheduler is not None:
            if (
                cache is not None
                or workers is not None
                or chunk_size is not None
                or retry_policy is not None
                or rebuild_budget is not None
            ):
                raise ValueError(
                    "scheduler= is mutually exclusive with cache=/workers=/"
                    "chunk_size=/retry_policy=/rebuild_budget=; configure "
                    "the shared Scheduler instead"
                )
            self._scheduler = scheduler
            self._owns_scheduler = False
        else:
            # Imported here, not at module top: scheduler.py imports the
            # evaluation primitives from this module.
            from repro.engine.scheduler import Scheduler

            self._scheduler = Scheduler(
                cache,
                workers=workers,
                chunk_size=chunk_size,
                retry_policy=retry_policy,
                rebuild_budget=2 if rebuild_budget is None else rebuild_budget,
            )
            self._owns_scheduler = True
        self.progress = progress
        self._closed = False

    # ----------------------------------------------------------- delegation
    @property
    def scheduler(self) -> "Scheduler":
        """The scheduler this runner submits to (private or shared)."""
        return self._scheduler

    @property
    def cache(self) -> ResultCache:
        return self._scheduler.cache

    @property
    def workers(self) -> int:
        return self._scheduler.workers

    @property
    def chunk_size(self) -> Optional[int]:
        return self._scheduler.chunk_size

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut down the private scheduler's worker pool (idempotent).

        A shared scheduler (``scheduler=`` at construction) is left
        running: its lifetime belongs to whoever created it.
        """
        self._closed = True
        if self._owns_scheduler:
            self._scheduler.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown dependent
        scheduler = getattr(self, "_scheduler", None)
        if (
            scheduler is not None
            and getattr(self, "_owns_scheduler", False)
            and not getattr(self, "_closed", True)
            and scheduler._pool is not None
        ):
            warnings.warn(
                "unclosed CampaignRunner reclaimed by the garbage collector; "
                "call close() or use it as a context manager",
                ResourceWarning,
                source=self,
            )
        if scheduler is not None and getattr(self, "_owns_scheduler", False):
            scheduler.close()

    # ------------------------------------------------------------------ run
    def run(self, campaign: Campaign, *, force: bool = False) -> CampaignResult:
        """Evaluate ``campaign``, reusing cached records unless ``force``.

        Records come back in campaign order regardless of worker completion
        order, so serial and parallel runs produce identical results.
        """
        total = len(campaign.jobs)
        done = 0
        by_key: Dict[str, EvalRecord] = {}
        # Campaigns may legitimately contain duplicate keys (a grid that
        # revisits a point); the scheduler evaluates each key once but every
        # occurrence must still advance the progress counter, or `done`
        # never reaches `total`.
        occurrences: Dict[str, int] = {}
        for job in campaign.jobs:
            occurrences[job.key] = occurrences.get(job.key, 0) + 1

        with span("campaign.run", detail=campaign.name) as run_span:
            with span("campaign.dispatch") as dispatch_span:
                submission = self._scheduler.submit(campaign.jobs, force=force)
                pending = submission.expected - len(submission.cached_keys)
                run_span.add("jobs", total)
                run_span.add(
                    "cache_hits",
                    sum(occurrences[key] for key in submission.cached_keys),
                )
                run_span.add("pending", pending)
                if dispatch_span is not NULL_SPAN:
                    dispatch_span.detail = f"{pending} pending job(s)"
                for record in submission.results():
                    by_key[record.key] = record
                    for _ in range(occurrences.get(record.key, 1)):
                        done += 1
                        if self.progress:
                            self.progress(record, done, total)

        records = [by_key[job.key] for job in campaign.jobs]
        return CampaignResult(campaign=campaign.name, records=records)
