"""The workloads: set-up, one request, and the check of its output.

Every workload is a closed loop with one caller: the next request is sent
only when the previous one has returned.  A request is what one user action
costs -- one ``generate()`` call, one ``CampaignRunner.run`` with the runner
and pool a CLI invocation builds, one service round trip -- and its latency
covers the program's work only; checking the output happens afterwards.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from perfbench import inputs

__all__ = [
    "Context",
    "Outcome",
    "WORKLOADS",
    "clear_memos",
    "reap_children",
    "record_digest",
    "vhdl_digest",
]

#: Design-point evaluation uses a pool of this many workers.
POOL_WORKERS = 2

_SERVER_START_TIMEOUT_S = 60.0
_SERVER_STOP_TIMEOUT_S = 20.0


@dataclass
class Context:
    """What every workload needs: its inputs' seed and where to write."""

    seed: int
    size: str
    src: str
    scratch: str
    expected: Dict[str, Dict]
    probe: object
    workers: int = POOL_WORKERS


@dataclass
class Outcome:
    """One finished request."""

    latency_s: float
    points: int
    jobs: int
    error: Optional[str] = None


# ------------------------------------------------------------------- helpers
def clear_memos() -> None:
    """Empty the in-process memo caches a fresh ``sradgen`` process starts
    without.  Forked pool workers inherit the parent's, so this also makes
    the next pool start cold."""
    import importlib

    from repro.workloads import registry

    registry._cached_pattern.cache_clear()
    importlib.import_module("repro.synth.logic.minimize")._minimize_cached.cache_clear()


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every worker process a closed pool left behind."""
    for child in multiprocessing.active_children():
        child.join(timeout)


def record_digest(record) -> str:
    """SHA-256 of an ``EvalRecord``'s cached form with its timing zeroed."""
    data = record.to_dict()
    data["duration_s"] = 0.0
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode("utf-8")
    ).hexdigest()


def vhdl_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_jobs(plans: Sequence[inputs.JobPlan]) -> List:
    from repro.engine.jobs import EvalJob
    from repro.flow import FlowSpec

    return [
        EvalJob(
            workload,
            rows,
            cols,
            style,
            variant,
            spec=FlowSpec(library=library, **inputs.flow_kwargs(flow)),
        )
        for workload, rows, cols, style, variant, library, flow in plans
    ]


def check_records(
    plans: Sequence[inputs.JobPlan],
    jobs: Sequence,
    records: Dict[str, object],
    expected: Dict[str, str],
    *,
    cached: bool,
) -> Optional[str]:
    """First mismatch between ``records`` (by job key) and the expected
    digests, or ``None``.  Error records and wrong cache flags count."""
    for plan, job in zip(plans, jobs):
        label = inputs.job_label(plan)
        record = records.get(job.key)
        if record is None:
            return f"{label}: no record returned"
        if record.status == "error":
            return f"{label}: error record: {record.note.strip()[-200:]}"
        if record.cached != cached:
            return f"{label}: cached={record.cached}, expected {cached}"
        digest = record_digest(record)
        if digest != expected.get(label):
            return f"{label}: record digest {digest[:16]} != expected {str(expected.get(label))[:16]}"
    return None


def run_campaign(ctx: Context, cache, name: str, jobs: List):
    """One ``CampaignRunner.run`` with a fresh runner and pool."""
    from repro.engine.jobs import Campaign
    from repro.engine.runner import CampaignRunner

    with CampaignRunner(cache, workers=ctx.workers) as runner:
        return runner.run(Campaign(name, jobs))


def prefill(ctx: Context) -> str:
    """Evaluate the whole warm universe into a fresh cache directory."""
    from repro.engine.cache import ResultCache

    clear_memos()
    directory = tempfile.mkdtemp(prefix="warm-", dir=ctx.scratch)
    run_campaign(ctx, ResultCache(directory), "perfbench-prefill",
                 build_jobs(inputs.warm_universe(ctx.size)))
    reap_children()
    return directory


def warm_replay(ctx: Context, directory: str, plans: Sequence[inputs.JobPlan]) -> Outcome:
    """``sradgen --campaign`` re-run: open the filled cache, replay ``plans``
    with a new runner; every record must come back cached."""
    from repro.engine.cache import ResultCache

    probe = ctx.probe
    start = time.perf_counter()
    with probe.timed("campaign.build_s"):
        jobs = build_jobs(plans)
    cache = ResultCache(directory)
    with probe.timed("engine.cache_load_s"):
        len(cache)  # the load a first lookup would trigger
    result = run_campaign(ctx, cache, "perfbench-warm", jobs)
    latency = time.perf_counter() - start
    with probe.paused():
        records = {record.key: record for record in result.records}
        error = check_records(plans, jobs, records, ctx.expected["records"], cached=True)
    return Outcome(latency, len(result.records), len(jobs), error)


# ----------------------------------------------------------------- workloads
class Workload:
    name = ""
    #: The loop stops only between whole rounds of this many requests.
    round_size = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def set_up(self) -> None:
        """Prepare one request loop; may run several times, with
        :meth:`tear_down` in between."""

    def tear_down(self) -> None:
        """Release what :meth:`set_up` made; stop what it started."""

    def request(self, index: int) -> Optional[Outcome]:
        """Run request ``index``; ``None`` once the inputs are used up."""
        raise NotImplementedError


class GenerateVerify(Workload):
    """``sradgen --workload ... --report`` on its default path."""

    name = "generate-verify"

    def set_up(self) -> None:
        self.plan = inputs.generate_plan(self.ctx.seed, self.ctx.size)
        self.round_size = inputs.generate_round(self.ctx.size)

    def request(self, index: int) -> Optional[Outcome]:
        from repro.core.sradgen import generate
        from repro.workloads import registry

        if index >= len(self.plan):
            return None
        workload, rows, cols = self.plan[index]
        clear_memos()
        start = time.perf_counter()
        with self.ctx.probe.timed("workloads.pattern_s"):
            sequence = registry.build_pattern(workload, rows, cols).to_sequence()
        result = generate(sequence, synthesize=True, verify=True)
        latency = time.perf_counter() - start
        label = f"{workload}/{rows}x{cols}"
        want = self.ctx.expected["generate"].get(label)
        got = {
            "vhdl_sha256": vhdl_digest(result.vhdl),
            "area_cells": result.synthesis.area_cells,
            "delay_ns": result.synthesis.delay_ns,
        }
        error = None if got == want else f"{label}: generated {got} != expected {want}"
        return Outcome(latency, 1, 0, error)


class CampaignCold(Workload):
    """``sradgen --campaign`` on an empty cache, one fresh process's worth."""

    name = "campaign-cold"

    def request(self, index: int) -> Optional[Outcome]:
        from repro.engine.cache import ResultCache

        plans = inputs.cold_request(self.ctx.seed, index, self.ctx.size)
        clear_memos()
        directory = tempfile.mkdtemp(prefix="cold-", dir=self.ctx.scratch)
        try:
            start = time.perf_counter()
            with self.ctx.probe.timed("campaign.build_s"):
                jobs = build_jobs(plans)
            result = run_campaign(self.ctx, ResultCache(directory), "perfbench-cold", jobs)
            latency = time.perf_counter() - start
        finally:
            reap_children()
            shutil.rmtree(directory, ignore_errors=True)
        with self.ctx.probe.paused():
            records = {record.key: record for record in result.records}
            error = check_records(plans, jobs, records, self.ctx.expected["records"], cached=False)
        return Outcome(latency, len(result.records), len(jobs), error)


class ServiceReplay(Workload):
    """A ``--connect`` round trip of a warm job list to ``sradgen --serve``.

    :meth:`replay_locally` sends the same job list through a local
    ``CampaignRunner`` instead: the traced run uses it to measure the warm
    side of ``repro.engine`` (cache load and reads, ``EvalJob.key``), which
    runs inside the server during a round trip.
    """

    name = "service-replay"

    def set_up(self) -> None:
        from repro.engine.cache import ResultCache
        from repro.service.client import ServiceClient

        self.directory = prefill(self.ctx)
        # What a local warm replay returns, for the byte-identity check.
        universe = build_jobs(inputs.warm_universe(self.ctx.size))
        local = run_campaign(self.ctx, ResultCache(self.directory), "perfbench-local", universe)
        self.local = {record.key: record.to_dict() for record in local.records}
        self.server = self._start_server()
        self.loop = asyncio.new_event_loop()
        self.client = ServiceClient(*self.address)
        try:
            self.loop.run_until_complete(self.client.connect())
        except BaseException:
            self.loop.close()
            self._stop(self.server)
            raise

    def _start_server(self) -> subprocess.Popen:
        env = dict(os.environ, PYTHONPATH=self.ctx.src)
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "--serve",
                "--cache-dir", self.directory,
                "--port", "0",
                "--workers", str(self.ctx.workers),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        deadline = time.monotonic() + _SERVER_START_TIMEOUT_S
        line = ""
        while not line and time.monotonic() < deadline:
            ready, _, _ = select.select([server.stdout], [], [], 0.5)
            if ready:
                line = server.stdout.readline()
                if not line:
                    break  # the server exited
        if "listening on" not in line:
            self._stop(server)
            raise RuntimeError(f"sradgen --serve did not start: {line!r}")
        host, _, port = line.rsplit(" ", 1)[1].strip().rpartition(":")
        self.address = (host, int(port))
        return server

    @staticmethod
    def _stop(server: subprocess.Popen) -> None:
        server.terminate()
        try:
            server.wait(_SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def tear_down(self) -> None:
        try:
            self.loop.run_until_complete(self.client.close())
            self.loop.close()
        finally:
            self._stop(self.server)
            shutil.rmtree(self.directory, ignore_errors=True)

    def replay_locally(self, index: int) -> Outcome:
        plans = inputs.service_request(self.ctx.seed, index, self.ctx.size)
        return warm_replay(self.ctx, self.directory, plans)

    def _server_counters(self) -> Dict[str, float]:
        with self.ctx.probe.paused():
            return self.loop.run_until_complete(self.client.metrics())

    def request(self, index: int) -> Optional[Outcome]:
        from repro.engine.runner import EvalRecord
        from repro.service.protocol import job_to_wire

        plans = inputs.service_request(self.ctx.seed, index, self.ctx.size)
        probe = self.ctx.probe
        before = self._server_counters() if probe.enabled else {}
        first: List[float] = []

        def on_record(event) -> None:
            if not first:
                first.append(time.perf_counter())

        cpu_start = time.process_time()
        start = time.perf_counter()
        with probe.timed("campaign.build_s"):
            jobs = build_jobs(plans)
        with probe.timed("service.client_encode_s"):
            wire = [job_to_wire(job) for job in jobs]
        events, _ = self.loop.run_until_complete(
            self.client.run_jobs(wire, on_record=on_record)
        )
        records = {}
        for event in events:
            record = EvalRecord.from_dict(event["record"], cached=bool(event.get("cached")))
            records[record.key] = record
        latency = time.perf_counter() - start
        probe.note("service.wait_s", latency - (time.process_time() - cpu_start))
        if first:
            probe.note("service.first_record_s", first[0] - start)
        if probe.enabled:
            after = self._server_counters()
            for note, counter in (
                ("service.server_cache_hits", "cache.hits"),
                ("service.server_evaluations", "scheduler.evaluations"),
            ):
                probe.note(note, after.get(counter, 0) - before.get(counter, 0))
        with probe.paused():
            error = check_records(plans, jobs, records, self.ctx.expected["records"], cached=True)
            if error is None:
                error = next(
                    (
                        f"{inputs.job_label(plan)}: service record differs from local replay"
                        for plan, job in zip(plans, jobs)
                        if records[job.key].to_dict() != self.local[job.key]
                    ),
                    None,
                )
        return Outcome(latency, len(records), len(jobs), error)


WORKLOADS = {
    workload.name: workload
    for workload in (GenerateVerify, CampaignCold, ServiceReplay)
}
