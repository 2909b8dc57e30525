#!/usr/bin/env python
"""Performance harness for the synthesis core.

Times the scenarios PR 5 optimised -- Quine-McCluskey minimisation, the
logic-optimization pipeline, FSM synthesis effort and cold/warm campaign
dispatch -- and writes the measurements to a ``BENCH_*.json`` file, seeding
the repo's performance trajectory: every future PR can run the same harness
and diff the numbers.

PR 7 adds the **service load generator**: N concurrent clients submitting M
campaigns each against one shared scheduler/cache, recording throughput,
dedup effectiveness (zero duplicate evaluations expected) and agreement
with a serial ``CampaignRunner.run``.  By default it spins an in-process
server; ``--connect HOST:PORT`` points it at a running ``sradgen --serve``
instead (what the CI service-smoke job does).

PR 9 adds the **cec scenario**: SAT-based combinational/sequential
equivalence checking of O0 netlists against their O1 rewrites
(:mod:`repro.verify`), asserting every point is proven equivalent and
recording solver effort.  ``--only cec`` runs just that scenario (the CI
verify job uploads its JSON as an artifact).

PR 10 adds the **resilience_overhead scenario**: per-call cost of the
disarmed :mod:`repro.resilience.faults` fault points that now sit on the
cache/scheduler/service hot paths, asserted against the same floor the
test suite pins (they must stay one global load + compare).

The **generate_default scenario** times the default
``sradgen --workload dct --rows N --cols N --report`` path -- mapping,
elaboration, the gate-level verify on the compiled simulator, VHDL and
synthesis -- at 16/64/128, records the simulated cycles per run and fails
if the reference simulator runs any of them.

Usage::

    PYTHONPATH=src python tools/bench.py             # full sizes (~1 min)
    PYTHONPATH=src python tools/bench.py --smoke     # CI-sized (~15 s)
    PYTHONPATH=src python tools/bench.py --output BENCH_PR10.json

    # Load-generate against a live server and fail on any duplicate
    # evaluation or serial mismatch:
    PYTHONPATH=src python tools/bench.py --service-load \
        --connect 127.0.0.1:8787 --clients 4 --campaigns-per-client 2 \
        --check-dedup --output BENCH_SERVICE.json

Output schema (``scenario -> wall-clock + stats``)::

    {
      "schema": "sradgen-bench/1",
      "mode": "full" | "smoke",
      "python": "3.11.7",
      "scenarios": {
        "<name>": {
          "wall_s": <best-of-N wall clock, seconds>,
          "repeats": <N>,
          ...                  # scenario-specific stats; scenarios that
        }                      # also time the kept *_reference oracle
      }                        # report "reference_wall_s" and "speedup"
    }

Where a pre-optimization reference implementation is still in the tree
(``minimize``'s ``_reference`` shims), the harness times it too and records
the speedup directly; the campaign/opt scenarios record absolute wall-clock
for cross-PR comparison instead.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.sradgen import generate
from repro.engine import CampaignRunner, ResultCache, build_campaign
from repro.engine.jobs import build_design
from repro.obs import Tracer, collect_phase_totals, get_tracer, metrics, set_tracer
from repro.synth.fsm import FiniteStateMachine, synthesize_fsm
from repro.synth.fsm.synthesis import next_state_tables
from repro.synth.logic.minimize import (
    MinimizationStats,
    _minimize_cached,
    _minimize_reference,
    _prime_implicants,
    _select_cover,
    _select_cover_reference,
    minimize,
)
from repro.synth.logic.truth_table import TruthTable
from repro.synth.opt import optimize_netlist
from repro.workloads import registry
from repro.workloads.registry import build_pattern

SCHEMA = "sradgen-bench/1"

#: The qm_cover_selection scenario, shared with the CI floor benchmark
#: (benchmarks/test_qm_cover_speedup.py loads this module for it).
COVER_SEED = 2026
COVER_INPUTS_SMOKE = 9
COVER_INPUTS_FULL = 11


def cover_selection_table(num_inputs: int) -> TruthTable:
    """The seeded dense random table the cover-selection scenario times."""
    random.seed(COVER_SEED)
    on_set = frozenset(
        random.sample(list(range(1 << num_inputs)), (1 << num_inputs) // 2)
    )
    return TruthTable(num_inputs=num_inputs, on_set=on_set)


def _drop_in_process_caches() -> None:
    """Reset memo caches so every repeat measures genuinely cold work."""
    _minimize_cached.cache_clear()
    registry._cached_pattern.cache_clear()


def _best_of(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        _drop_in_process_caches()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _fsm_next_state_tables(length: int) -> List[TruthTable]:
    """The binary-encoded next-state tables FSM synthesis minimises."""
    fsm = FiniteStateMachine.from_select_sequence(list(range(length)))
    return next_state_tables(fsm, "binary")


def bench_qm_fsm_tables(smoke: bool) -> Dict[str, object]:
    """QM minimisation of the widest exact-input FSM next-state tables."""
    length = 512 if smoke else 4096  # 4096 states = 12 state bits, the
    tables = _fsm_next_state_tables(length)  # default max_exact_inputs
    repeats = 3

    def run_new():
        stats = MinimizationStats()
        for table in tables:
            _cover, s = minimize(table)
            stats = stats + s
        return stats

    def run_reference():
        stats = MinimizationStats()
        for table in tables:
            _cover, s = _minimize_reference(table)
            stats = stats + s
        return stats

    wall, stats = _best_of(run_new, repeats)
    # The reference at full size runs once: it is the slow half by design.
    ref_wall, _ = _best_of(run_reference, repeats if smoke else 1)
    return {
        "wall_s": wall,
        "repeats": repeats,
        "reference_wall_s": ref_wall,
        "speedup": ref_wall / wall,
        "fsm_states": length,
        "table_inputs": tables[0].num_inputs,
        "tables": len(tables),
        "merge_operations": stats.merge_operations,
        "prime_implicants": stats.prime_implicants,
    }


def bench_qm_cover_selection(smoke: bool) -> Dict[str, object]:
    """Bitset vs reference cover selection on a dense random table."""
    num_inputs = COVER_INPUTS_SMOKE if smoke else COVER_INPUTS_FULL
    table = cover_selection_table(num_inputs)
    primes = _prime_implicants(table, MinimizationStats())
    repeats = 3

    wall, cover = _best_of(
        lambda: _select_cover(primes, table.on_set, MinimizationStats()), repeats
    )
    ref_wall, ref_cover = _best_of(
        lambda: _select_cover_reference(primes, table.on_set, MinimizationStats()),
        repeats,
    )
    assert cover == ref_cover, "bitset cover diverged from the reference"
    return {
        "wall_s": wall,
        "repeats": repeats,
        "reference_wall_s": ref_wall,
        "speedup": ref_wall / wall,
        "table_inputs": num_inputs,
        "primes": len(primes),
        "cover_size": len(cover),
    }


def bench_fsm_synthesis_effort(smoke: bool) -> Dict[str, object]:
    """Wall-clock of whole-FSM synthesis, the paper's Section 3 scenario."""
    lengths = [64, 128, 256] if smoke else [64, 128, 256, 1024]
    per_n = {}
    for length in lengths:
        fsm = FiniteStateMachine.from_select_sequence(list(range(length)))
        wall, result = _best_of(
            lambda f=fsm: synthesize_fsm(f, encoding="binary"), 3
        )
        per_n[str(length)] = {
            "wall_s": wall,
            "merge_operations": result.stats.merge_operations,
        }
    return {
        "wall_s": sum(entry["wall_s"] for entry in per_n.values()),
        "repeats": 3,
        "per_length": per_n,
    }


def bench_generate_default(smoke: bool) -> Dict[str, object]:
    """The default ``--workload dct --report`` generate path per array size."""
    sizes = (16, 64) if smoke else (16, 64, 128)
    repeats = 3
    per_size = {}
    for size in sizes:

        def run(size=size):
            sequence = build_pattern("dct", size, size).to_sequence()
            return generate(sequence, synthesize=True)

        before = metrics.snapshot()
        wall, _result = _best_of(run, repeats)
        cycles = metrics.counters_since(before)
        reference_cycles = cycles.get("sim.reference.cycles", 0)
        assert reference_cycles == 0, (
            f"{reference_cycles} reference-simulator cycles on the generate path"
        )
        per_size[f"{size}x{size}"] = {
            "wall_s": wall,
            "sim_cycles_per_run": cycles.get("sim.compiled.cycles", 0) // repeats,
        }
    return {
        "wall_s": sum(entry["wall_s"] for entry in per_size.values()),
        "repeats": repeats,
        "per_size": per_size,
    }


def bench_opt_pipeline(smoke: bool) -> Dict[str, object]:
    """Worklist pass pipeline (O1) over representative netlists."""
    size = 8 if smoke else 16
    points = [("CntAG", "adders"), ("FSM", "binary")]
    repeats = 3
    total = 0.0
    removed = {}
    for style, variant in points:
        pattern = build_pattern("motion_est_read", size, size)
        design = build_design(pattern, style, variant)
        netlist = design.netlist

        def run(source=netlist):
            return optimize_netlist(source.clone(), opt_level=1)

        wall, report = _best_of(run, repeats)
        total += wall
        removed[f"{style}[{variant}]"] = report.cells_removed
    return {
        "wall_s": total,
        "repeats": repeats,
        "array": f"{size}x{size}",
        "cells_removed": removed,
    }


def _campaign_phase_totals(campaign) -> Dict[str, float]:
    """Per-phase wall-second attribution for one serial cold campaign run.

    Runs the campaign once, serially, under a private enabled tracer and
    folds the span tree into ``phase -> total seconds``.  Serial execution
    keeps the attribution exact (no pool serialisation skew); this run is
    measured separately from the timed cold/warm repeats, so the headline
    ``wall_s`` figures stay tracing-free.
    """
    _drop_in_process_caches()
    previous = get_tracer()
    tracer = set_tracer(Tracer(enabled=True))
    try:
        with CampaignRunner(ResultCache(None), workers=0) as runner:
            runner.run(campaign)
    finally:
        set_tracer(previous)
    return collect_phase_totals(tracer.roots, prefixes=("job.", "flow."))


def bench_campaign(smoke: bool) -> Dict[str, Dict[str, object]]:
    """Cold and warm runs of a whole campaign through the chunked runner."""
    name = "smoke" if smoke else "opt_levels"
    campaign = build_campaign(name)
    repeats = 3
    cold = warm = float("inf")
    for _ in range(repeats):
        # Each cold repeat gets a fresh cache, a fresh (unwarmed) worker
        # pool and cleared in-process memo caches; the warm run replays the
        # same campaign against the cache the cold run just filled.
        _drop_in_process_caches()
        with tempfile.TemporaryDirectory() as tmp:
            with CampaignRunner(ResultCache(tmp)) as runner:
                start = time.perf_counter()
                cold_result = runner.run(campaign)
                cold = min(cold, time.perf_counter() - start)
                start = time.perf_counter()
                warm_result = runner.run(campaign)
                warm = min(warm, time.perf_counter() - start)
        assert cold_result.evaluated == len(campaign.jobs)
        assert warm_result.hits == len(campaign.jobs)
    base = {"campaign": name, "jobs": len(campaign.jobs)}
    # Schema-compatible superset of sradgen-bench/1: the cold scenario gains
    # a "phases" breakdown (phase name -> wall seconds, traced separately).
    phases = _campaign_phase_totals(campaign)
    return {
        f"campaign_{name}_cold": {
            "wall_s": cold, "repeats": repeats, "phases": phases, **base,
        },
        f"campaign_{name}_warm": {"wall_s": warm, "repeats": repeats, **base},
    }


def _start_local_service(cache_dir: str):
    """Spin an in-process campaign service; returns ``((host, port), stop)``."""
    import asyncio

    from repro.service.server import CampaignService

    ready = threading.Event()
    box: Dict[str, object] = {}

    def serve() -> None:
        async def main() -> None:
            service = CampaignService(cache_dir=cache_dir)
            box["addr"] = await service.start("127.0.0.1", 0)
            box["service"] = service
            box["loop"] = asyncio.get_running_loop()
            ready.set()
            await service.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=serve, name="bench-service", daemon=True)
    thread.start()
    if not ready.wait(30):
        raise RuntimeError("in-process campaign service failed to start")

    def stop() -> None:
        box["loop"].call_soon_threadsafe(box["service"].request_shutdown)
        thread.join(30)

    return box["addr"], stop


def _remote_counters(host: str, port: int) -> Dict[str, int]:
    """The server's counter registry via the ``metrics`` op."""
    import asyncio

    from repro.service.client import ServiceClient

    async def fetch() -> Dict[str, int]:
        async with ServiceClient(host, port) as client:
            return await client.metrics()

    return asyncio.run(fetch())


def _normalized_record(record) -> Dict[str, object]:
    """Cached-form dict with volatile wall-clock zeroed and NaN made comparable."""
    data = record.to_dict()
    data["duration_s"] = 0.0
    return {
        key: None if isinstance(value, float) and math.isnan(value) else value
        for key, value in data.items()
    }


def bench_service_load(
    smoke: bool,
    *,
    clients: int = 4,
    campaigns_per_client: int = 2,
    connect: Optional[Tuple[str, int]] = None,
    retry_policy=None,
) -> Dict[str, object]:
    """N clients x M campaigns against one shared scheduler and cache.

    Every client submits the same campaign, so all requests past the first
    overlap completely: with cross-request dedup working, the server
    evaluates each unique job exactly once no matter how many clients race
    (``duplicate_evaluations`` must be 0), and the streamed records agree
    with a serial in-process ``CampaignRunner.run``
    (``records_match_serial``; ``duration_s`` zeroed on both sides -- wall
    clock is the one field that legitimately differs run to run).

    ``retry_policy`` (a :class:`repro.resilience.retry.RetryPolicy`, armed
    by ``--retry-max``) lets the load run survive injected connection
    faults -- the chaos-smoke CI job arms ``SRADGEN_FAULTS`` on both sides
    and still requires zero duplicates and serial-identical records.
    """
    del smoke  # one size: the contention pattern, not the grid, is the load
    from repro.obs import metrics as local_metrics
    from repro.service.client import run_campaign_remote

    campaign = build_campaign("smoke")
    unique_jobs = len({job.key for job in campaign.jobs})

    stop = None
    tmp = None
    if connect is None:
        tmp = tempfile.TemporaryDirectory()
        (host, port), stop = _start_local_service(tmp.name)
    else:
        host, port = connect

    try:
        before = _remote_counters(host, port)
        results: List[object] = [None] * clients
        errors: List[str] = []

        heal_counters = ("client.reconnects", "client.error_retries")
        heals_before = {name: local_metrics.counter(name) for name in heal_counters}

        def client_worker(index: int) -> None:
            try:
                for _ in range(campaigns_per_client):
                    results[index] = run_campaign_remote(
                        host, port, campaign, retry_policy=retry_policy
                    )
            except Exception as error:  # noqa: BLE001 - recorded, then raised
                errors.append(f"client {index}: {type(error).__name__}: {error}")

        threads = [
            threading.Thread(target=client_worker, args=(i,), daemon=True)
            for i in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if errors:
            raise RuntimeError("; ".join(errors))
        after = _remote_counters(host, port)
    finally:
        if stop is not None:
            stop()
        if tmp is not None:
            tmp.cleanup()

    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    evaluations = delta.get("scheduler.evaluations", 0)
    requests = clients * campaigns_per_client
    records_streamed = requests * unique_jobs

    serial = CampaignRunner(ResultCache(None), workers=0).run(campaign)
    remote = results[0]
    records_match_serial = [
        _normalized_record(record) for record in remote.records
    ] == [_normalized_record(record) for record in serial.records]

    return {
        "wall_s": wall,
        "repeats": 1,
        "campaign": campaign.name,
        "clients": clients,
        "campaigns_per_client": campaigns_per_client,
        "requests": requests,
        "jobs_per_campaign": len(campaign.jobs),
        "unique_jobs": unique_jobs,
        "records_streamed": records_streamed,
        "throughput_records_per_s": records_streamed / wall if wall else 0.0,
        "evaluations": evaluations,
        "duplicate_evaluations": max(0, evaluations - unique_jobs),
        "dedup_hits": delta.get("scheduler.dedup_hits", 0),
        "cache_hits": delta.get("cache.hits", 0),
        "records_match_serial": records_match_serial,
        "client_reconnects": local_metrics.counter("client.reconnects")
        - heals_before["client.reconnects"],
        "client_error_retries": local_metrics.counter("client.error_retries")
        - heals_before["client.error_retries"],
    }


def bench_cec(smoke: bool) -> Dict[str, object]:
    """SAT-based CEC (O0 netlist vs its O1 rewrite) over representative designs.

    Every point must come back *proven equivalent* -- this scenario doubles
    as a formal regression gate for the optimizer -- and the recorded wall
    clock seeds the verification-performance trajectory (solver tuning, SAT
    sweeping changes) the same way the QM scenarios seed minimisation.
    """
    from repro.verify import check_equivalence

    size = 4 if smoke else 8
    points = [
        ("fifo", "SRAG", "two-hot"),
        ("dct", "CntAG", "decoders"),
        ("motion_est_read", "CntAG", "adders"),
        ("zoombytwo", "FSM", "binary"),
    ]
    repeats = 3 if smoke else 1
    total = 0.0
    per_point: Dict[str, Dict[str, object]] = {}
    for workload, style, variant in points:
        pattern = build_pattern(workload, size, size)
        netlist = build_design(pattern, style, variant).netlist
        revised = optimize_and_measure(netlist)

        def run(golden=netlist, rev=revised):
            return check_equivalence(golden, rev)

        wall, result = _best_of(run, repeats)
        assert result.equivalent and result.proven, (
            f"{workload}/{style}[{variant}]: {result.summary()}"
        )
        total += wall
        per_point[f"{workload}/{style}[{variant}]"] = {
            "wall_s": wall,
            "method": result.method,
            **result.stats,
        }
    return {
        "wall_s": total,
        "repeats": repeats,
        "array": f"{size}x{size}",
        "per_point": per_point,
    }


def optimize_and_measure(netlist):
    """O1 rewrite on a clone -- the revised side of each CEC point."""
    revised = netlist.clone()
    optimize_netlist(revised, opt_level=1)
    return revised


#: Per-call ceiling for a disarmed fault point -- the same floor
#: tests/test_resilience_faults.py pins (matches the NULL_SPAN bound).
FAULT_POINT_FLOOR_S = 2.5e-6


def bench_resilience_overhead(smoke: bool) -> Dict[str, object]:
    """Disarmed fault-point cost on the hot paths, pinned to the floor.

    Measures three shapes: a disarmed :func:`fault_point`, a disarmed
    :func:`fault_data` (identity pass-through of a cache-append payload),
    and a plan armed for *other* sites (the cost a chaos run imposes on
    seams it is not targeting).  Each must stay under
    ``FAULT_POINT_FLOOR_S`` per call or the zero-overhead contract -- what
    justifies compiling the sites into production paths permanently -- is
    broken.
    """
    from repro.resilience.faults import (
        FaultPlan,
        FaultRule,
        clear_plan,
        fault_data,
        fault_point,
        install_plan,
    )

    n = 200_000 if smoke else 1_000_000
    payload = '{"key": "0" * 64, "record": {"status": "ok"}}\n'

    def timed(fn) -> float:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        return time.perf_counter() - start

    clear_plan()
    disarmed_point = timed(lambda: fault_point("cache.append"))
    disarmed_data = timed(lambda: fault_data("cache.append.write", payload))
    install_plan(FaultPlan([FaultRule(site="some.other.site")]))
    try:
        armed_unmatched = timed(lambda: fault_point("cache.append"))
    finally:
        clear_plan()

    per_call = {
        "disarmed_fault_point_ns": disarmed_point / n * 1e9,
        "disarmed_fault_data_ns": disarmed_data / n * 1e9,
        "armed_unmatched_site_ns": armed_unmatched / n * 1e9,
    }
    for name, nanos in per_call.items():
        assert nanos < FAULT_POINT_FLOOR_S * 1e9, (
            f"{name}: {nanos:.0f} ns/call breaks the "
            f"{FAULT_POINT_FLOOR_S * 1e9:.0f} ns zero-overhead floor"
        )
    return {
        "wall_s": disarmed_point + disarmed_data + armed_unmatched,
        "repeats": 1,
        "calls_per_shape": n,
        "floor_ns_per_call": FAULT_POINT_FLOOR_S * 1e9,
        **per_call,
    }


def run_benchmarks(smoke: bool, only: Optional[str] = None) -> Dict[str, object]:
    builders: Dict[str, Callable[[], object]] = {
        "qm_fsm_tables": lambda: bench_qm_fsm_tables(smoke),
        "qm_cover_selection": lambda: bench_qm_cover_selection(smoke),
        "fsm_synthesis_effort": lambda: bench_fsm_synthesis_effort(smoke),
        "generate_default": lambda: bench_generate_default(smoke),
        "opt_pipeline": lambda: bench_opt_pipeline(smoke),
        "campaign": lambda: bench_campaign(smoke),
        "cec": lambda: bench_cec(smoke),
        "service_load": lambda: bench_service_load(smoke),
        "resilience_overhead": lambda: bench_resilience_overhead(smoke),
    }
    if only is not None:
        if only not in builders:
            raise SystemExit(
                f"unknown scenario {only!r}; choose from {sorted(builders)}"
            )
        builders = {only: builders[only]}
    scenarios: Dict[str, object] = {}
    for name, builder in builders.items():
        result = builder()
        if name == "campaign":  # expands into cold + warm entries
            scenarios.update(result)
        else:
            scenarios[name] = result
    return {
        "schema": SCHEMA,
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "scenarios": scenarios,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized scenarios (seconds instead of a minute)",
    )
    parser.add_argument(
        "--output", default="BENCH_PR10.json",
        help="destination JSON file (default: %(default)s)",
    )
    parser.add_argument(
        "--only", default=None, metavar="SCENARIO",
        help="run a single scenario (qm_fsm_tables, qm_cover_selection, "
             "fsm_synthesis_effort, generate_default, opt_pipeline, campaign, cec, "
             "service_load, resilience_overhead)",
    )
    parser.add_argument(
        "--service-load", action="store_true",
        help="run only the service load-generator scenario",
    )
    parser.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="load-generate against a running sradgen --serve instead of an "
             "in-process server (implies --service-load)",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="concurrent load-generator clients (default: %(default)s)",
    )
    parser.add_argument(
        "--campaigns-per-client", type=int, default=2,
        help="sequential campaigns each client submits (default: %(default)s)",
    )
    parser.add_argument(
        "--check-dedup", action="store_true",
        help="exit non-zero unless the load run had zero duplicate "
             "evaluations and matched a serial run",
    )
    parser.add_argument(
        "--retry-max", type=int, default=0, metavar="N",
        help="arm the load-generator clients with an N-retry policy "
             "(reconnect-and-resume; default: no retries)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base backoff for --retry-max (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    if args.service_load or args.connect:
        connect = None
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            connect = (host, int(port))
        retry_policy = None
        if args.retry_max > 0:
            from repro.resilience.retry import RetryPolicy

            retry_policy = RetryPolicy(
                max_retries=args.retry_max, base_backoff_s=args.retry_backoff
            )
        stats = bench_service_load(
            args.smoke,
            clients=args.clients,
            campaigns_per_client=args.campaigns_per_client,
            connect=connect,
            retry_policy=retry_policy,
        )
        payload = {
            "schema": SCHEMA,
            "mode": "smoke" if args.smoke else "full",
            "python": platform.python_version(),
            "scenarios": {"service_load": stats},
        }
    else:
        payload = run_benchmarks(args.smoke, only=args.only)
    for name, data in payload["scenarios"].items():
        extra = ""
        if "speedup" in data:
            extra = (
                f"  (reference {data['reference_wall_s']:8.3f} s, "
                f"{data['speedup']:6.1f}x)"
            )
        print(f"{name:<28} {data['wall_s']:8.3f} s{extra}")
        for phase_name, seconds in sorted(data.get("phases", {}).items()):
            print(f"    {phase_name:<24} {seconds:8.3f} s")
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check_dedup:
        stats = payload["scenarios"]["service_load"]
        problems = []
        if stats["duplicate_evaluations"]:
            problems.append(
                f"{stats['duplicate_evaluations']} duplicate evaluation(s) "
                f"({stats['evaluations']} evaluations for "
                f"{stats['unique_jobs']} unique jobs)"
            )
        if not stats["records_match_serial"]:
            problems.append("streamed records diverged from the serial run")
        if problems:
            print("service load check FAILED: " + "; ".join(problems), file=sys.stderr)
            return 1
        print(
            f"service load check ok: {stats['evaluations']} evaluations, "
            f"{stats['dedup_hits']} dedup hit(s), "
            f"{stats['cache_hits']} cache hit(s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
