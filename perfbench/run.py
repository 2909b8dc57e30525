"""The repo benchmark: one workload, one seed, every metric, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that gives the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every request's output matched the expected
digests in ``perfbench/expected.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics: name -> unit.  ``failed_ratio`` is printed with the
#: others but left out of the JSON metrics: it is 0 on a correct run, and the
#: JSON's ``attempted``/``failed`` carry it.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: How many times one run sets up; ``setup_s`` is their median.
SETUP_REPEATS = {"full": 3, "tiny": 1}

#: Share of a traced run spent on its first phase.  For ``campaign-cold``
#: that is parallel requests, whose ``evaluate_job`` spans give the pool busy
#: ratio; the rest runs serially under the probe, so every layer's time is
#: attributed exactly.  For ``service-replay`` it is the local replay.
_FIRST_PHASE_SHARE = 0.3

_CALIBRATION_LOOP = 2_000_000


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    parser.add_argument(
        "--expected", default=str(Path(__file__).resolve().parent / "expected.json"),
        help="expected-digest file to check outputs against",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------- statistics
def tail(latencies: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples above it)`` of the highest percentile
    with at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, 0
    return ordered[count - 11], 100.0 * (count - 10) / count, 10


def host_facts() -> Dict[str, object]:
    start = time.perf_counter()
    total = 0
    for i in range(_CALIBRATION_LOOP):
        total += i * i
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "calibration_loop_s": time.perf_counter() - start,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ------------------------------------------------------------------- running
def measure_import(env: Dict[str, str]) -> float:
    """Wall time of importing the program in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli, repro.service.client"],
        env=env, check=True,
    )
    return time.perf_counter() - start


def set_up(workload, repeats: int, env: Dict[str, str]) -> List[float]:
    """Set the workload up ``repeats`` times; keep the last one."""
    from perfbench.drivers import clear_memos

    times = []
    for attempt in range(repeats):
        if attempt:
            workload.tear_down()
        clear_memos()
        imports = measure_import(env)
        start = time.perf_counter()
        workload.set_up()
        times.append(imports + time.perf_counter() - start)
    return times


class Loop:
    """Closed-loop request driver: one request at a time until time is up.

    Time is checked only between whole rounds of ``workload.round_size``
    requests, so every run holds the same mix of inputs.
    """

    def __init__(self, workload):
        self.workload = workload
        self.index = 0
        self.latencies: List[float] = []
        self.points = 0
        self.jobs = 0
        self.errors: List[str] = []

    def run(self, seconds: float) -> float:
        """Run requests for ``seconds``; return their summed latency."""
        measured = 0.0
        deadline = time.perf_counter() + seconds
        while True:
            index = self.index
            self.index += 1
            try:
                outcome = self.workload.request(index)
            except Exception as error:  # a raised error is a failed request
                self.errors.append(f"request {index}: {type(error).__name__}: {error}")
            else:
                if outcome is None:
                    self.index -= 1
                    break  # every input of this seed is used
                self.latencies.append(outcome.latency_s)
                self.points += outcome.points
                measured += outcome.latency_s
                self.jobs += outcome.jobs
                if outcome.error:
                    self.errors.append(outcome.error)
            if self.index % self.workload.round_size == 0 and time.perf_counter() >= deadline:
                break
        return measured


class _LocalReplay:
    """``service-replay``'s job lists sent through a local runner."""

    name = "local-replay"
    round_size = 1

    def __init__(self, workload):
        self.request = workload.replay_locally


#: Per-layer metrics the local replay phase of a traced ``service-replay``
#: run provides: the warm side of ``repro.engine``, which runs inside the
#: server during a round trip.
_LOCAL_REPLAY_METRICS = (
    "engine.cache_load_s",
    "engine.cache_get_s",
    "engine.cache_hits",
    "engine.key_s",
    "engine.key_calls_per_job",
    "engine.fingerprint_calls",
)


def _probed(loop: Loop, ctx, seconds: float, pool_busy: float = 0.0):
    """Run ``loop`` for ``seconds`` under a fresh probe; return its
    per-layer metrics, layer shares and request count."""
    from perfbench import layers
    from repro.obs import metrics

    probe = layers.LayerProbe()
    ctx.probe = probe
    call_cost = layers.wrapper_cost()
    counters = ("scheduler.evaluations", "scheduler.retries")
    before = {name: metrics.counter(name) for name in counters}
    first_request, jobs_before = len(loop.latencies), loop.jobs
    probe.install()
    try:
        wall = loop.run(seconds)
    finally:
        probe.uninstall()
        ctx.probe = layers.NULL_PROBE
    for note, name in zip(("engine.evaluations", "engine.retries"), counters):
        probe.note(note, metrics.counter(name) - before[name])
    traced = len(loop.latencies) - first_request
    values, shares = layers.layer_metrics(
        probe,
        workload=loop.workload.name,
        requests=traced,
        jobs=loop.jobs - jobs_before,
        wall_s=wall,
        pool_busy_ratio=pool_busy,
        call_cost_s=call_cost,
    )
    return values, shares, traced


def traced_run(workload, ctx, seconds: float, loop: Loop):
    """The per-layer run: probe installed, serial evaluation.

    Returns the per-layer metrics; per traced phase, its name, layer shares
    and request count; and the requests attempted outside ``loop``.
    """
    from perfbench import layers
    from repro.obs import enable_tracing

    phases = []
    pool_busy = 0.0
    if workload.name == "campaign-cold":
        enable_tracing(True)
        pool_seconds = seconds * _FIRST_PHASE_SHARE
        first = loop.index
        pool_wall = loop.run(pool_seconds)
        enable_tracing(False)
        job_seconds = layers.pool_job_seconds()
        if pool_wall and loop.index > first:
            pool_busy = job_seconds / (ctx.workers * pool_wall)
        seconds -= pool_seconds
        ctx.workers = 0
    local_values, local_attempts = None, 0
    if workload.name == "service-replay":
        local = Loop(_LocalReplay(workload))
        local_seconds = seconds * _FIRST_PHASE_SHARE
        local_values, shares, traced = _probed(local, ctx, local_seconds)
        phases.append(("local replay of the same job lists", shares, traced))
        loop.errors.extend(local.errors)
        local_attempts = local.index
        seconds -= local_seconds
    values, shares, traced = _probed(loop, ctx, seconds, pool_busy)
    phases.append((workload.name, shares, traced))
    if local_values is not None:
        for name in _LOCAL_REPLAY_METRICS:
            values[name] = local_values[name]
    return values, phases, local_attempts


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    for name in ("SRADGEN_TRACE", "SRADGEN_FAULTS"):
        os.environ.pop(name, None)
    # A terminated run still stops the server and workers it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        from perfbench import drivers, layers

        # The whole program, so that no request pays a first import.
        importlib.import_module("repro.cli")
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    if args.workload not in drivers.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(drivers.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    with open(args.expected, encoding="utf-8") as handle:
        expected = json.load(handle)

    host = host_facts()
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=scratch_root)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ctx = drivers.Context(
        seed=args.seed, size=args.size, src=str(SRC), scratch=scratch,
        expected=expected, probe=layers.NULL_PROBE,
    )
    workload = drivers.WORKLOADS[args.workload](ctx)
    loop = Loop(workload)
    extra_attempts = 0
    set_up_done = False
    try:
        setup_times = set_up(workload, SETUP_REPEATS[args.size], env)
        set_up_done = True
        if args.trace:
            per_layer, phases, extra_attempts = traced_run(workload, ctx, args.seconds, loop)
        else:
            wall = loop.run(args.seconds)
    finally:
        if set_up_done:
            workload.tear_down()
        drivers.reap_children()
        shutil.rmtree(scratch, ignore_errors=True)
    host["loadavg_end"] = list(os.getloadavg())
    host["load_exceeded_nproc"] = max(host["loadavg"][0], host["loadavg_end"][0]) > (
        os.cpu_count() or 1
    )

    attempted, failed = loop.index + extra_attempts, len(loop.errors)
    count = len(loop.latencies)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  size {args.size}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    if host["load_exceeded_nproc"]:
        print("host WARNING: load average exceeded the CPU count during this run")
    for error in loop.errors[:5]:
        print(f"FAILED {error}")
    metrics: Dict[str, Dict[str, object]] = {}
    if count == 0:
        print("no request completed")
        return 1
    if args.trace:
        from perfbench.layers import PER_LAYER

        for phase, shares, traced in phases:
            print(f"  {phase}: {traced} traced requests; layer shares of request wall "
                  "(self time):")
            for name, share in shares[:12]:
                print(f"    {name:<28} {100 * share:6.2f} %")
            if shares:
                print(f"    largest layer: {shares[0][0]} "
                      f"({100 * shares[0][1]:.1f} % of request wall)")
        print(f"  per-layer metrics ({count} requests in all):")
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": per_layer[name], "unit": unit}
            print(f"  {name:<28} {per_layer[name]:<14.6g} {unit}")
    else:
        tail_value, tail_pct, above = tail(loop.latencies)
        values = {
            "setup_s": statistics.median(setup_times),
            "points_per_s": loop.points / wall,
            "request_p50_s": statistics.median(loop.latencies),
            "request_tail_s": tail_value,
            "peak_rss_mb": peak_rss_mb(),
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "points_per_s": f"{loop.points} points in {wall:.3f} s of requests",
            "request_p50_s": f"n={count} requests",
            "request_tail_s": f"p{tail_pct:.1f}, n={count}, {above} requests above it",
            "peak_rss_mb": "this process plus its largest child",
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<16} {values[name]:<14.6g} {unit:<4} ({notes[name]})")
        print(f"  {'failed_ratio':<16} {failed / max(1, attempted):<14.6g} {'ratio':<4} "
              f"({failed} of {attempted} requests failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
