"""The traced run: per-layer time and counts, measured from outside.

:class:`LayerProbe` wraps public functions and methods of the program's
layers (and, for the few places where the benchmark itself makes the call,
times a block of its own code).  Nothing under ``src/`` changes: a wrapper
replaces a module or class attribute for the life of the traced loop and
:meth:`LayerProbe.uninstall` puts the original back.

Every timed region records its inclusive time and its *self* time (its time
minus that of timed regions nested in it), so the self times of all regions
never overlap and their sum over the request wall is the share of the
request the trace accounts for (``trace.attributed_ratio``).

The synthesis stages (``flow.elaborate`` ... ``flow.area``) are the
``repro.obs`` phases the program already opens; the probe wraps the public
``phase`` function where the synthesis flow and the generators look it up,
so those stages join the same nesting as every other region.  The pool busy
ratio needs the ``evaluate_job`` spans that pool workers ship back, so it is
read from ``repro.obs`` spans of separate, parallel requests.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "LayerProbe",
    "NULL_PROBE",
    "PER_LAYER",
    "layer_metrics",
    "pool_job_seconds",
    "wrapper_cost",
]

#: Per-layer metrics: name -> unit.  ``_s`` and count metrics are per
#: request unless their name says otherwise.
PER_LAYER: Dict[str, str] = {
    # generate path
    "workloads.pattern_s": "s",
    "core.map_s": "s",
    "hdl.elaborate_s": "s",
    "hdl.verify_sim_s": "s",
    "hdl.sim_cycles": "count",
    "hdl.sim_ns_per_cell_cycle": "ns",
    "hdl.emit_s": "s",
    "synth.generate_flow_s": "s",
    "generate.other_s": "s",
    # campaign evaluation
    "generators.build_s": "s",
    "synth.elaborate_s": "s",
    "synth.opt_s": "s",
    "synth.buffer_s": "s",
    "synth.timing_s": "s",
    "synth.validate_s": "s",
    "synth.area_s": "s",
    "power.sim_s": "s",
    "power.ns_per_cell_cycle": "ns",
    # engine, cold side
    "engine.cache_put_s": "s",
    "engine.cache_puts": "count",
    "engine.pool_busy_ratio": "ratio",
    "engine.evaluations": "count",
    "engine.retries": "count",
    # engine, warm side
    "engine.cache_load_s": "s",
    "engine.cache_get_s": "s",
    "engine.cache_hits": "count",
    "engine.key_s": "s",
    "engine.key_calls_per_job": "count",
    "engine.fingerprint_calls": "count",
    "engine.record_decode_s": "s",
    "campaign.build_s": "s",
    # service
    "service.first_record_s": "s",
    "service.client_decode_s": "s",
    "service.wait_s": "s",
    "service.server_cache_hits": "count",
    "service.server_evaluations": "count",
    # the trace itself
    "trace.overhead_ratio": "ratio",
    "trace.attributed_ratio": "ratio",
}

#: ``repro.obs`` phase name -> per-layer metric.
_FLOW_PHASES = {
    "flow.elaborate": "synth.elaborate_s",
    "flow.opt": "synth.opt_s",
    "flow.buffer": "synth.buffer_s",
    "flow.timing": "synth.timing_s",
    "flow.validate": "synth.validate_s",
    "flow.area": "synth.area_s",
}

#: ``repro.obs`` counters the probe reads as deltas.
_SIM_COUNTERS = ("sim.reference.cycles", "sim.compiled.cycles")


class _NullProbe:
    """The probe of an untraced run: every hook is free."""

    enabled = False

    def timed(self, layer: str):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()

    def note(self, name: str, amount: float) -> None:
        pass


NULL_PROBE = _NullProbe()


class LayerProbe:
    """Wrappers and timed blocks that attribute request time to layers."""

    enabled = True

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Free-form accumulators (cell-cycles, hits, server counters, ...).
        self.notes: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []
        self._paused = False
        self._restore: List[Tuple[object, str, Any]] = []

    # ------------------------------------------------------------- timing
    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, start: float) -> float:
        elapsed = time.perf_counter() - start
        nested = self._stack.pop()
        self.inclusive[layer] += elapsed
        self.self_s[layer] += elapsed - nested
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1] += elapsed
        return elapsed

    @contextlib.contextmanager
    def timed(self, layer: str) -> Iterator[None]:
        """Attribute a block of the benchmark's own code to ``layer``."""
        start = self._enter()
        try:
            yield
        finally:
            self._exit(layer, start)

    def note(self, name: str, amount: float) -> None:
        self.notes[name] += amount

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing: the benchmark's own checks call wrapped code too."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrapper(
        self, layer: str, func: Callable, after: Optional[Callable] = None
    ) -> Callable:
        @functools.wraps(func)
        def wrapped(*args, **kwargs):
            if self._paused:
                return func(*args, **kwargs)
            start = self._enter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(layer, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapped

    # ------------------------------------------------------------ install
    def wrap(
        self, owner: object, attr: str, layer: str, after: Optional[Callable] = None
    ) -> None:
        """Replace ``owner.attr`` (function, method, classmethod or property)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            replacement: Any = property(self._wrapper(layer, original.fget, after))
        elif isinstance(original, classmethod):
            replacement = classmethod(self._wrapper(layer, original.__func__, after))
        else:
            replacement = self._wrapper(layer, original, after)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer boundary the four workloads cross."""
        from repro.core import addm_generator, sradgen
        from repro.engine import jobs, runner
        from repro.engine.cache import ResultCache
        from repro.engine.jobs import EvalJob
        from repro.engine.runner import EvalRecord
        from repro.generators import base
        from repro.obs import metrics
        from repro.service import client
        from repro.synth import flow as synth_flow

        def sim_counters() -> float:
            return sum(metrics.counter(name) for name in _SIM_COUNTERS)

        def verify(generator, *args, **kwargs):
            before = sim_counters()
            try:
                return original_verify(generator, *args, **kwargs)
            finally:
                cycles = sim_counters() - before
                self.note("hdl.sim_cycles", cycles)
                self.note("hdl.cell_cycles", cycles * len(generator.netlist.cells))

        def power_after(args, kwargs, result) -> None:
            self.note("power.cell_cycles", len(args[0].cells) * kwargs["cycles"])

        def get_after(args, kwargs, result) -> None:
            if result is not None:
                self.note("engine.cache_hits", 1)

        original_verify = addm_generator.SragAddressGenerator.verify
        self._restore.append((addm_generator.SragAddressGenerator, "verify", original_verify))
        addm_generator.SragAddressGenerator.verify = self._wrapper("hdl.verify_sim_s", verify)

        self.wrap(jobs, "build_pattern", "workloads.pattern_s")
        self.wrap(addm_generator, "map_address_sequence", "core.map_s")
        self.wrap(addm_generator.SragAddressGenerator, "from_sequence", "hdl.elaborate_s")
        self.wrap(sradgen, "emit_vhdl", "hdl.emit_s")
        self.wrap(sradgen, "run_synthesis_flow", "synth.generate_flow_s")
        self.wrap(runner, "build_design", "generators.build_s")
        self.wrap(runner, "estimate_power", "power.sim_s", power_after)
        self.wrap(ResultCache, "put", "engine.cache_put_s")
        self.wrap(ResultCache, "get", "engine.cache_get_s", get_after)
        self.wrap(EvalJob, "key", "engine.key_s")
        self.wrap(jobs, "library_fingerprint", "engine.fingerprint")
        self.wrap(EvalRecord, "from_dict", "engine.record_decode_s")
        self.wrap(client, "decode_message", "service.client_decode_s")
        self.wrap(client, "encode_message", "service.client_encode_s")
        for module in (synth_flow, base):
            self._restore.append((module, "phase", module.phase))
            module.phase = self._phase_wrapper(module.phase)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _phase_wrapper(self, original: Callable) -> Callable:
        probe = self

        class _StackedPhase:
            __slots__ = ("inner", "layer", "start")

            def __init__(self, inner, layer: str):
                self.inner, self.layer = inner, layer

            def __enter__(self):
                self.start = probe._enter()
                return self.inner.__enter__()

            def __exit__(self, *exc_info):
                try:
                    return self.inner.__exit__(*exc_info)
                finally:
                    probe._exit(self.layer, self.start)

        @functools.wraps(original)
        def phase(name, timings=None, detail=""):
            inner = original(name, timings, detail)
            layer = _FLOW_PHASES.get(name)
            return inner if layer is None else _StackedPhase(inner, layer)

        return phase


def pool_job_seconds() -> float:
    """Sum of ``evaluate_job`` span time in the global tracer; the recorded
    spans are dropped."""
    from repro.obs import get_tracer

    tracer = get_tracer()
    total = 0.0
    pending = list(tracer.roots)
    while pending:
        node = pending.pop()
        if node.name == "evaluate_job":
            total += node.wall_s
        pending.extend(node.children)
    tracer.clear()
    return total


def wrapper_cost(repeats: int = 20000) -> float:
    """Per-call cost, in seconds, that one probe wrapper adds."""

    def noop() -> None:
        return None

    wrapped = LayerProbe()._wrapper("calibration", noop)

    def per_call(body: Callable[[], None]) -> float:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(repeats):
                body()
            best = min(best, (time.perf_counter() - start) / repeats)
        return best

    return max(0.0, per_call(wrapped) - per_call(noop))


def layer_metrics(
    probe: LayerProbe,
    *,
    workload: str,
    requests: int,
    jobs: int,
    wall_s: float,
    pool_busy_ratio: float,
    call_cost_s: float,
) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """Per-layer metrics of one traced run, plus its layer shares.

    ``wall_s`` is the summed wall time of the ``requests`` traced requests,
    which held ``jobs`` evaluation jobs.  The shares list pairs every
    attributed region with its self time over ``wall_s``, largest first.
    """
    per = 1.0 / max(1, requests)
    inc, notes, calls = probe.inclusive, probe.notes, probe.calls
    values = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name in inc:
            values[name] = inc[name] * per
    # from_sequence minus the mapping it calls: building the netlist.
    values["hdl.elaborate_s"] = probe.self_s["hdl.elaborate_s"] * per
    values["hdl.sim_cycles"] = notes["hdl.sim_cycles"] * per
    if notes["hdl.cell_cycles"]:
        values["hdl.sim_ns_per_cell_cycle"] = (
            inc["hdl.verify_sim_s"] * 1e9 / notes["hdl.cell_cycles"]
        )
    if notes["power.cell_cycles"]:
        values["power.ns_per_cell_cycle"] = (
            inc["power.sim_s"] * 1e9 / notes["power.cell_cycles"]
        )
    values["engine.cache_puts"] = calls["engine.cache_put_s"] * per
    values["engine.key_calls_per_job"] = calls["engine.key_s"] / max(1, jobs)
    values["engine.fingerprint_calls"] = calls["engine.fingerprint"] * per
    for name in (
        "engine.cache_hits",
        "engine.evaluations",
        "engine.retries",
        "service.first_record_s",
        "service.wait_s",
        "service.server_cache_hits",
        "service.server_evaluations",
    ):
        values[name] = notes[name] * per
    values["engine.pool_busy_ratio"] = pool_busy_ratio

    # Self times never overlap.  The client's wait on the service is wall
    # time the client spent off the processor, which no region covers.
    regions = {name: seconds for name, seconds in probe.self_s.items() if seconds}
    if notes["service.wait_s"]:
        regions["service.wait_s"] = notes["service.wait_s"]
    attributed = sum(regions.values())
    if workload == "generate-verify":
        values["generate.other_s"] = max(0.0, wall_s - attributed) * per
    if wall_s:
        values["trace.overhead_ratio"] = sum(calls.values()) * call_cost_s / wall_s
        values["trace.attributed_ratio"] = attributed / wall_s
    shares = sorted(
        ((name, seconds / wall_s) for name, seconds in regions.items() if wall_s),
        key=lambda item: -item[1],
    )
    return values, shares
