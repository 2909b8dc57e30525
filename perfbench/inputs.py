"""Seeded inputs of the benchmark workloads.

Everything the program under test receives is built here from ``--seed``
alone: the same seed gives the same request plans, a different seed gives
different ones.  Each workload draws from a fixed *universe* of design
points; ``expected.json`` holds the digest of every point of every universe,
so any request a seed can produce is checkable.

Plans are plain data (tuples of names and numbers).  Turning them into
``EvalJob`` objects is part of the timed request, as it is for a CLI run.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

__all__ = [
    "COLD_FLOWS",
    "JobPlan",
    "cold_request",
    "cold_universe",
    "flow_kwargs",
    "generate_plan",
    "generate_round",
    "generate_universe",
    "job_label",
    "service_request",
    "warm_universe",
]

#: One evaluation job as data:
#: (workload, rows, cols, style, variant, library, flow).
JobPlan = Tuple[str, int, int, str, str, str, str]

#: Flow variants of the cold campaign: the default flow, logic optimisation
#: on, and the switching-activity power study on.
COLD_FLOWS = ("plain", "o1", "p256")

_FLOW_KWARGS: Dict[str, Dict[str, int]] = {
    "plain": {},
    "o1": {"opt_level": 1},
    "p256": {"power_cycles": 256},
}

# Sizes: ``full`` is what the benchmark measures; ``tiny`` is for its own
# tests.  Every tiny universe is a subset of the full one.
_GENERATE_LENGTHS = {"full": (256, 512, 1024), "tiny": (256,)}
_GENERATE_SIDES = (4, 8, 16, 32, 64)
_GENERATE_MAX_ASPECT = 8

_COLD_GEOMETRIES = {"full": ((8, 8), (16, 16)), "tiny": ((8, 8),)}
_WARM_GEOMETRIES = {"full": ((4, 4), (4, 8), (8, 8)), "tiny": ((4, 4),)}
_SERVICE_LIST = {"full": 512, "tiny": 32}


def _registry():
    from repro.engine.jobs import STYLE_VARIANTS
    from repro.synth.cell_library import LIBRARIES
    from repro.workloads.registry import available_workloads

    return available_workloads(), STYLE_VARIANTS, sorted(LIBRARIES)


def _rng(seed: int, *parts: object) -> random.Random:
    # String seeds hash deterministically (unlike hash() of a tuple).
    return random.Random(":".join(str(part) for part in (seed,) + parts))


def flow_kwargs(flow: str) -> Dict[str, int]:
    """``FlowSpec`` keyword arguments of a named flow variant."""
    return dict(_FLOW_KWARGS[flow])


def job_label(plan: JobPlan) -> str:
    """Readable identity of a job plan, the key of its expected digest."""
    workload, rows, cols, style, variant, library, flow = plan
    return f"{workload}/{rows}x{cols}/{style}/{variant}/{library}/{flow}"


# --------------------------------------------------------------- generate-verify
def generate_round(size: str = "full") -> int:
    """Requests per ``generate-verify`` round: one per stratum."""
    return len(generate_universe(size))


def generate_universe(size: str = "full") -> Dict[Tuple[str, int], List[Tuple[int, int]]]:
    """Every ``generate-verify`` point, grouped by (workload, sequence length).

    A point is a registry workload on a ``rows x cols`` array whose sequence
    length is one of the stratum lengths and whose aspect ratio is at most
    8.  Sequences longer than 1024 are left out so that one run holds some
    fifty requests; the per-cell-cycle cost they would add is the same.
    """
    from repro.workloads.registry import WORKLOADS

    workloads, _, _ = _registry()
    lengths = _GENERATE_LENGTHS[size]
    strata: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}
    for workload in workloads:
        for rows in _GENERATE_SIDES:
            for cols in _GENERATE_SIDES:
                if max(rows, cols) > _GENERATE_MAX_ASPECT * min(rows, cols):
                    continue
                # The factory, not build_pattern: the pattern memo must stay
                # empty so that the first request builds its pattern cold.
                length = WORKLOADS[workload](rows, cols).trip_count
                if length in lengths:
                    strata.setdefault((workload, length), []).append((rows, cols))
    return strata


def generate_plan(seed: int, size: str = "full") -> List[Tuple[str, int, int]]:
    """The seeded order of ``generate-verify`` requests; no point repeats.

    The plan is a sequence of rounds.  Every round holds one point of each
    (workload, length) stratum, so whole rounds have the same mix of
    workloads and sequence lengths whatever the seed; the seed picks which
    geometries of a stratum the rounds use (a stratum has three or four)
    and the order inside each round.  There are as many rounds as the
    smallest stratum has geometries.
    """
    strata = generate_universe(size)
    rng = _rng(seed, "generate")
    orders = {}
    for stratum in sorted(strata):
        geometries = list(strata[stratum])
        rng.shuffle(geometries)
        orders[stratum] = geometries
    plan: List[Tuple[str, int, int]] = []
    for round_index in range(min(len(g) for g in orders.values())):
        batch = [
            (stratum[0],) + geometries[round_index]
            for stratum, geometries in sorted(orders.items())
        ]
        rng.shuffle(batch)
        plan.extend(batch)
    return plan


# ----------------------------------------------------------------- campaign-cold
def cold_universe(size: str = "full") -> List[JobPlan]:
    """Every job a ``campaign-cold`` request can contain."""
    workloads, styles, _ = _registry()
    return [
        (workload, rows, cols, style, variant, "std018", flow)
        for workload in workloads
        for rows, cols in _COLD_GEOMETRIES[size]
        for style, variant in styles
        for flow in COLD_FLOWS
    ]


def cold_request(seed: int, index: int, size: str = "full") -> List[JobPlan]:
    """Job list of cold request ``index``.

    One job per (style variant, geometry) slot, so every request holds the
    same number of FSM, SRAG and counter designs at each array size; the
    seed picks the workload of each slot (the two geometries together
    cover all nine) and its flow variant (plain, ``opt_level=1`` or
    ``power_cycles=256``).
    """
    workloads, styles, _ = _registry()
    rng = _rng(seed, "cold", index)
    geometries = _COLD_GEOMETRIES[size]
    dropped: List[str] = []
    plans: List[JobPlan] = []
    for rows, cols in geometries:
        order = list(workloads)
        rng.shuffle(order)
        # Each geometry leaves out len(workloads) - len(styles) workloads;
        # rotate until they differ from the ones an earlier geometry left
        # out, so that the request covers every workload.
        keep = len(styles)
        for _ in range(len(order)):
            if not set(order[keep:]) & set(dropped):
                break
            order = order[1:] + order[:1]
        dropped.extend(order[keep:])
        for (style, variant), workload in zip(styles, order):
            plans.append((workload, rows, cols, style, variant, "std018", ""))
    flows = list(COLD_FLOWS)
    rng.shuffle(flows)
    assigned = [flows[i % len(flows)] for i in range(len(plans))]
    rng.shuffle(assigned)
    plans = [plan[:-1] + (flow,) for plan, flow in zip(plans, assigned)]
    rng.shuffle(plans)
    return plans


# ---------------------------------------------------------------- service-replay
def warm_universe(size: str = "full") -> List[JobPlan]:
    """Every job the set-up evaluates into the warm cache."""
    workloads, styles, libraries = _registry()
    if size == "tiny":
        libraries = libraries[:1]
    return [
        (workload, rows, cols, style, variant, library, "plain")
        for library in libraries
        for workload in workloads
        for rows, cols in _WARM_GEOMETRIES[size]
        for style, variant in styles
    ]


def service_request(seed: int, index: int, size: str = "full") -> List[JobPlan]:
    """Job list of ``service-replay`` request ``index``: a seeded sample of
    the warm universe, about what a re-run campaign replays."""
    return _rng(seed, "service", index).sample(
        warm_universe(size), _SERVICE_LIST[size]
    )
