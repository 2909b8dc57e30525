"""Resilience subsystem: deterministic fault injection + recovery policies.

Two halves, deliberately in one package because each exists to prove the
other works:

* :mod:`repro.resilience.faults` -- named, seeded **fault-injection sites**
  compiled into the pipeline's hot seams (cache appends and compaction,
  scheduler dispatch and worker bodies, service reads/writes, client
  connect/stream).  Disabled sites follow the ``NULL_SPAN`` pattern from
  :mod:`repro.obs`: one module-global check, zero allocation, a pinned
  overhead floor.  A :class:`~repro.resilience.faults.FaultPlan` (JSON,
  force-enabled via ``SRADGEN_FAULTS=plan.json`` or ``sradgen
  --fault-plan``) arms chosen sites with deterministic triggers -- fire on
  the Nth hit, on a seeded coin flip, or on a fixed schedule -- and actions:
  raise, delay, torn (partial) write, or hard ``os._exit``.
* :mod:`repro.resilience.retry` -- the **recovery policies** the rest of
  the stack heals itself with: :class:`~repro.resilience.retry.RetryPolicy`
  (bounded attempts, deterministic exponential backoff) and
  :func:`~repro.resilience.retry.call_with_retry`, the one sanctioned retry
  loop (the ``ast.bare-retry-loop`` lint rule keeps ad-hoc ones out of the
  tree).

The chaos suite (``tests/test_resilience*.py``) runs the multi-client
campaign scenario under injection plans and asserts the production
invariant: no lost records, no duplicate evaluations, and results identical
to a fault-free serial run.
"""

from repro.resilience.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    active_plan,
    clear_plan,
    fault_data,
    fault_point,
    install_plan,
)
from repro.resilience.retry import (
    DETERMINISTIC,
    DETERMINISTIC_ERRORS,
    TRANSIENT,
    RetryPolicy,
    call_with_retry,
    classify_exception,
)

__all__ = [
    "DETERMINISTIC",
    "DETERMINISTIC_ERRORS",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "TRANSIENT",
    "active_plan",
    "call_with_retry",
    "classify_exception",
    "clear_plan",
    "fault_data",
    "fault_point",
    "install_plan",
]
