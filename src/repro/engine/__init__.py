"""Campaign engine: parallel, cached, persistent design-space exploration.

The paper closes by calling for "algorithms and heuristics which can explore
the vast design space opened up by address decoder decoupling".  This
package is the scaffolding for that exploration at scale:

* :mod:`repro.engine.jobs` -- declarative :class:`EvalJob`/:class:`Campaign`
  grids over (workload x geometry x style x library x encoding) with stable
  content-hash keys per job, and the one ``(style, variant)`` table that
  :func:`build_design` builds architectures from;
* :mod:`repro.engine.cache` -- a content-addressed on-disk result store, so
  re-running a campaign only evaluates new points;
* :mod:`repro.engine.scheduler` -- :class:`Scheduler` owns the warmed
  worker pool, chunking and error policy, and dedups concurrent
  submissions by content hash (two clients asking for the same grid point
  share one in-flight evaluation);
* :mod:`repro.engine.runner` -- :class:`CampaignRunner`, the thin
  synchronous scheduler client: submits a campaign, streams
  :class:`EvalRecord` results back in campaign order, and merges
  campaign-level Pareto fronts;
* :mod:`repro.engine.sweep` -- built-in campaigns reproducing the paper's
  Figure 8/10 sweeps plus new cross-workload grids;
* :mod:`repro.engine.pareto` -- the O(n log n) Pareto sweep behind every
  Pareto front, the interactive explorer's included (its
  :func:`~repro.analysis.explore` is a one-workload campaign run here).
"""

from repro.engine.cache import ResultCache
from repro.engine.jobs import (
    Campaign,
    EvalJob,
    FSM_ENCODINGS,
    STYLE_VARIANTS,
    build_design,
)
from repro.engine.pareto import pareto_indices, pareto_min
from repro.engine.runner import CampaignResult, CampaignRunner, EvalRecord, evaluate_job
from repro.engine.scheduler import Scheduler, SchedulerTimeout, Submission
from repro.engine.sweep import (
    CAMPAIGNS,
    available_campaigns,
    build_campaign,
    campaign_description,
    register_campaign,
)

__all__ = [
    "CAMPAIGNS",
    "Campaign",
    "CampaignResult",
    "CampaignRunner",
    "EvalJob",
    "EvalRecord",
    "FSM_ENCODINGS",
    "ResultCache",
    "STYLE_VARIANTS",
    "Scheduler",
    "SchedulerTimeout",
    "Submission",
    "available_campaigns",
    "build_campaign",
    "build_design",
    "campaign_description",
    "evaluate_job",
    "pareto_indices",
    "pareto_min",
    "register_campaign",
]
