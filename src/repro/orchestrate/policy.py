"""Pluggable campaign policies: scheduling and portfolio ordering.

A campaign's *outcome* is fixed by its plan (which checks run, with
which engine portfolio) — but *how* the orchestrator walks that plan is
a policy decision: which worker runs which job next, and which
portfolio stage a job tries first.  This module gives those decisions
an API slot:

- a :class:`SchedulingPolicy` turns the plan's job list into the
  ordered *work units* the fleet leases to idle workers.  The default
  (:class:`FifoScheduling`) is one job per unit — pull scheduling at
  its finest grain.  :class:`ModuleAffinityScheduling` batches each
  module's jobs (``CampaignPlan.module_groups()``) into one unit, so
  one worker keeps one module's elaborated design and SAT sessions hot
  instead of the fleet interleaving modules across workers;
- a :class:`PortfolioPolicy` picks the *attempt order* of a job's
  engine portfolio.  The default (:class:`StaticPortfolio`) runs the
  configured order.  :class:`AdaptivePortfolio` consults the
  :class:`~repro.orchestrate.cache.ResultCache`'s engine history — the
  engine that historically settled this module/category — and tries
  that stage first.

Both policies are **outcome-invariant by construction**, and the tests
enforce it (``CampaignReport.canonical_bytes`` must not move):

- scheduling reorders only *execution*; the executor's reassembly
  buffer restores plan order, so aggregation never sees the difference;
- portfolio ordering is carried as a permutation
  (:attr:`~repro.orchestrate.job.CheckJob.engine_order`) **outside**
  the job fingerprint, so cache keys and checkpoint journals are
  identical whatever the policy.  A definitive PASS/FAIL verdict is
  stage-order-invariant (every engine is sound, and counterexamples
  are concretised by the same deterministic BMC run); when *no* stage
  is definitive the runner reports the stage that is last in the
  *configured* order, exactly as the static policy would.  Which stage
  happened to win — and its engine-specific proof bound — is run
  provenance, reported in ``result.stats`` and normalised away by
  ``canonical_bytes`` for portfolio results.

Policies are selected by name from
:class:`~repro.orchestrate.config.CampaignConfig`
(``scheduling = "module-affinity"``, ``portfolio = "adaptive"``); the
registries at the bottom are the lookup tables the config layer uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .job import CheckJob


class SchedulingPolicy:
    """Orders the fleet's lease queue.

    ``batches(jobs)`` partitions the job list into the units one lease
    hands a worker, in hand-out order.  Every job must appear exactly
    once; executors stream results back in plan order regardless, so a
    policy can only change *cost* (worker affinity, lease order), never
    the campaign outcome.
    """

    name = "?"

    def batches(self, jobs: Sequence[CheckJob]) -> List[List[CheckJob]]:
        raise NotImplementedError


class FifoScheduling(SchedulingPolicy):
    """One job per unit, in plan order — the classic pull queue
    (maximum balance, no module affinity)."""

    name = "fifo"

    def batches(self, jobs: Sequence[CheckJob]) -> List[List[CheckJob]]:
        return [[job] for job in jobs]


class ModuleAffinityScheduling(SchedulingPolicy):
    """One unit per module group, in first-appearance order.

    Jobs sharing a ``module_digest`` (the module's RTL digest) compile
    against one elaborated design and share SAT sessions — but a
    one-job-at-a-time queue sprays them across workers, each
    re-elaborating (or LRU-thrashing) its own copy.  Batching the whole
    group into one unit keeps one module's warm state hot on one
    worker; pull leasing still balances at the granularity of modules,
    which is exactly the granularity at which balance is free.
    """

    name = "module-affinity"

    def batches(self, jobs: Sequence[CheckJob]) -> List[List[CheckJob]]:
        groups: Dict[str, List[CheckJob]] = {}
        order: List[str] = []
        for job in jobs:
            key = job.module_digest
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(job)
        return [groups[key] for key in order]


class PortfolioPolicy:
    """Picks the attempt order of a job's engine portfolio.

    ``order(job)`` returns a permutation of ``range(len(job.engines))``
    — the execution order of the portfolio stages — or ``None`` for
    the configured order.  The permutation rides on
    :attr:`CheckJob.engine_order`, which is execution-time wiring:
    it never enters the job fingerprint, the result cache key, or the
    checkpoint journal, so policy choice cannot split the cache or
    invalidate a resume.
    """

    name = "?"

    def order(self, job: CheckJob) -> Optional[Tuple[int, ...]]:
        raise NotImplementedError


class StaticPortfolio(PortfolioPolicy):
    """Run the configured stage order — today's behaviour."""

    name = "static"

    def order(self, job: CheckJob) -> Optional[Tuple[int, ...]]:
        return None


class AdaptivePortfolio(PortfolioPolicy):
    """Try the historically winning engine first.

    History comes from the result cache
    (:meth:`~repro.orchestrate.cache.ResultCache.engine_history`): the
    engine that most recently settled a check of the same module name
    and property category — module *name*, not digest, because the
    whole point is the ECO scenario where an edited module misses the
    cache but its history still predicts the winner.  Falls back to a
    category-wide winner, then to the configured order; with no cache
    attached (or no history yet) the policy degrades to
    :class:`StaticPortfolio` behaviour.
    """

    name = "adaptive"

    def __init__(self, cache=None) -> None:
        self._history: Dict[Tuple[Optional[str], str], str] = \
            cache.engine_history() if cache is not None else {}

    def order(self, job: CheckJob) -> Optional[Tuple[int, ...]]:
        if len(job.engines) < 2:
            return None
        winner = self._history.get((job.module.name, job.category))
        if winner is None:
            winner = self._history.get((None, job.category))
        if winner is None:
            return None
        for position, config in enumerate(job.engines):
            if config.method == winner:
                if position == 0:
                    return None
                rest = [i for i in range(len(job.engines))
                        if i != position]
                return (position, *rest)
        return None


#: name -> scheduling policy class (the config layer's lookup table)
SCHEDULING_POLICIES = {
    FifoScheduling.name: FifoScheduling,
    ModuleAffinityScheduling.name: ModuleAffinityScheduling,
}

#: name -> portfolio policy class
PORTFOLIO_POLICIES = {
    StaticPortfolio.name: StaticPortfolio,
    AdaptivePortfolio.name: AdaptivePortfolio,
}


def scheduling_policy(name: str) -> SchedulingPolicy:
    """Instantiate the scheduling policy registered as ``name``."""
    try:
        return SCHEDULING_POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; "
            f"pick one of {tuple(SCHEDULING_POLICIES)}"
        ) from None


def portfolio_policy(name: str, cache=None) -> PortfolioPolicy:
    """Instantiate the portfolio policy registered as ``name``.

    ``cache`` is handed to policies that learn from history
    (:class:`AdaptivePortfolio`); stateless policies ignore it.
    """
    try:
        cls = PORTFOLIO_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown portfolio policy {name!r}; "
            f"pick one of {tuple(PORTFOLIO_POLICIES)}"
        ) from None
    if cls is AdaptivePortfolio:
        return cls(cache)
    return cls()
