"""Pluggable scheduling policies: how the fleet walks a campaign plan.

A campaign's *outcome* is fixed by its plan (which checks run, with
which engine ladder, tried in the order the ladder gives) — but which
worker runs which job next is a policy decision.  A
:class:`SchedulingPolicy` turns the plan's job list into the ordered
*work units* the fleet leases to idle workers.  The default
(:class:`FifoScheduling`) is one job per unit — pull scheduling at its
finest grain.  :class:`ModuleAffinityScheduling` batches each module's
jobs (``CampaignPlan.module_groups()``) into one unit, so one worker
keeps one module's elaborated design and SAT sessions hot instead of
the fleet interleaving modules across workers.

Scheduling is **outcome-invariant by construction**, and the tests
enforce it (``CampaignReport.canonical_bytes`` must not move): it
reorders only *execution*, and the executor's reassembly buffer
restores plan order, so aggregation never sees the difference.

A policy is selected by name from
:class:`~repro.orchestrate.config.CampaignConfig`
(``scheduling = "module-affinity"``); the registry at the bottom is
the lookup table the config layer uses.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

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


#: name -> scheduling policy class (the config layer's lookup table)
SCHEDULING_POLICIES = {
    FifoScheduling.name: FifoScheduling,
    ModuleAffinityScheduling.name: ModuleAffinityScheduling,
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
