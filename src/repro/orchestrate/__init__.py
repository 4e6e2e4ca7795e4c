"""Job-based campaign orchestration.

This package turns the paper's serial check-everything loop into a
scheduled, restartable job graph:

- :mod:`~repro.orchestrate.config` — :class:`CampaignConfig`, the
  frozen, serializable description of a whole campaign (engine and
  executor string specs, scheduling policy, cache/checkpoint paths,
  budgets), round-trippable through dicts and TOML and stamped (as a
  digest) into every report — the object the ``python -m repro`` CLI
  runs from;
- :mod:`~repro.orchestrate.policy` — pluggable scheduling policies
  (fifo / module-affinity work-queue batching), outcome-invariant by
  construction;
- :mod:`~repro.orchestrate.job` — :class:`CheckJob` (one property
  check: module + vunit + assertion + engine portfolio), content
  fingerprints, the portfolio runner (stages tried in their
  configured order), and the result codec the cache, the checkpoint
  and the fleet's result frames share;
- :mod:`~repro.orchestrate.planner` — one walk over the chip produces
  the flat, ordered job list;
- :mod:`~repro.orchestrate.executor` — the results-in-plan-order
  executor contract and the serial executor;
- :mod:`~repro.orchestrate.fleet` — :class:`FleetExecutor`, the one
  parallel executor: a coordinator thread leasing scheduling-policy
  batches to worker processes forked on this host, each over its own
  socket pair, naming each job by index and fingerprint
  (length-prefixed JSON, no pickle), with heartbeats, lease re-issue
  on worker death or stall, and at-most-once result acceptance — the
  same streaming contract as the serial executor;
- :mod:`~repro.orchestrate.cache` — fingerprint-keyed on-disk result
  store for incremental (ECO-regression) reruns;
- :mod:`~repro.orchestrate.checkpoint` — crash-safe journal of
  completed jobs, enabling kill-and-resume of half-finished campaigns;
- :mod:`~repro.orchestrate.orchestrator` — ties it together and
  aggregates the legacy :class:`~repro.core.campaign.CampaignReport`.

``FormalCampaign`` in :mod:`repro.core.campaign` is a thin façade over
:class:`CampaignOrchestrator`, so existing call sites keep working.

The executor contract
---------------------

An executor is any object with a ``name`` attribute and a ``map(jobs)``
method that, given the planner's ordered :class:`CheckJob` sequence,
yields exactly one :class:`JobResult` per job **in job-index order**,
lazily (the orchestrator aggregates as results stream out).  The
orchestrator detects and rejects under-yielding, over-yielding, and
out-of-order executors; ``map``'s return value should also support
``close()`` (generators do for free) so an aborted campaign can shut
workers down deterministically.  ``tests/test_executor_contract.py``
runs one parametrized battery — plan-order streaming, 0/1/many-job
edge cases, mid-stream ``close()``, error propagation, contract-breach
detection — against every shipped executor; a new (e.g. distributed)
executor only has to join that parametrization to be certified.

The content-addressed compile store
-----------------------------------

Every compile path — the job runner, cache FAIL-replay, checkpoint
replay, the partitioner's checkpoint pieces, ``compile_vunit`` — runs
through a per-worker
:class:`~repro.formal.problems.CompiledProblemStore`: one elaborated
design per module RTL digest, against which each assertion compiles.
Digest keying makes the golden-vs-patched same-name case safe by
construction, campaign outcomes are byte-identical with the store on,
off, or LRU-thrashed (tests enforce it across every executor), and the
hit/miss/evict counters surface in ``report.stats["compile_store"]``.
The on/off switch lives in ``CampaignConfig`` (``compile_store``) and,
like the SAT switch, stays out of job fingerprints; the capacity is the
class constant ``CompiledProblemStore.MAX_DESIGNS``.

Shared SAT workspaces
---------------------

``share_sat=True`` (the campaign default via ``CampaignConfig``'s
``[sat]`` section) runs ``kind`` stages against a
:class:`~repro.formal.satspace.SatWorkspace` of live incremental
solver sessions.  All assertions of one (module, vunit) pair compile
into a *cluster* — one shared AIG with a bad output per assertion —
and each session keeps its solver, unrolled time frames, and learned
clauses alive across portfolio stages and jobs, with per-assertion
activation literals scoping clauses so retiring one assertion (a unit
``¬act``) deactivates its clauses without touching its neighbours'.
Verdicts, depths, *and counterexample bytes* are sharing-invariant: a
warm FAIL re-derives its trace by a cold deterministic BMC replay on
the solo-compiled system, so ``CampaignReport.canonical_bytes`` is
identical with the workspace on, off, or LRU-thrashed (tests enforce
it across every executor).  The one documented exception is a
*binding* ``sat_conflicts`` budget: retained clauses can steer CDCL
search either way, so pin conflict budgets generously (the defaults
are non-binding) or run sharing off where strict equality under
binding budgets matters.  Counters surface in
``report.stats["sat_workspace"]``; the on/off switch
(``sat_workspace``) lives in ``CampaignConfig`` and stays out of job
fingerprints, and the capacities are the class constants
``SatWorkspace.MAX_SESSIONS`` and ``SatWorkspace.CLUSTER_LIMIT``.

Checkpoint/resume
-----------------

Attach a :class:`CampaignCheckpoint` to journal every fresh result to
disk the moment it streams out of the executor::

    checkpoint = CampaignCheckpoint("campaign.journal")
    orchestrator = CampaignOrchestrator(blocks, checkpoint=checkpoint)
    orchestrator.run()                 # killed at job 1400 of 2600?
    orchestrator.run(resume=True)      # replays 1400, runs 1200

The journal is JSON-lines: a header binding it to the exact campaign
(a digest over every job fingerprint in plan order, plus the package
version), then one line per completed job carrying the result cache's
serialized-result codec.  ``resume=True`` replays the journal's valid
prefix — a torn final line from a hard kill is dropped, a mismatched
or corrupt header discards the journal entirely and the campaign
reruns from scratch — and the finished report's
``CampaignReport.canonical_bytes()`` is byte-identical to an
uninterrupted run.  Journaled FAILs revalidate their counterexample
traces on replay, the same never-a-wrong-verdict rule the cache
enforces.
"""

from ..formal.problems import CompiledProblemStore
from ..formal.satspace import SatWorkspace
from .job import (
    CheckJob, DEFAULT_PORTFOLIO_METHODS, EngineConfig, JobResult,
    compile_job, decode_result, encode_result, job_fingerprint,
    portfolio, run_check_job,
)
from .planner import CampaignPlan, plan_campaign
from .executor import SerialExecutor
from .fleet import FleetExecutor, LocalFleetLauncher
from .cache import ResultCache
from .checkpoint import CampaignCheckpoint, plan_digest
from .config import (
    CampaignConfig, ConfigError, parse_engines_spec, parse_executor_spec,
)
from .policy import (
    FifoScheduling, ModuleAffinityScheduling, SchedulingPolicy,
    scheduling_policy,
)
from .stats import STATS_SCHEMA, counter_groups
from .orchestrator import CampaignOrchestrator

__all__ = [
    "CompiledProblemStore", "SatWorkspace",
    "CheckJob", "DEFAULT_PORTFOLIO_METHODS", "EngineConfig", "JobResult",
    "compile_job", "job_fingerprint", "portfolio", "run_check_job",
    "CampaignPlan", "plan_campaign",
    "SerialExecutor",
    "FleetExecutor", "LocalFleetLauncher",
    "ResultCache", "decode_result", "encode_result",
    "CampaignCheckpoint", "plan_digest",
    "CampaignConfig", "ConfigError",
    "parse_engines_spec", "parse_executor_spec",
    "FifoScheduling", "ModuleAffinityScheduling", "SchedulingPolicy",
    "scheduling_policy",
    "STATS_SCHEMA", "counter_groups",
    "CampaignOrchestrator",
]
