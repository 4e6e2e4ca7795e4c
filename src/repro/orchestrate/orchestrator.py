"""The campaign orchestrator: plan → partition → execute → aggregate.

``CampaignOrchestrator`` ties the subsystem together:

1. :func:`~repro.orchestrate.planner.plan_campaign` walks the blocks
   once and emits the ordered :class:`CheckJob` list;
2. the plan is partitioned journal → store → reuse → run: jobs
   already completed in an attached
   :class:`~repro.orchestrate.checkpoint.CampaignCheckpoint` journal
   (when resuming) are replayed first, then a
   :class:`~repro.orchestrate.cache.ResultCache` hit replays its stored
   verdict, then a job whose fingerprint an earlier job of the plan
   settles (or the journal settled) reuses that verdict, and only the
   first job of each remaining fingerprint stays on the run list;
3. the executor (serial by default; the parallel fleet is opt-in and
   leases one job at a time, in plan order, to whichever worker is
   idle) runs each remaining job's engine ladder in its configured
   order and streams :class:`JobResult`\\ s back in plan order, each
   fresh result journaled to the checkpoint as it arrives;
4. results — journal-replayed, cached, reused and fresh interleaved
   back into plan order — are aggregated incrementally into the legacy
   :class:`CampaignReport`: per-block property counters, per-block
   distinct-defective-module bug counts (no post-hoc rescan), and the
   ``progress`` callback fired once per property in plan order.

Because aggregation consumes results strictly in plan order, every
executor — and every interrupted-then-resumed execution — produces a
byte-identical report outcome (``CampaignReport.canonical_bytes``);
``report.stats`` carries the orchestration counters (jobs, cache
hits/misses, journal replays, reused jobs, executor name) on top.

Fingerprints leave module and vunit names out, so a renamed copy of a
module plans jobs with its original's fingerprints: the campaign checks
each distinct problem once.  A reused verdict goes through the same
codec a store hit does (:func:`~repro.orchestrate.job.encode_result` /
:func:`~repro.orchestrate.job.decode_result`), so it is named by its own
job and a FAIL replays its counterexample on that job's own compile;
one that does not replay is an identity bug and raises.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..core.campaign import BlockSummary, CampaignReport, PropertyResult
from ..formal.engine import CheckResult, FAIL
from ..formal.problems import CompiledProblemStore
from .cache import ResultCache, decode_result, encode_result
from .checkpoint import CampaignCheckpoint, plan_digest
from .config import CampaignConfig
from .job import CheckJob, EngineConfig
from .planner import Blocks, CampaignPlan, plan_campaign
from .stats import STATS_SCHEMA

Progress = Optional[Callable[[str], None]]


class CampaignOrchestrator:
    """Runs a formal campaign as a scheduled job graph.

    The canonical way to parameterise a campaign is one declarative
    :class:`~repro.orchestrate.config.CampaignConfig`::

        config = CampaignConfig(executor="fleet:4",
                                engines="portfolio:kind,bdd-combined",
                                cache_path="campaign-cache.sqlite")
        CampaignOrchestrator(blocks, config=config).run()

    Every component — engine portfolio, executor (with its warm-state
    wiring), result cache, checkpoint journal — is built from the
    config, and the config's :meth:`digest
    <repro.orchestrate.config.CampaignConfig.digest>` is stamped into
    ``report.stats["config_digest"]`` so the report names the exact
    configuration that produced it.

    The per-component kwargs are the *override* layer, kept for
    programmatic callers and backward compatibility (they predate the
    config API and are soft-deprecated as the primary interface —
    prefer the config, which is what serializes):

    - ``engines`` — the per-job engine portfolio (tuple of
      :class:`EngineConfig`; one entry = single engine), the one way
      to run with engine tuning knobs other than the
      :class:`EngineConfig` defaults (``portfolio(..., max_k=...)``);
    - ``executor`` — any object with ``name`` and ``map(jobs)``
      yielding results in plan order;
    - ``cache`` — a :class:`ResultCache` for incremental reruns;
    - ``checkpoint`` — a :class:`CampaignCheckpoint` journaling
      completed jobs so a killed campaign restarts with
      ``run(resume=True)``.

    An explicit component wins over the config's corresponding spec;
    everything not overridden still comes from the config.  Overridden
    component names are recorded in
    ``report.stats["config_overrides"]`` — an empty list means the
    stamped ``config_digest`` alone fully describes the run.
    """

    def __init__(self, blocks: Blocks,
                 engines: Optional[Tuple[EngineConfig, ...]] = None,
                 executor=None,
                 cache: Optional[ResultCache] = None,
                 checkpoint: Optional[CampaignCheckpoint] = None,
                 config: Optional[CampaignConfig] = None) -> None:
        if config is None:
            config = CampaignConfig()
        self.config = config
        self.blocks = [(name, list(mods)) for name, mods in blocks]
        #: component kwargs that replaced the config's specs — recorded
        #: in ``report.stats["config_overrides"]`` so a stamped digest
        #: is never mistaken for the full story of an overridden run
        overrides = [
            name for name, value in [
                ("engines", engines), ("executor", executor),
                ("cache", cache), ("checkpoint", checkpoint),
            ] if value is not None
        ]
        # the blocks argument is a component too: when the config
        # names a scope and the caller hands a different one, the
        # digest no longer describes the run by itself
        if config.blocks is not None and \
                [name for name, _ in self.blocks] != list(config.blocks):
            overrides.append("blocks")
        self.config_overrides = sorted(overrides)
        self.engines = tuple(engines) if engines \
            else config.build_engines()
        self.executor = executor if executor is not None \
            else config.build_executor()
        self.cache = cache if cache is not None else config.build_cache()
        self.checkpoint = checkpoint if checkpoint is not None \
            else config.build_checkpoint()
        #: the orchestrator's own compiled-problem store, serving the
        #: journal-replay and cache-lookup decode paths (FAIL traces
        #: recompile to revalidate); executors hold their workers' run
        #: stores separately.  Persistent across run() calls, so a
        #: resume replays against warm designs.
        self._replay_store: Optional[CompiledProblemStore] = \
            CompiledProblemStore() if config.compile_store else None

    # ------------------------------------------------------------------
    def plan(self) -> CampaignPlan:
        """Produce the campaign's ordered job list without running it.

        Deterministic for identical inputs: replanning the same blocks
        with the same engine portfolio yields the same jobs, indices,
        and fingerprints — which is what lets a resumed campaign match
        its checkpoint journal against a freshly derived plan.
        """
        return plan_campaign(
            self.blocks, self.engines,
            coi_fingerprints=self.config.coi_fingerprints or "module",
        )

    # ------------------------------------------------------------------
    def run(self, progress: Progress = None,
            resume: bool = False) -> CampaignReport:
        """Run the campaign.

        ``resume=True`` requires an attached :class:`CampaignCheckpoint`
        and replays its journal's valid prefix before executing the
        remainder; the resulting report's outcome
        (``CampaignReport.canonical_bytes``) is byte-identical to an
        uninterrupted run.  An invalid or mismatched journal degrades
        to a plain full run (and is overwritten with a fresh one).
        """
        if resume and self.checkpoint is None:
            raise ValueError("resume=True requires a checkpoint")
        started = time.perf_counter()
        plan = self.plan()

        report = CampaignReport()
        report.lint_issues = list(plan.lint_issues)
        for block_name in plan.block_order:
            report.blocks[block_name] = BlockSummary(
                block_name, submodules=plan.submodules[block_name]
            )

        journal_results = self._open_checkpoint(plan, resume)
        cached_results, reused, to_run = self._partition(
            plan, journal_results)
        executed = self.executor.map(to_run)

        fail_modules: Dict[str, Set[str]] = {}
        fresh_modules: Set[str] = {job.module.name for job in to_run}
        engine_attempts: Dict[str, int] = {}
        try:
            for job in plan.jobs:
                cached = False
                if job.index in journal_results:
                    # this campaign's own completed work, restored —
                    # indistinguishable in the report from having just
                    # run it (``cached`` stays False); backfill the
                    # cache with any verdict it lacks (one a kill cut
                    # off, or all of them for a newly attached cache)
                    result = journal_results[job.index]
                    if self.cache is not None and \
                            job.fingerprint not in self.cache:
                        self.cache.store(job.fingerprint, result, job=job)
                elif job.index in cached_results:
                    cached = True
                    result = cached_results[job.index]
                elif job.index in reused:
                    # not computed for this job in this run: neither
                    # journaled nor stored, since its fingerprint is.
                    # A source precedes its reusers in the plan unless
                    # the journal settled it.
                    cached = True
                    source = plan.jobs[reused[job.index]]
                    settled = journal_results.get(source.index)
                    if settled is None:
                        settled = report.results[source.index].result
                    result = self._reuse(job, source, settled)
                else:
                    job_result = next(executed, None)
                    if job_result is None:
                        raise RuntimeError(
                            f"executor {self.executor.name!r} broke the "
                            f"ordering contract: ran out of results "
                            f"before job {job.index}"
                        )
                    if job_result.index != job.index:
                        raise RuntimeError(
                            f"executor {self.executor.name!r} broke the "
                            f"ordering contract: expected job "
                            f"{job.index}, got {job_result.index}"
                        )
                    result = job_result.result
                    for attempt in result.stats.get("portfolio") or \
                            [{"engine": job.engines[0].method}]:
                        method = attempt["engine"]
                        engine_attempts[method] = \
                            engine_attempts.get(method, 0) + 1
                    if self.cache is not None:
                        self.cache.store(job.fingerprint, result, job=job)
                    if self.checkpoint is not None:
                        self.checkpoint.record(job, result)
                self._record(report, job, result, cached, fail_modules,
                             progress)
            # drive the executor to completion: lets it release its
            # workers gracefully, and catches over-yielding executors
            leftover = next(executed, None)
            if leftover is not None:
                raise RuntimeError(
                    f"executor {self.executor.name!r} broke the "
                    f"ordering contract: yielded result "
                    f"{leftover.index} beyond the last job"
                )
        finally:
            # shut the executor down deterministically (a parallel
            # pool must not keep churning after a failed run)...
            close = getattr(executed, "close", None)
            if close is not None:
                close()
            # ...and persist whatever completed, even when a job blows
            # up mid-campaign — that's what an incremental retry (or a
            # resume from the journal) reuses
            if self.checkpoint is not None:
                self.checkpoint.close()
            if self.cache is not None:
                self.cache.flush()
        report.seconds = time.perf_counter() - started
        compile_stats_fn = getattr(self.executor, "compile_stats", None)
        sat_stats_fn = getattr(self.executor, "sat_stats", None)
        fleet_stats_fn = getattr(self.executor, "fleet_stats", None)
        report.stats = {
            # every record embedding these counters (CLI --stats, the
            # benchmark JSON, the service /metrics endpoint) names the
            # shape it speaks — see repro.orchestrate.stats
            "stats_schema": STATS_SCHEMA,
            "executor": self.executor.name,
            "engines": [config.method for config in self.engines],
            "config_digest": self.config.digest(),
            "config_overrides": list(self.config_overrides),
            "engine_attempts": engine_attempts,
            # hit/miss/evict counters of the content-addressed compile
            # layer: "run" aggregates the executor's per-worker stores
            # (empty dict = store off or executor without one),
            # "replay" is the orchestrator's own store serving journal
            # and cache decodes
            "compile_store": {
                "run": compile_stats_fn() if compile_stats_fn else {},
                "replay": self._replay_store.stats()
                if self._replay_store is not None else {},
            },
            # warm-state workspace counters aggregated over the
            # executor's workers (empty dict = sharing off or executor
            # without the hook)
            "sat_workspace": sat_stats_fn() if sat_stats_fn else {},
            # fleet transport bookkeeping (workers launched/lost,
            # leases issued/re-issued, rejected results, per-worker job
            # counts); empty dict = not a fleet executor
            "fleet": fleet_stats_fn() if fleet_stats_fn else {},
            # cone addressing: what the [coi] section asked for, how
            # many distinct cones the plan saw, and the hit/run split —
            # the sweep-at-scale headline (cone_hits are the cache hits
            # earned by cone fingerprints; in module mode the split is
            # still reported but cone_hits stays 0)
            "coi": {
                "fingerprints": self.config.coi_fingerprints or "module",
                "unique_cones": len({job.cone_digest
                                     for job in plan.jobs
                                     if job.cone_digest}),
                "jobs_executed": len(to_run),
                "cone_hits": len(cached_results)
                if self.config.coi_fingerprints == "cone" else 0,
            },
            "jobs": plan.total_jobs,
            "cache_hits": len(cached_results),
            # every job the store did not serve: run or reused
            "cache_misses": len(to_run) + len(reused)
            if self.cache is not None else 0,
            "journal_replayed": len(journal_results),
            "jobs_reused": len(reused),
            "modules_checked": sorted(fresh_modules),
            "modules_replayed": sorted(
                set(plan.modules_planned()) - fresh_modules
            ),
        }
        return report

    # ------------------------------------------------------------------
    def _open_checkpoint(self, plan: CampaignPlan,
                         resume: bool) -> Dict[int, CheckResult]:
        """Load the journal's replayable results (resume only) and open
        the journal for appending this run's fresh completions."""
        if self.checkpoint is None:
            return {}
        digest = plan_digest(plan)
        replayed: Dict[int, CheckResult] = {}
        if resume:
            for index, entry in self.checkpoint.load(
                    digest, plan.total_jobs).items():
                job = plan.jobs[index]
                if entry["fingerprint"] != job.fingerprint:
                    continue  # stale entry — re-check, never trust it
                try:
                    replayed[index] = decode_result(
                        entry["result"], job, self._replay_store
                    )
                except Exception:
                    continue  # malformed/unreplayable — re-check
        self.checkpoint.start(digest, plan.total_jobs,
                              resuming=bool(replayed))
        return replayed

    # ------------------------------------------------------------------
    def _partition(self, plan: CampaignPlan,
                   journal_results: Dict[int, CheckResult]
                   ) -> Tuple[Dict[int, CheckResult], Dict[int, int],
                              List[CheckJob]]:
        """Split the plan journal → store → reuse → run: past the
        journal replays (already loaded), the cache hits, the jobs that
        reuse an earlier job's verdict (index -> source index, see
        :func:`split_reuse`), and the jobs that must run."""
        remaining = [job for job in plan.jobs
                     if job.index not in journal_results]
        cached: Dict[int, CheckResult] = {}
        misses: List[CheckJob] = []
        for job in remaining:
            result = None if self.cache is None else self.cache.lookup(
                job.fingerprint, job, self._replay_store)
            if result is not None:
                cached[job.index] = result
            else:
                misses.append(job)
        reused, to_run = split_reuse(plan, journal_results, misses)
        return cached, reused, to_run

    def _reuse(self, job: CheckJob, source: CheckJob,
               result: CheckResult) -> CheckResult:
        """``source``'s ``result`` for ``job``, through the codec a
        store hit takes: named by ``job``, a FAIL's counterexample
        replayed on ``job``'s own compile.  Equal fingerprints promised
        one check, so a result that does not decode is an identity
        bug: it raises, and never becomes a reported verdict or a
        silent re-check."""
        try:
            return decode_result(encode_result(result), job,
                                 self._replay_store)
        except Exception as error:
            raise RuntimeError(
                f"job {job.index} ({job.qualified_name}) cannot reuse "
                f"the verdict of job {source.index} "
                f"({source.qualified_name}) although both have "
                f"fingerprint {job.fingerprint[:16]}: {error}"
            ) from error

    @staticmethod
    def _record(report: CampaignReport, job: CheckJob, result: CheckResult,
                cached: bool, fail_modules: Dict[str, Set[str]],
                progress: Progress) -> None:
        record = PropertyResult(
            block=job.block,
            module_name=job.module.name,
            vunit_name=job.vunit.name,
            assert_name=job.assert_name,
            category=job.category,
            result=result,
            cached=cached,
        )
        report.results.append(record)
        summary = report.blocks[job.block]
        summary.add(job.category)
        if result.status == FAIL:
            defective = fail_modules.setdefault(job.block, set())
            defective.add(job.module.name)
            summary.bugs = len(defective)
        if progress is not None:
            progress(f"{record.qualified_name}: {result.status.upper()}")


def split_reuse(plan: CampaignPlan, settled: Iterable[int],
                misses: Iterable[CheckJob]
                ) -> Tuple[Dict[int, int], List[CheckJob]]:
    """Split the jobs the store did not serve (``misses``, in plan
    order) into reusers and jobs to run.

    A miss reuses the verdict of the journal-``settled`` job with its
    fingerprint, else of the first earlier miss with it; it maps to
    that source's index.  The first miss of every other fingerprint
    runs.  So a campaign checks each distinct fingerprint once, and a
    resumed one runs no check its journal settled.
    """
    source_of: Dict[str, int] = {}
    for index in sorted(settled):
        source_of.setdefault(plan.jobs[index].fingerprint, index)
    reused: Dict[int, int] = {}
    to_run: List[CheckJob] = []
    for job in misses:
        source = source_of.setdefault(job.fingerprint, job.index)
        if source == job.index:
            to_run.append(job)
        else:
            reused[job.index] = source
    return reused, to_run
