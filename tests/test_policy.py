"""Scheduling and portfolio policies: behaviour and outcome-invariance.

The policy layer's contract is sharp: policies may move *cost* —
which worker runs what, which engine gets tried first — but never the
campaign outcome.  These tests pin both halves: the mechanics (batch
partitioning, history extraction, permutation handling) and the
invariant (``CampaignReport.canonical_bytes`` identical under every
policy, across executors).
"""

import dataclasses
import shutil

import pytest

from repro.chip import ComponentChip
from repro.formal.engine import CheckResult, PASS, TIMEOUT
from repro.orchestrate import (
    AdaptivePortfolio, CampaignConfig, CampaignOrchestrator, EngineConfig,
    FifoScheduling, FleetExecutor, ModuleAffinityScheduling, ResultCache,
    StaticPortfolio, plan_campaign, portfolio_policy,
    run_check_job, scheduling_policy,
)


def _engines(*methods, **overrides):
    overrides.setdefault("sat_conflicts", 500_000)
    overrides.setdefault("bdd_nodes", 5_000_000)
    if not methods:
        return (EngineConfig(**overrides),)
    return tuple(EngineConfig(method=method, **overrides)
                 for method in methods)


@pytest.fixture(scope="module")
def small_blocks():
    """Two modules of block C with one seeded defect: 17 jobs, PASS
    and FAIL mixed."""
    chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
    return [("C", chip.blocks[0][1][:2])]


@pytest.fixture(scope="module")
def small_plan(small_blocks):
    return plan_campaign(small_blocks, _engines())


# ----------------------------------------------------------------------
# scheduling policies
# ----------------------------------------------------------------------

class TestScheduling:
    def test_registry_lookup(self):
        assert isinstance(scheduling_policy("fifo"), FifoScheduling)
        assert isinstance(scheduling_policy("module-affinity"),
                          ModuleAffinityScheduling)
        with pytest.raises(ValueError, match="unknown scheduling"):
            scheduling_policy("lifo")

    def test_fifo_is_one_job_per_unit(self, small_plan):
        units = FifoScheduling().batches(small_plan.jobs)
        assert [job.index for unit in units for job in unit] == \
            [job.index for job in small_plan.jobs]
        assert all(len(unit) == 1 for unit in units)

    def test_planner_module_groups_contiguous(self, small_plan):
        groups = small_plan.module_groups()
        assert sum(len(indices) for indices in groups.values()) \
            == small_plan.total_jobs
        for indices in groups.values():
            assert indices == list(range(indices[0],
                                         indices[0] + len(indices)))

    def test_module_affinity_matches_module_groups(self, small_plan):
        """One unit per module group, exactly the planner's grouping,
        in first-appearance order — a partition of the plan."""
        units = ModuleAffinityScheduling().batches(small_plan.jobs)
        groups = small_plan.module_groups()
        assert [[job.index for job in unit] for unit in units] == \
            list(groups.values())
        flat = [job.index for unit in units for job in unit]
        assert sorted(flat) == [job.index for job in small_plan.jobs]

    def test_executor_rejects_lossy_policy(self, small_plan):
        class Lossy(FifoScheduling):
            def batches(self, jobs):
                return super().batches(jobs)[:-1]

        executor = FleetExecutor(workers=2, scheduling=Lossy())
        with pytest.raises(RuntimeError, match="lost or duplicated"):
            list(executor.map(small_plan.jobs))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_fleet_streams_plan_order_under_affinity(
            self, small_plan, workers):
        executor = FleetExecutor(
            workers=workers,
            scheduling=ModuleAffinityScheduling(),
        )
        results = list(executor.map(small_plan.jobs))
        assert [r.index for r in results] == \
            [job.index for job in small_plan.jobs]

    def test_error_in_batch_poisons_only_its_unit(self, small_plan):
        """A failing job inside a module batch must surface exactly at
        its plan position; earlier results still stream out."""
        jobs = [dataclasses.replace(job) for job in small_plan.jobs]
        bad_index = jobs[-1].index
        jobs[-1] = dataclasses.replace(
            jobs[-1], engines=(EngineConfig(method="quantum"),)
        )
        executor = FleetExecutor(
            workers=2, scheduling=ModuleAffinityScheduling()
        )
        yielded = []
        with pytest.raises(ValueError, match="unknown method"):
            for result in executor.map(jobs):
                yielded.append(result.index)
        assert yielded == list(range(bad_index))


# ----------------------------------------------------------------------
# portfolio policies
# ----------------------------------------------------------------------

class TestPortfolioOrdering:
    def test_registry_lookup(self):
        assert isinstance(portfolio_policy("static"), StaticPortfolio)
        assert isinstance(portfolio_policy("adaptive"),
                          AdaptivePortfolio)
        with pytest.raises(ValueError, match="unknown portfolio"):
            portfolio_policy("oracle")

    def test_static_never_reorders(self, small_plan):
        policy = StaticPortfolio()
        assert all(policy.order(job) is None for job in small_plan.jobs)

    def test_adaptive_without_cache_is_static(self, small_plan):
        policy = AdaptivePortfolio(None)
        assert all(policy.order(job) is None for job in small_plan.jobs)

    def _job_with_history(self, small_blocks, tmp_path, winner):
        """A portfolio job plus a cache seeded so ``winner`` is the
        module/category's historical engine."""
        plan = plan_campaign(
            small_blocks, _engines("pobdd", "bdd-combined", "kind"))
        job = plan.jobs[0]
        cache = ResultCache(str(tmp_path / "cache.json"))
        cache.store("some-old-fingerprint",
                    CheckResult("p", PASS, winner), job=job)
        return job, cache

    def test_adaptive_moves_winner_first(self, small_blocks, tmp_path):
        job, cache = self._job_with_history(small_blocks, tmp_path,
                                            "kind")
        order = AdaptivePortfolio(cache).order(job)
        assert order == (2, 0, 1)

    def test_adaptive_keeps_leading_winner(self, small_blocks, tmp_path):
        job, cache = self._job_with_history(small_blocks, tmp_path,
                                            "pobdd")
        assert AdaptivePortfolio(cache).order(job) is None

    def test_adaptive_ignores_foreign_winner(self, small_blocks,
                                             tmp_path):
        job, cache = self._job_with_history(small_blocks, tmp_path,
                                            "bmc")
        assert AdaptivePortfolio(cache).order(job) is None

    def test_category_fallback(self, small_blocks, tmp_path):
        """History from one module generalises to same-category jobs of
        other modules (the (None, category) fallback)."""
        plan = plan_campaign(
            small_blocks, _engines("pobdd", "bdd-combined", "kind"))
        seed = plan.jobs[0]
        other = next(job for job in plan.jobs
                     if job.module.name != seed.module.name
                     and job.category == seed.category)
        cache = ResultCache(str(tmp_path / "cache.json"))
        cache.store("fp", CheckResult("p", PASS, "kind"), job=seed)
        assert AdaptivePortfolio(cache).order(other) == (2, 0, 1)


class TestEngineHistory:
    def _cache(self, tmp_path):
        return ResultCache(str(tmp_path / "cache.json"))

    def _store(self, cache, job, **result_kwargs):
        result_kwargs.setdefault("name", "p")
        result_kwargs.setdefault("status", PASS)
        cache.store(f"fp-{len(cache)}", CheckResult(**result_kwargs),
                    job=job)

    def test_winner_from_portfolio_attempts(self, small_plan, tmp_path):
        cache = self._cache(tmp_path)
        job = small_plan.jobs[0]
        result = CheckResult("p", PASS, "portfolio:bdd-combined",
                             stats={"portfolio": [
                                 {"engine": "kind", "status": TIMEOUT},
                                 {"engine": "bdd-combined",
                                  "status": PASS},
                             ]})
        cache.store("fp", result, job=job)
        history = cache.engine_history()
        assert history[(job.module.name, job.category)] == \
            "bdd-combined"
        assert history[(None, job.category)] == "bdd-combined"

    def test_winner_from_plain_engine_labels(self, small_plan,
                                             tmp_path):
        cache = self._cache(tmp_path)
        job = small_plan.jobs[0]
        self._store(cache, job, engine="auto:kind")
        assert cache.engine_history()[(job.module.name, job.category)] \
            == "auto"

    def test_non_definitive_entries_ignored(self, small_plan, tmp_path):
        cache = self._cache(tmp_path)
        job = small_plan.jobs[0]
        self._store(cache, job, status=TIMEOUT, engine="kind")
        assert cache.engine_history() == {}

    def test_entries_without_job_metadata_ignored(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.store("fp", CheckResult("p", PASS, "kind"))  # no job
        assert cache.engine_history() == {}

    def test_newest_entry_wins(self, small_plan, tmp_path):
        cache = self._cache(tmp_path)
        job = small_plan.jobs[0]
        self._store(cache, job, engine="kind")
        self._store(cache, job, engine="pobdd")
        assert cache.engine_history()[(job.module.name, job.category)] \
            == "pobdd"


class TestEngineOrderExecution:
    def test_bad_permutation_rejected(self, small_plan):
        job = dataclasses.replace(
            small_plan.jobs[0],
            engines=_engines("kind", "bdd-combined"),
            engine_order=(0, 0),
        )
        with pytest.raises(ValueError, match="not a permutation"):
            run_check_job(job)

    def test_non_definitive_reports_configured_last_stage(
            self, small_plan):
        """When no stage settles the check, the reported result must be
        the configured-last stage's, whatever order the stages ran in —
        that is what keeps reordered portfolios outcome-invariant."""
        job = next(j for j in small_plan.jobs)
        starved = _engines("bmc", "kind", sat_conflicts=0, max_bound=2,
                           max_k=2)
        static = dataclasses.replace(job, engines=starved)
        reordered = dataclasses.replace(job, engines=starved,
                                        engine_order=(1, 0))
        static_result = run_check_job(static).result
        reordered_result = run_check_job(reordered).result
        assert static_result.status == reordered_result.status
        assert static_result.engine == reordered_result.engine
        attempts = [a["engine"] for a in
                    reordered_result.stats["portfolio"]]
        assert attempts == ["kind", "bmc"]  # ran reordered...
        # ...but reported as the static order would


# ----------------------------------------------------------------------
# the invariant: policies move stats, never the outcome
# ----------------------------------------------------------------------

class TestOutcomeInvariance:
    @pytest.fixture(scope="class")
    def reference(self, small_blocks):
        config = CampaignConfig(engines="portfolio:pobdd,bdd-combined,kind",
                                sat_conflicts=500_000,
                                bdd_nodes=5_000_000)
        return CampaignOrchestrator(small_blocks, config=config).run()

    @pytest.mark.parametrize("executor_spec", ["serial", "fleet:2"])
    @pytest.mark.parametrize("scheduling", ["fifo", "module-affinity"])
    def test_scheduling_never_moves_the_outcome(
            self, small_blocks, reference, executor_spec, scheduling):
        config = CampaignConfig(engines="portfolio:pobdd,bdd-combined,kind",
                                sat_conflicts=500_000,
                                bdd_nodes=5_000_000,
                                executor=executor_spec,
                                scheduling=scheduling)
        report = CampaignOrchestrator(small_blocks, config=config).run()
        assert report.canonical_bytes() == reference.canonical_bytes()
        assert report.stats["scheduling"] == \
            (scheduling if executor_spec != "serial" else "fifo")

    def test_adaptive_portfolio_moves_only_stats(self, small_blocks,
                                                 tmp_path):
        """The ECO scenario: history says `kind` wins, the configured
        ladder tries `pobdd` first.  The adaptive run must attempt
        different engines (stats move) yet land the byte-identical
        outcome."""
        warm_path = str(tmp_path / "warm.json")
        warm = CampaignConfig(engines="portfolio:kind,bdd-combined,pobdd",
                              sat_conflicts=500_000,
                              bdd_nodes=5_000_000, cache_path=warm_path)
        CampaignOrchestrator(small_blocks, config=warm).run()

        # budgets changed -> every fingerprint misses, history remains
        static_path = str(tmp_path / "static.json")
        adaptive_path = str(tmp_path / "adaptive.json")
        shutil.copy(warm_path, static_path)
        shutil.copy(warm_path, adaptive_path)
        eco = CampaignConfig(engines="portfolio:pobdd,bdd-combined,kind",
                             sat_conflicts=400_000,
                             bdd_nodes=5_000_000)
        static = CampaignOrchestrator(
            small_blocks,
            config=dataclasses.replace(eco, cache_path=static_path),
        ).run()
        adaptive = CampaignOrchestrator(
            small_blocks,
            config=dataclasses.replace(eco, cache_path=adaptive_path,
                                       portfolio="adaptive"),
        ).run()
        assert static.stats["portfolio_reordered"] == 0
        assert adaptive.stats["portfolio_reordered"] == \
            adaptive.stats["jobs"]
        assert adaptive.stats["engine_attempts"] == \
            {"kind": adaptive.stats["jobs"]}
        assert static.stats["engine_attempts"] == \
            {"pobdd": static.stats["jobs"]}
        assert adaptive.canonical_bytes() == static.canonical_bytes()

    def test_adaptive_with_empty_history_is_static(self, small_blocks,
                                                   reference, tmp_path):
        config = CampaignConfig(engines="portfolio:pobdd,bdd-combined,kind",
                                sat_conflicts=500_000,
                                bdd_nodes=5_000_000,
                                portfolio="adaptive",
                                cache_path=str(tmp_path / "cold.json"))
        report = CampaignOrchestrator(small_blocks, config=config).run()
        assert report.stats["portfolio_reordered"] == 0
        assert report.canonical_bytes() == reference.canonical_bytes()
