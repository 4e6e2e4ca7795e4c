"""The campaign orchestrator: planner, executors, engine portfolios,
and the incremental result cache."""

import json
import multiprocessing
import pathlib

import pytest

from repro import __version__ as repro_version
from repro.chip import ComponentChip
from repro.core.campaign import BlockSummary, FormalCampaign
from repro.core.report import format_table2
from repro.formal.budget import ResourceBudget
from repro.formal.engine import (
    CheckResult, ModelChecker, PASS, TIMEOUT, register_engine,
    registered_engines,
)
from repro.formal.engine import _ENGINES  # test-only registry cleanup
from repro.orchestrate import (
    CampaignOrchestrator, EngineConfig, ResultCache,
    SerialExecutor, WorkStealingExecutor, job_fingerprint, plan_campaign,
    portfolio, run_check_job,
)


def _budget():
    return ResourceBudget(sat_conflicts=500_000, bdd_nodes=5_000_000)


def _engines(**overrides):
    overrides.setdefault("sat_conflicts", 500_000)
    overrides.setdefault("bdd_nodes", 5_000_000)
    return (EngineConfig(**overrides),)


@pytest.fixture(scope="module")
def block_c():
    return ComponentChip(only_blocks=["C"]).blocks


@pytest.fixture(scope="module")
def small_blocks():
    """First four modules of block C — enough structure, fast checks."""
    chip = ComponentChip(only_blocks=["C"])
    return [("C", chip.blocks[0][1][:4])]


def _buggy_small_blocks():
    """Same four modules with the B2 defect seeded (touches C00 only)."""
    chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
    return [("C", chip.blocks[0][1][:4])]


class LossyExecutor(SerialExecutor):
    """Contract-breaking executor: silently drops the last job."""

    name = "lossy"

    def map(self, jobs):
        jobs = list(jobs)
        return super().map(jobs[:-1])


class TestPlanner:
    def test_one_job_per_assertion(self, block_c):
        plan = plan_campaign(block_c, _engines())
        assert plan.total_jobs == 101
        assert plan.block_order == ["C"]
        assert plan.submodules == {"C": 13}
        assert [job.index for job in plan.jobs] == list(range(101))
        assert len(plan.modules_planned()) == 13

    def test_jobs_are_module_contiguous(self, block_c):
        """The planner emits each module's jobs as one contiguous run,
        so executors can reuse one elaborated design per module."""
        plan = plan_campaign(block_c, _engines())
        seen = []
        for job in plan.jobs:
            if not seen or seen[-1] != job.module.name:
                seen.append(job.module.name)
        assert len(seen) == len(set(seen))

    def test_fingerprints_distinct_per_job(self, block_c):
        plan = plan_campaign(block_c, _engines())
        fingerprints = [job.fingerprint for job in plan.jobs]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_skipped_modules_recorded(self, block_c):
        plan = plan_campaign(block_c, _engines())
        assert all(entry.in_scope is False for entry in plan.skipped)


class TestFingerprint:
    def test_stable_for_identical_input(self, small_blocks):
        plan_a = plan_campaign(small_blocks, _engines())
        plan_b = plan_campaign(small_blocks, _engines())
        assert [j.fingerprint for j in plan_a.jobs] == \
            [j.fingerprint for j in plan_b.jobs]

    def test_rtl_edit_changes_fingerprint(self, small_blocks):
        golden = plan_campaign(small_blocks, _engines())
        buggy = plan_campaign(_buggy_small_blocks(), _engines())
        changed = {
            j.fingerprint for j in golden.jobs if j.module.name == "C00_fsmctl"
        } ^ {
            j.fingerprint for j in buggy.jobs if j.module.name == "C00_fsmctl"
        }
        same = [
            (a.fingerprint, b.fingerprint)
            for a, b in zip(golden.jobs, buggy.jobs)
            if a.module.name != "C00_fsmctl"
        ]
        assert changed, "defect did not change the touched module's keys"
        assert all(a == b for a, b in same), \
            "defect changed an untouched module's keys"

    def test_vunit_edit_changes_fingerprint(self, small_blocks):
        module = small_blocks[0][1][0]
        from repro.core.stereotypes import soundness_vunit
        unit = soundness_vunit(module)
        name, _ = unit.asserted()[0]
        before = job_fingerprint(module, unit, name, _engines())
        unit.comment = "edited by a designer"
        after = job_fingerprint(module, unit, name, _engines())
        assert before != after

    def test_engine_config_changes_fingerprint(self, small_blocks):
        module = small_blocks[0][1][0]
        from repro.core.stereotypes import soundness_vunit
        unit = soundness_vunit(module)
        name, _ = unit.asserted()[0]
        auto = job_fingerprint(module, unit, name, _engines())
        kind = job_fingerprint(module, unit, name, _engines(method="kind"))
        tighter = job_fingerprint(module, unit, name,
                                  _engines(sat_conflicts=7))
        assert len({auto, kind, tighter}) == 3


class TestEngineRegistry:
    def test_builtins_registered(self):
        names = registered_engines()
        for name in ("auto", "bmc", "kind", "bdd-forward", "bdd-backward",
                     "bdd-combined", "pobdd"):
            assert name in names
        assert ModelChecker.METHODS == names

    def test_register_and_dispatch_custom_engine(self, small_blocks):
        @register_engine("always-green")
        def _always_green(checker, options):
            return CheckResult(checker.ts.name, PASS, "always-green")

        try:
            assert "always-green" in ModelChecker.METHODS
            report = FormalCampaign(
                small_blocks, method="always-green", budget_factory=_budget
            ).run()
            assert report.all_passed
            assert all(r.result.engine == "always-green"
                       for r in report.results)
        finally:
            _ENGINES.pop("always-green", None)
        assert "always-green" not in ModelChecker.METHODS

    def test_unknown_method_rejected(self, small_blocks):
        plan = plan_campaign(small_blocks, _engines(method="quantum"))
        with pytest.raises(ValueError, match="unknown method"):
            run_check_job(plan.jobs[0])


class TestExecutors:
    def test_work_stealing_report_identical_to_serial(self, block_c):
        serial = CampaignOrchestrator(
            block_c, engines=_engines(), executor=SerialExecutor()
        ).run()
        pooled = CampaignOrchestrator(
            block_c, engines=_engines(),
            executor=WorkStealingExecutor(processes=2),
        ).run()
        assert format_table2(serial) == format_table2(pooled)
        assert [
            (r.qualified_name, r.result.status, r.result.engine,
             r.result.depth)
            for r in serial.results
        ] == [
            (r.qualified_name, r.result.status, r.result.engine,
             r.result.depth)
            for r in pooled.results
        ]
        assert serial.stats["executor"] == "serial"
        assert pooled.stats["executor"] == "work-stealing"

    def test_work_stealing_counterexamples_replay(self):
        report = CampaignOrchestrator(
            _buggy_small_blocks(), engines=_engines(),
            executor=WorkStealingExecutor(processes=2),
        ).run()
        failures = report.failures_by_module()
        assert set(failures) == {"C00_fsmctl"}
        assert report.blocks["C"].bugs == 1
        for record in failures["C00_fsmctl"]:
            assert record.result.trace is not None
            assert record.result.trace.replay()

    def test_over_yielding_executor_rejected(self, small_blocks):
        class EagerExecutor(SerialExecutor):
            name = "eager"

            def map(self, jobs):
                results = list(super().map(jobs))
                return iter(results + results[-1:])

        orchestrator = CampaignOrchestrator(
            small_blocks, engines=_engines(), executor=EagerExecutor()
        )
        with pytest.raises(RuntimeError, match="beyond the last job"):
            orchestrator.run()

    def test_all_hits_run_reports_effective_mode(self, tmp_path):
        """A warm rerun where every job is cached never builds a pool;
        the stats must say so rather than claim a parallel run."""
        path = tmp_path / "results.json"
        blocks = _buggy_small_blocks()
        FormalCampaign(blocks, budget_factory=_budget,
                       cache=ResultCache(path)).run()
        warm = FormalCampaign(
            _buggy_small_blocks(), budget_factory=_budget,
            cache=ResultCache(path),
            executor=WorkStealingExecutor(processes=2),
        ).run()
        assert warm.stats["cache_misses"] == 0
        assert warm.stats["executor"] == "work-stealing[serial-fallback]"

    def test_same_name_distinct_modules_not_confused(self):
        """Two distinct module objects sharing a name (a golden and a
        patched variant in one plan) must each be checked against their
        own elaboration — the design cache may not serve one the
        other's."""
        from repro.chip.specials import fsm_controller
        from repro.rtl.inject import make_verifiable
        golden = make_verifiable(fsm_controller("C00_fsmctl", buggy=False))
        buggy = make_verifiable(fsm_controller("C00_fsmctl", buggy=True))
        report = CampaignOrchestrator(
            [("X", [golden, buggy])], engines=_engines()
        ).run()
        verdicts = {r.result.status for r in report.results}
        assert "fail" in verdicts, \
            "buggy variant was checked against the golden elaboration"

    def test_out_of_order_executor_rejected(self, small_blocks):
        class ShuffledExecutor(SerialExecutor):
            name = "shuffled"

            def map(self, jobs):
                results = list(super().map(jobs))
                return iter(results[::-1])

        orchestrator = CampaignOrchestrator(
            small_blocks, engines=_engines(), executor=ShuffledExecutor()
        )
        with pytest.raises(RuntimeError, match="ordering contract"):
            orchestrator.run()

    def test_short_yielding_executor_rejected(self, small_blocks):
        orchestrator = CampaignOrchestrator(
            small_blocks, engines=_engines(), executor=LossyExecutor()
        )
        with pytest.raises(RuntimeError, match="ran out of results"):
            orchestrator.run()


class TestEnginePortfolio:
    def test_first_definitive_stage_wins(self, small_blocks):
        # no methods -> the default kind -> bdd-combined -> pobdd ladder
        engines = portfolio(sat_conflicts=500_000, bdd_nodes=5_000_000)
        assert [config.method for config in engines] == \
            ["kind", "bdd-combined", "pobdd"]
        report = CampaignOrchestrator(small_blocks, engines=engines).run()
        assert report.all_passed
        for record in report.results:
            assert record.result.engine == "portfolio:kind"
            attempts = record.result.stats["portfolio"]
            assert [a["engine"] for a in attempts] == ["kind"]

    def test_falls_through_indefinitive_stage(self, small_blocks):
        """BMC can only refute within its bound — on a passing property
        it returns UNKNOWN and the portfolio moves to the next stage."""
        engines = (
            EngineConfig(method="bmc", max_bound=2, sat_conflicts=500_000),
            EngineConfig(method="bdd-combined", bdd_nodes=5_000_000),
        )
        report = CampaignOrchestrator(small_blocks, engines=engines).run()
        assert report.all_passed
        for record in report.results:
            assert record.result.engine == "portfolio:bdd-combined"
            attempts = record.result.stats["portfolio"]
            assert [a["status"] for a in attempts] == ["unknown", "pass"]

    def test_portfolio_through_facade(self, small_blocks):
        engines = portfolio("kind", "bdd-combined",
                            sat_conflicts=500_000, bdd_nodes=5_000_000)
        report = FormalCampaign(small_blocks, engines=engines).run()
        assert report.all_passed
        assert report.stats["engines"] == ["kind", "bdd-combined"]


class TestResultCache:
    def _run(self, blocks, cache_path, **kwargs):
        campaign = FormalCampaign(blocks, budget_factory=_budget,
                                  cache=ResultCache(cache_path), **kwargs)
        return campaign.run()

    def test_cold_then_warm(self, small_blocks, tmp_path):
        path = tmp_path / "results.json"
        cold = self._run(small_blocks, path)
        warm = self._run(small_blocks, path)
        assert cold.stats["cache_hits"] == 0
        assert cold.stats["cache_misses"] == cold.total_properties
        assert warm.stats["cache_hits"] == warm.total_properties
        assert warm.stats["cache_misses"] == 0
        assert all(r.cached for r in warm.results)
        assert format_table2(cold) == format_table2(warm)

    def test_rtl_edit_misses_only_touched_module(self, small_blocks,
                                                 tmp_path):
        path = tmp_path / "results.json"
        self._run(small_blocks, path)
        eco = self._run(_buggy_small_blocks(), path)
        assert eco.stats["modules_checked"] == ["C00_fsmctl"]
        assert len(eco.stats["modules_replayed"]) == 3
        assert eco.stats["cache_hits"] > 0
        assert set(eco.failures_by_module()) == {"C00_fsmctl"}

    def test_engine_config_change_misses(self, small_blocks, tmp_path):
        path = tmp_path / "results.json"
        self._run(small_blocks, path)
        rerun = self._run(small_blocks, path, method="bdd-combined")
        assert rerun.stats["cache_hits"] == 0
        assert rerun.stats["cache_misses"] == rerun.total_properties
        assert rerun.all_passed

    def test_cached_fail_replays_counterexample(self, tmp_path):
        path = tmp_path / "results.json"
        self._run(_buggy_small_blocks(), path)
        warm = self._run(_buggy_small_blocks(), path)
        assert warm.stats["cache_misses"] == 0
        failures = warm.failures_by_module()
        assert set(failures) == {"C00_fsmctl"}
        for record in failures["C00_fsmctl"]:
            assert record.cached
            assert record.result.trace is not None
            assert record.result.trace.replay()

    def test_corrupted_file_degrades_to_miss(self, small_blocks, tmp_path):
        path = tmp_path / "results.json"
        cold = self._run(small_blocks, path)
        path.write_text("{ not json at all")
        rerun = self._run(small_blocks, path)
        assert rerun.stats["cache_hits"] == 0
        assert rerun.stats["cache_misses"] == rerun.total_properties
        assert format_table2(rerun) == format_table2(cold)
        # the rerun rewrote a valid store
        warm = self._run(small_blocks, path)
        assert warm.stats["cache_misses"] == 0

    def test_tampered_entry_never_flips_verdict(self, small_blocks,
                                                tmp_path):
        path = tmp_path / "results.json"
        cold = self._run(small_blocks, path)
        store = json.loads(path.read_text())
        entries = store["entries"]
        victim = next(iter(entries))
        entries[victim]["status"] = "definitely-bogus"
        path.write_text(json.dumps(store))
        rerun = self._run(small_blocks, path)
        assert rerun.stats["cache_misses"] == 1
        assert rerun.stats["cache_hits"] == rerun.total_properties - 1
        assert format_table2(rerun) == format_table2(cold)
        assert rerun.all_passed

    def test_completed_work_flushed_on_mid_run_failure(self, small_blocks,
                                                       tmp_path):
        """A crash mid-campaign must not discard verdicts already
        computed — the incremental retry reuses them."""
        path = tmp_path / "results.json"
        # the crashing run and the retry must share fingerprints, so
        # build the same engines the retry's default config builds
        engines = portfolio("kind", "bdd-combined",
                            sat_conflicts=500_000, bdd_nodes=5_000_000)
        orchestrator = CampaignOrchestrator(
            small_blocks, engines=engines, executor=LossyExecutor(),
            cache=ResultCache(path),
        )
        with pytest.raises(RuntimeError, match="ordering contract"):
            orchestrator.run()
        retry = self._run(small_blocks, path)
        assert retry.stats["cache_hits"] == retry.total_properties - 1
        assert retry.stats["cache_misses"] == 1
        assert retry.all_passed

    def test_fail_without_trace_is_a_miss(self, small_blocks, tmp_path):
        """A cached FAIL whose trace is missing cannot be validated, so
        it must be re-checked — never replayed."""
        path = tmp_path / "results.json"
        self._run(_buggy_small_blocks(), path)
        store = json.loads(path.read_text())
        tampered = 0
        for entry in store["entries"].values():
            if entry["status"] == "fail":
                entry["trace"] = None
                tampered += 1
        assert tampered > 0
        path.write_text(json.dumps(store))
        rerun = self._run(_buggy_small_blocks(), path)
        assert rerun.stats["cache_misses"] == tampered
        assert set(rerun.failures_by_module()) == {"C00_fsmctl"}
        for record in rerun.failures_by_module()["C00_fsmctl"]:
            assert not record.cached
            assert record.result.trace is not None


class TestCacheEviction:
    """Size-bounded LRU eviction (``max_entries``)."""

    def _passing_result(self, name="p"):
        return CheckResult(name=name, status=PASS, engine="kind", depth=1)

    def test_store_evicts_least_recently_used(self, tmp_path):
        cache = ResultCache(tmp_path / "r.json", max_entries=2)
        cache.store("a", self._passing_result())
        cache.store("b", self._passing_result())
        cache.store("c", self._passing_result())
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert len(cache) == 2

    def test_lookup_hit_refreshes_recency(self, small_blocks, tmp_path):
        path = tmp_path / "r.json"
        campaign = FormalCampaign(small_blocks, budget_factory=_budget,
                                  cache=ResultCache(path))
        cold = campaign.run()
        # replan with the same engines the campaign's default config
        # built, so fingerprints line up with the cached entries
        plan = CampaignOrchestrator(
            small_blocks,
            engines=portfolio("kind", "bdd-combined",
                              sat_conflicts=500_000,
                              bdd_nodes=5_000_000),
        ).plan()
        cache = ResultCache(path, max_entries=cold.total_properties)
        oldest = plan.jobs[0]
        assert cache.lookup(oldest.fingerprint, oldest) is not None
        # the hit moved job 0 to the most-recent end: storing one new
        # entry now evicts some *other* (coldest) fingerprint
        cache.store("fresh", self._passing_result())
        assert oldest.fingerprint in cache
        assert "fresh" in cache

    def test_cap_shrink_trims_on_load(self, tmp_path):
        path = tmp_path / "r.json"
        cache = ResultCache(path)
        for key in ("a", "b", "c", "d"):
            cache.store(key, self._passing_result())
        cache.flush()
        on_disk = path.read_bytes()
        trimmed = ResultCache(path, max_entries=2)
        assert len(trimmed) == 2
        assert "c" in trimmed and "d" in trimmed
        # the trim alone is in-memory: a hits-only run stays a reader
        trimmed.flush()
        assert path.read_bytes() == on_disk
        # ...and persists once the run actually stores something
        trimmed.store("e", self._passing_result())
        trimmed.flush()
        persisted = ResultCache(path)
        assert len(persisted) == 2
        assert "d" in persisted and "e" in persisted

    def test_hits_only_run_never_rewrites_store(self, small_blocks,
                                                tmp_path):
        """Recency refreshes alone must not dirty a bounded store: a
        purely-reading campaign flushing nothing is what stops it from
        clobbering a concurrent writer's fresh entries with its own
        stale snapshot."""
        path = tmp_path / "r.json"
        campaign = FormalCampaign(small_blocks, budget_factory=_budget,
                                  cache=ResultCache(path))
        cold = campaign.run()
        before = path.read_bytes()
        warm = FormalCampaign(
            small_blocks, budget_factory=_budget,
            cache=ResultCache(path, max_entries=cold.total_properties),
        ).run()
        assert warm.stats["cache_misses"] == 0
        assert path.read_bytes() == before  # flush was a no-op

    def test_unbounded_cache_unchanged(self, tmp_path):
        cache = ResultCache(tmp_path / "r.json")
        for index in range(50):
            cache.store(f"k{index}", self._passing_result())
        assert len(cache) == 50

    def test_bad_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "r.json", max_entries=0)

    def test_bounded_campaign_still_correct(self, small_blocks, tmp_path):
        """A cache too small for the campaign evicts but never corrupts:
        reruns recheck the evicted properties and agree with cold."""
        path = tmp_path / "r.json"
        cold = FormalCampaign(small_blocks, budget_factory=_budget).run()
        capped = lambda: ResultCache(path, max_entries=5)
        FormalCampaign(small_blocks, budget_factory=_budget,
                       cache=capped()).run()
        warm = FormalCampaign(small_blocks, budget_factory=_budget,
                              cache=capped()).run()
        assert warm.stats["cache_hits"] == 5
        assert warm.stats["cache_misses"] == warm.total_properties - 5
        assert warm.canonical_bytes() == cold.canonical_bytes()


def _mutate_truncate_half(path):
    data = path.read_text()
    path.write_text(data[: len(data) // 2])


def _mutate_wrong_repro_version(path):
    store = json.loads(path.read_text())
    store["repro_version"] = "0.0.0-not-this-build"
    path.write_text(json.dumps(store))


def _mutate_wrong_store_version(path):
    store = json.loads(path.read_text())
    store["version"] = 999
    path.write_text(json.dumps(store))


def _mutate_entries_not_a_dict(path):
    store = json.loads(path.read_text())
    store["entries"] = "bogus"
    path.write_text(json.dumps(store))


def _mutate_fail_entries_empty_trace(path):
    store = json.loads(path.read_text())
    for entry in store["entries"].values():
        if entry["status"] == "fail":
            entry["trace"] = []
    path.write_text(json.dumps(store))


def _mutate_one_entry_non_dict(path):
    store = json.loads(path.read_text())
    victim = sorted(store["entries"])[0]
    store["entries"][victim] = ["not", "a", "dict"]
    path.write_text(json.dumps(store))


#: (mutator, which entries must degrade to misses)
CACHE_CORRUPTIONS = [
    pytest.param(_mutate_truncate_half, "all", id="truncated-json"),
    pytest.param(_mutate_wrong_repro_version, "all",
                 id="wrong-repro-version"),
    pytest.param(_mutate_wrong_store_version, "all",
                 id="wrong-store-version"),
    pytest.param(_mutate_entries_not_a_dict, "all",
                 id="entries-not-a-dict"),
    pytest.param(_mutate_fail_entries_empty_trace, "fails",
                 id="fail-empty-trace"),
    pytest.param(_mutate_one_entry_non_dict, "one", id="non-dict-entry"),
]


class TestCacheCorruptionMatrix:
    """Every way a cache file can rot degrades to a miss (scoped as
    tightly as the damage allows) and never changes a single verdict."""

    @pytest.mark.parametrize("mutate,scope", CACHE_CORRUPTIONS)
    def test_corruption_degrades_to_miss_never_flips_verdict(
            self, mutate, scope, tmp_path):
        path = tmp_path / "results.json"
        blocks = _buggy_small_blocks()
        cold = FormalCampaign(blocks, budget_factory=_budget,
                              cache=ResultCache(path)).run()
        store = json.loads(path.read_text())
        fails = sum(1 for entry in store["entries"].values()
                    if entry["status"] == "fail")
        assert fails > 0, "fixture must cache FAIL entries"
        mutate(path)
        rerun = FormalCampaign(_buggy_small_blocks(),
                               budget_factory=_budget,
                               cache=ResultCache(path)).run()
        expected_misses = {
            "all": cold.total_properties, "fails": fails, "one": 1,
        }[scope]
        assert rerun.stats["cache_misses"] == expected_misses
        assert rerun.stats["cache_hits"] == \
            cold.total_properties - expected_misses
        assert [r.result.status for r in rerun.results] == \
            [r.result.status for r in cold.results]
        assert format_table2(rerun) == format_table2(cold)
        assert set(rerun.failures_by_module()) == {"C00_fsmctl"}
        # the rerun healed the store: a further rerun is all hits
        healed = FormalCampaign(_buggy_small_blocks(),
                                budget_factory=_budget,
                                cache=ResultCache(path)).run()
        assert healed.stats["cache_misses"] == 0


def _flush_worker(path, worker_id, barrier, rounds):
    """Hammer one shared cache path: every worker flushes its own view
    at the same instant, ``rounds`` times over."""
    cache = ResultCache(path)
    for round_no in range(rounds):
        for j in range(10):
            cache.store(f"w{worker_id}-r{round_no}-{j}",
                        CheckResult(f"prop{j}", PASS, "test"))
        barrier.wait()
        cache.flush()


class TestConcurrentFlush:
    def test_parallel_flushes_never_corrupt_the_store(self, tmp_path):
        """Campaigns sharing one cache path may flush at the same
        moment; the store on disk must always be one writer's complete
        merged valid JSON, with no temp-file litter.  (Simultaneous
        renames may still each miss the other's very latest round —
        the deterministic union guarantee for flushes that *land* in
        some order is TestCacheMerge's subject — but every installed
        store carries at least its writer's full entry set.)"""
        path = tmp_path / "shared.json"
        context = multiprocessing.get_context("fork")
        workers, rounds = 4, 5
        barrier = context.Barrier(workers)
        processes = [
            context.Process(target=_flush_worker,
                            args=(str(path), i, barrier, rounds))
            for i in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
        assert all(process.exitcode == 0 for process in processes)
        store = json.loads(path.read_text())  # parses: rename was atomic
        assert store["version"] == ResultCache.VERSION
        entries = store["entries"]
        assert entries and len(entries) % 10 == 0
        # the final writer had all its own entries in memory, so they
        # all survive — under pre-merge last-writer-wins this was also
        # the *maximum*; now it is the floor
        owner_counts = {}
        for key in entries:
            owner = key.split("-")[0]
            owner_counts[owner] = owner_counts.get(owner, 0) + 1
        assert max(owner_counts.values()) == rounds * 10
        assert len(ResultCache(path)) == len(entries)
        # no litter: temp files never survive, and the flock sidecar
        # is removed by whichever flush finishes last (a racing
        # straggler may recreate it momentarily, but the final flush's
        # unlink-under-lock wins — see ResultCache._flush_lock)
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name != "shared.json"]
        assert leftovers == []


class TestFlushLockCleanup:
    """The flush's flock sidecar must not accumulate as debris: a
    successful flush removes it, and pre-existing (stale) sidecars are
    tolerated and cleaned up in turn."""

    def test_successful_flush_removes_the_lock_sidecar(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(path)
        cache.store("fp", CheckResult("p", PASS, "kind"))
        cache.flush()
        assert pathlib.Path(path).exists()
        assert not pathlib.Path(f"{path}.lock").exists()

    def test_hits_only_flush_leaves_nothing_behind(self, tmp_path):
        # a clean (not dirty) flush is a no-op: no store write, and no
        # sidecar ever created
        path = str(tmp_path / "cache.json")
        ResultCache(path).flush()
        assert list(tmp_path.iterdir()) == []

    def test_stale_lock_from_a_killed_flush_is_tolerated(self, tmp_path):
        # a flush that died mid-write leaves the sidecar behind; the
        # next flush must lock it, do its work, and clean it up
        path = str(tmp_path / "cache.json")
        stale = pathlib.Path(f"{path}.lock")
        stale.write_text("")  # the debris a killed flush leaves
        cache = ResultCache(path)
        cache.store("fp", CheckResult("p", PASS, "kind"))
        cache.flush()
        assert not stale.exists()
        assert "fp" in ResultCache(path)

    def test_sequential_campaigns_never_accumulate_sidecars(self, tmp_path):
        path = str(tmp_path / "cache.json")
        for round_no in range(3):
            cache = ResultCache(path)
            cache.store(f"fp-{round_no}",
                        CheckResult("p", PASS, "kind"))
            cache.flush()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["cache.json"]
        assert len(ResultCache(path)) == 3


class TestCacheMerge:
    """Flush-merge closes the last-writer-wins hole: two campaigns
    sharing one store both keep their fresh verdicts."""

    def test_two_campaigns_union_on_flush(self, tmp_path):
        path = str(tmp_path / "shared.json")
        first = ResultCache(path)
        second = ResultCache(path)  # loaded before first's flush
        first.store("fp-first", CheckResult("p", PASS, "kind"))
        second.store("fp-second", CheckResult("p", PASS, "bmc"))
        first.flush()
        second.flush()  # used to clobber fp-first; must merge now
        merged = json.loads(pathlib.Path(path).read_text())["entries"]
        assert set(merged) == {"fp-first", "fp-second"}
        # recency order: disk's entry (older) first, ours last
        assert list(merged) == ["fp-first", "fp-second"]

    def test_newest_verdict_wins_per_fingerprint(self, tmp_path):
        path = str(tmp_path / "shared.json")
        first = ResultCache(path)
        second = ResultCache(path)
        first.store("fp", CheckResult("p", TIMEOUT, "kind"))
        first.flush()
        second.store("fp", CheckResult("p", PASS, "pobdd"))  # newer
        second.flush()
        entries = json.loads(pathlib.Path(path).read_text())["entries"]
        assert entries["fp"]["status"] == PASS
        assert entries["fp"]["engine"] == "pobdd"
        # and the other way around: an *older* in-memory entry does not
        # overwrite a fresher one already on disk
        third = ResultCache(path)
        third.store("fp", CheckResult("p", TIMEOUT, "kind"))
        stale = json.loads(pathlib.Path(path).read_text())["entries"]
        entry = dict(stale["fp"])
        entry["stored_at"] = third._entries["fp"]["stored_at"] + 60.0
        entry["engine"] = "fresher"
        stale["fp"] = entry
        payload = {"version": ResultCache.VERSION,
                   "repro_version": repro_version,
                   "entries": stale}
        pathlib.Path(path).write_text(json.dumps(payload))
        third.flush()
        final = json.loads(pathlib.Path(path).read_text())["entries"]
        assert final["fp"]["engine"] == "fresher"

    def test_concurrent_campaign_runs_merge_their_verdicts(
            self, tmp_path, small_blocks):
        """The end-to-end satellite scenario: two campaigns over
        different scopes share one cache path, run 'concurrently'
        (both open the store before either flushes), and *both*
        campaigns' verdicts survive — a third run over the union scope
        is all cache hits."""
        path = str(tmp_path / "shared.json")
        blocks_a = [("C", [small_blocks[0][1][0]])]
        blocks_b = [("C", [small_blocks[0][1][1]])]
        campaign_a = CampaignOrchestrator(
            blocks_a, engines=_engines(), cache=ResultCache(path))
        campaign_b = CampaignOrchestrator(
            blocks_b, engines=_engines(), cache=ResultCache(path))
        campaign_a.run()  # flushes inside run()
        campaign_b.run()  # its cache predates a's flush: must merge
        union = CampaignOrchestrator(
            [("C", small_blocks[0][1][:2])], engines=_engines(),
            cache=ResultCache(path))
        report = union.run()
        assert report.stats["cache_hits"] == report.stats["jobs"]
        assert report.stats["cache_misses"] == 0

    def test_unsafe_entries_stay_tombstoned_through_merge(
            self, tmp_path, small_blocks):
        """An entry evicted as unsafe (failed replay) must not be
        resurrected from disk by the flush-merge."""
        path = str(tmp_path / "shared.json")
        orchestrator = CampaignOrchestrator(
            small_blocks, engines=_engines(), cache=ResultCache(path))
        orchestrator.run()
        store = json.loads(pathlib.Path(path).read_text())
        fingerprint = next(iter(store["entries"]))
        store["entries"][fingerprint]["status"] = "definitely-not"
        pathlib.Path(path).write_text(json.dumps(store))
        cache = ResultCache(path)
        plan = orchestrator.plan()
        job = next(j for j in plan.jobs if j.fingerprint == fingerprint)
        assert cache.lookup(fingerprint, job) is None  # tombstones it
        cache.store("fp-new", CheckResult("p", PASS, "kind"))
        cache.flush()
        final = json.loads(pathlib.Path(path).read_text())["entries"]
        assert fingerprint not in final
        assert "fp-new" in final

    def test_rival_entry_newer_than_tombstone_survives(self, tmp_path):
        """A tombstone kills the corrupt entry it was raised for — not
        a rival campaign's *fresh* re-verified verdict written after
        the eviction."""
        path = str(tmp_path / "shared.json")
        seed = ResultCache(path)
        seed.store("fp", CheckResult("p", PASS, "kind"))
        seed._entries["fp"]["status"] = "garbage"  # corrupt on disk
        seed.flush()
        victim = ResultCache(path)
        job = object()  # lookup fails long before touching the job
        assert victim.lookup("fp", job) is None  # tombstoned
        # a rival re-checks fp and flushes a fresh, newer entry
        rival = ResultCache(path)
        rival.store("fp", CheckResult("p", PASS, "pobdd"))
        rival.flush()
        # the victim's flush must keep the rival's fresh verdict
        victim.store("fp-own", CheckResult("q", PASS, "kind"))
        victim.flush()
        final = json.loads(pathlib.Path(path).read_text())["entries"]
        assert final["fp"]["engine"] == "pobdd"
        assert "fp-own" in final


class TestLockedFlushMerge:
    """The flock sidecar closes the last merge hole: two *simultaneous*
    read-merge-rename sequences used to be able to each miss the
    other's final round.  The choreography below drives exactly that
    interleaving — cache A re-reads the store, then pauses while cache
    B flushes, then A renames — and shows the entry loss without the
    lock and the full union with it."""

    @staticmethod
    def _choreographed_race(path, locked, monkeypatch):
        """Run the lost-update interleaving; returns the final store's
        fingerprints.  ``locked=False`` disables the sidecar lock to
        reproduce the historical behaviour."""
        import contextlib
        import threading
        from unittest import mock

        if not locked:
            monkeypatch.setattr(
                ResultCache, "_flush_lock",
                lambda self: contextlib.nullcontext(),
            )
        cache_a = ResultCache(path)
        cache_b = ResultCache(path)
        cache_a.store("fp-a", CheckResult("a", PASS, "kind"))
        cache_b.store("fp-b", CheckResult("b", PASS, "kind"))

        a_merged = threading.Event()
        release_a = threading.Event()
        original_merge = ResultCache._merge

        def pausing_merge(self, disk, ours):
            merged = original_merge(self, disk, ours)
            if self is cache_a:
                # A has re-read the store (no fp-b yet) and merged;
                # hold its rename open while B races
                a_merged.set()
                release_a.wait(timeout=30)
            return merged

        with mock.patch.object(ResultCache, "_merge", pausing_merge):
            thread_a = threading.Thread(target=cache_a.flush)
            thread_a.start()
            assert a_merged.wait(timeout=30)
            thread_b = threading.Thread(target=cache_b.flush)
            thread_b.start()
            # without the lock B completes here; with it B blocks on
            # the sidecar until A's rename lands
            thread_b.join(timeout=1.0)
            release_a.set()
            thread_a.join(timeout=30)
            thread_b.join(timeout=30)
            assert not thread_a.is_alive() and not thread_b.is_alive()
        return set(json.loads(pathlib.Path(path).read_text())["entries"])

    def test_simultaneous_flushes_union_under_the_lock(self, tmp_path,
                                                       monkeypatch):
        final = self._choreographed_race(
            str(tmp_path / "shared.json"), locked=True,
            monkeypatch=monkeypatch,
        )
        assert final == {"fp-a", "fp-b"}

    def test_control_experiment_loses_an_entry_without_the_lock(
            self, tmp_path, monkeypatch):
        """The same choreography with the lock disabled drops B's
        entry — proving the test above exercises the real race, not a
        benign ordering."""
        final = self._choreographed_race(
            str(tmp_path / "shared.json"), locked=False,
            monkeypatch=monkeypatch,
        )
        assert final == {"fp-a"}

    def test_lock_degrades_gracefully_without_fcntl(self, tmp_path,
                                                    monkeypatch):
        """Platforms without fcntl still flush (merge semantics keep
        sequential/overlapped safety; only the simultaneous race
        reopens)."""
        from repro.orchestrate import cache as cache_module
        monkeypatch.setattr(cache_module, "fcntl", None)
        path = str(tmp_path / "shared.json")
        cache = ResultCache(path)
        cache.store("fp", CheckResult("p", PASS, "kind"))
        cache.flush()
        assert "fp" in ResultCache(path)


class TestBlockSummaryAdd:
    def test_known_categories_count(self):
        summary = BlockSummary("A")
        for category in ("P0", "P1", "P2", "P3"):
            summary.add(category)
        assert (summary.p0, summary.p1, summary.p2, summary.p3) == \
            (1, 1, 1, 1)
        assert summary.total == 4

    @pytest.mark.parametrize("category", ["P4", "p0", "bugs", "", "total"])
    def test_unknown_category_rejected(self, category):
        summary = BlockSummary("A")
        with pytest.raises(ValueError, match="unknown property category"):
            summary.add(category)
        assert summary.total == 0
