"""The content-addressed compiled-problem store and its campaign wiring.

Covers the store itself (design LRU, digest keying, counters), the
compile paths refactored onto it (``compile_job``, ``compile_vunit``,
``partition_property``), the executor wiring (per-worker stores, the
process wire codec), and the campaign-level guarantees: byte-identical
outcomes with the store on, off, or LRU-thrashed, across every
executor — including the golden-vs-patched same-name scenario the old
identity-checked design cache had to special-case.
"""

import json

import pytest

from repro.chip import ComponentChip
from repro.core.partition import partition_property
from repro.formal.engine import FAIL, PASS, ModelChecker
from repro.formal.problems import (
    CompiledProblemStore, compilations_total, elaborations_total,
)
from repro.orchestrate import (
    CampaignConfig, CampaignOrchestrator, EngineConfig, FleetExecutor,
    ModuleAffinityScheduling, SerialExecutor, compile_job,
    decode_job_result,
    encode_job_result, plan_campaign, run_check_job,
)
from repro.psl.compile import compile_vunit
from repro.rtl.verilog import emit_module


def _engines(**overrides):
    overrides.setdefault("sat_conflicts", 500_000)
    overrides.setdefault("bdd_nodes", 5_000_000)
    return (EngineConfig(**overrides),)


@pytest.fixture(scope="module")
def buggy_blocks():
    """Two block-C modules with the B2 defect seeded — PASS and FAIL
    mixed, so counterexample traces cross every compile path."""
    chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
    return [("C", chip.blocks[0][1][:2])]


@pytest.fixture(scope="module")
def buggy_plan(buggy_blocks):
    return plan_campaign(buggy_blocks, _engines())


# ----------------------------------------------------------------------
# the store itself
# ----------------------------------------------------------------------

class TestStore:
    def test_design_level_hits_by_content(self, buggy_plan):
        store = CompiledProblemStore()
        jobs = buggy_plan.jobs
        first = store.design(jobs[0].module)
        again = store.design(jobs[0].module)
        assert again is first
        stats = store.stats()
        assert stats["design_hits"] == 1
        assert stats["design_misses"] == 1

    def test_assertions_share_one_elaboration(self, buggy_plan):
        """Distinct assertions of one module compile against one
        retained design; a repeated assertion compiles afresh against
        it (compiled problems are not retained)."""
        store = CompiledProblemStore()
        jobs = [job for job in buggy_plan.jobs
                if job.module.name == buggy_plan.jobs[0].module.name]
        first = compile_job(jobs[0], store)
        second = compile_job(jobs[1], store)
        assert first is not second
        assert store.stats()["design_hits"] == 1   # reused elaboration
        assert compile_job(jobs[0], store) is not first
        assert store.stats()["design_hits"] == 2
        assert store.stats()["design_misses"] == 1

    def test_lru_eviction_under_max_designs_1(self, buggy_plan):
        store = CompiledProblemStore(max_designs=1)
        module_a = buggy_plan.jobs[0].module
        module_b = next(job.module for job in buggy_plan.jobs
                        if job.module.name != module_a.name)
        store.design(module_a)
        store.design(module_b)   # evicts a
        store.design(module_a)   # misses again, evicts b
        stats = store.stats()
        assert stats["design_misses"] == 3
        assert stats["design_evictions"] == 2
        assert stats["designs"] == 1

    def test_digest_keying_separates_same_name_modules(self):
        """A golden and a patched module share a *name* but never a
        digest — the store can never serve one the other's design
        (the old one-entry cache needed an object-identity hack for
        exactly this)."""
        golden = ComponentChip(only_blocks=["C"]).blocks[0][1][0]
        patched = ComponentChip(defects={"B2"},
                                only_blocks=["C"]).blocks[0][1][0]
        assert golden.name == patched.name
        assert emit_module(golden) != emit_module(patched)
        store = CompiledProblemStore()
        golden_design = store.design(golden)
        patched_design = store.design(patched)
        assert golden_design is not patched_design
        assert store.stats()["design_misses"] == 2
        assert store.design(golden) is golden_design
        assert store.design(patched) is patched_design

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="max_designs"):
            CompiledProblemStore(max_designs=0)

    def test_discard_compiles_cold_again(self, buggy_plan):
        store = CompiledProblemStore()
        compile_job(buggy_plan.jobs[0], store)
        store.discard()
        compile_job(buggy_plan.jobs[0], store)
        assert store.stats()["design_misses"] == 2

    def test_merge_stats_sums_counters(self):
        merged = CompiledProblemStore.merge_stats(
            {"design_hits": 2, "design_evictions": 1},
            {"design_hits": 3, "design_misses": 4},
        )
        assert merged == {"design_hits": 5, "design_evictions": 1,
                          "design_misses": 4}

    def test_process_wide_totals_advance(self, buggy_plan):
        elaborations = elaborations_total()
        compilations = compilations_total()
        compile_job(buggy_plan.jobs[0])          # store-less: both count
        assert elaborations_total() == elaborations + 1
        assert compilations_total() == compilations + 1
        store = CompiledProblemStore()
        compile_job(buggy_plan.jobs[0], store)   # miss: both count
        compile_job(buggy_plan.jobs[0], store)   # hit: compile only
        assert elaborations_total() == elaborations + 2
        assert compilations_total() == compilations + 3


# ----------------------------------------------------------------------
# refactored compile paths
# ----------------------------------------------------------------------

class TestCompilePaths:
    def test_store_and_cold_compile_identical_problems(self, buggy_plan):
        """The stored problem must decide checks exactly like a cold
        compile — same verdicts, same counterexample frames."""
        store = CompiledProblemStore()
        for job in buggy_plan.jobs:
            warm = ModelChecker(
                compile_job(job, store),
                budget=job.engines[0].make_budget(),
            ).check(method=job.engines[0].method)
            cold = ModelChecker(
                compile_job(job),
                budget=job.engines[0].make_budget(),
            ).check(method=job.engines[0].method)
            assert warm.status == cold.status
            if warm.trace is not None:
                assert warm.trace.canonical_frames() == \
                    cold.trace.canonical_frames()

    def test_compile_vunit_through_store(self, buggy_plan):
        job = buggy_plan.jobs[0]
        store = CompiledProblemStore()
        problems = compile_vunit(job.module, job.vunit, store=store)
        assert len(problems) == len(job.vunit.asserted())
        # one elaboration serves the whole vunit...
        assert store.stats()["design_misses"] == 1
        # ...and recompiling the vunit reuses it again
        again = compile_vunit(job.module, job.vunit, store=store)
        assert len(again) == len(problems)
        assert store.stats()["design_misses"] == 1

    def test_partition_checkpoints_share_one_elaboration(self):
        from repro.chip.library import fig7_cut_registers, fig7_module
        from repro.core.stereotypes import integrity_vunit
        from repro.rtl.inject import make_verifiable
        module = make_verifiable(fig7_module(data_width=8, depth=3))
        vunit = integrity_vunit(module)
        assert_name = vunit.asserted()[0][0]
        cuts = fig7_cut_registers(module)
        store = CompiledProblemStore()
        plan = partition_property(module, vunit, assert_name, cuts,
                                  store=store)
        stats = store.stats()
        # one checkpoint problem per cut, all sharing one elaboration
        assert stats["design_misses"] == 1
        assert stats["design_hits"] == len(cuts) - 1
        cold = partition_property(module, vunit, assert_name, cuts)
        assert [p.name for p in cold.pieces] == \
            [p.name for p in plan.pieces]
        # verdicts are store-invariant, piece by piece
        for warm_piece, cold_piece in zip(plan.pieces, cold.pieces):
            warm = ModelChecker(warm_piece.ts).check(method="kind",
                                                     max_k=6)
            cold_check = ModelChecker(cold_piece.ts).check(method="kind",
                                                           max_k=6)
            assert warm.status == cold_check.status


# ----------------------------------------------------------------------
# the wire codec
# ----------------------------------------------------------------------

class TestWireCodec:
    def test_spec_is_portable_json(self, buggy_plan):
        for job in buggy_plan.jobs[:3]:
            spec = json.loads(json.dumps(job.spec()))
            assert spec["fingerprint"] == job.fingerprint
            assert spec["module_digest"] == job.module_digest
            assert spec["vunit_digest"] == job.vunit_digest
            assert spec["engines"] == [c.describe() for c in job.engines]

    def test_round_trip_preserves_outcome(self, buggy_plan):
        store = CompiledProblemStore()
        for job in buggy_plan.jobs:
            original = run_check_job(job, store)
            entry = json.loads(json.dumps(encode_job_result(original)))
            revived = decode_job_result(entry, job, store)
            assert revived.index == original.index
            assert revived.qualified_name == original.qualified_name
            assert revived.result.status == original.result.status
            assert revived.result.engine == original.result.engine
            assert revived.result.depth == original.result.depth
            if original.result.status == FAIL:
                assert revived.result.trace is not None
                assert revived.result.trace.replay()
                assert revived.result.trace.canonical_frames() == \
                    original.result.trace.canonical_frames()

    def test_fail_entry_shrinks_to_frames(self, buggy_plan):
        """The wire entry must carry canonical frames, not the compiled
        transition system."""
        failing = next(job for job in buggy_plan.jobs
                       if run_check_job(job).result.status == FAIL)
        entry = encode_job_result(run_check_job(failing))
        assert isinstance(entry["result"]["trace"], list)
        # the whole entry is plain data, so it JSON-serializes
        json.dumps(entry)

    def test_index_mismatch_rejected(self, buggy_plan):
        entry = encode_job_result(run_check_job(buggy_plan.jobs[0]))
        with pytest.raises(ValueError, match="does not match"):
            decode_job_result(entry, buggy_plan.jobs[1])

    def test_single_stage_attempt_log_recorded(self, buggy_plan):
        """The small fix: a single-stage portfolio keeps the same
        attempt log and all-stages seconds a ladder does — without the
        ``portfolio:`` engine label that would move canonical bytes."""
        result = run_check_job(buggy_plan.jobs[0]).result
        attempts = result.stats["portfolio"]
        assert len(attempts) == 1
        assert attempts[0]["engine"] == buggy_plan.jobs[0].engines[0].method
        assert result.seconds == attempts[0]["seconds"]
        assert not result.engine.startswith("portfolio:")


# ----------------------------------------------------------------------
# campaign-level guarantees
# ----------------------------------------------------------------------

def _store_variants():
    return [
        pytest.param(dict(compile_store=True), id="store-on"),
        pytest.param(dict(compile_store=False), id="store-off"),
        pytest.param(dict(compile_store=True,
                          store_options={"max_designs": 1}),
                     id="store-thrashed"),
    ]


class TestCampaignByteIdentity:
    @pytest.fixture(scope="class")
    def reference(self, buggy_blocks):
        return CampaignOrchestrator(
            buggy_blocks, engines=_engines(),
            executor=SerialExecutor(),
        ).run().canonical_bytes()

    @pytest.mark.parametrize("store_kwargs", _store_variants())
    @pytest.mark.parametrize("executor_factory", [
        pytest.param(SerialExecutor, id="serial"),
        pytest.param(lambda **kw: FleetExecutor(workers=2, **kw),
                     id="fleet"),
    ])
    def test_outcome_invariant_across_executors_and_stores(
            self, buggy_blocks, reference, executor_factory,
            store_kwargs):
        report = CampaignOrchestrator(
            buggy_blocks, engines=_engines(),
            executor=executor_factory(**store_kwargs),
        ).run()
        assert report.canonical_bytes() == reference

    def test_golden_and_patched_share_a_name_in_one_plan(self):
        """The old identity-hack regression: one plan containing a
        golden and a patched module of the same name, run against one
        shared store, must verdict each on its own RTL."""
        golden = ComponentChip(only_blocks=["C"]).blocks[0][1][0]
        patched = ComponentChip(defects={"B2"},
                                only_blocks=["C"]).blocks[0][1][0]
        assert golden.name == patched.name
        blocks = [("GOLD", [golden]), ("PATCH", [patched])]
        store_on = CampaignOrchestrator(
            blocks, engines=_engines(),
            executor=SerialExecutor(
                store_options={"max_designs": 4}),
        ).run()
        store_off = CampaignOrchestrator(
            blocks, engines=_engines(),
            executor=SerialExecutor(compile_store=False),
        ).run()
        assert store_on.canonical_bytes() == store_off.canonical_bytes()
        golden_failures = [r for r in store_on.results
                           if r.block == "GOLD"
                           and r.result.status == FAIL]
        patched_failures = [r for r in store_on.results
                            if r.block == "PATCH"
                            and r.result.status == FAIL]
        assert golden_failures == []
        assert patched_failures, "the seeded defect must FAIL"

    def test_resume_and_cache_replay_through_store(self, buggy_blocks,
                                                   tmp_path, reference):
        """Warm-cache and journal-resume replays decode through the
        orchestrator's replay store and stay byte-identical."""
        from repro.orchestrate import CampaignCheckpoint, ResultCache
        cache_path = str(tmp_path / "cache.json")
        journal = str(tmp_path / "run.journal")
        cold = CampaignOrchestrator(
            buggy_blocks, engines=_engines(),
            cache=ResultCache(cache_path),
            checkpoint=CampaignCheckpoint(journal),
        )
        assert cold.run().canonical_bytes() == reference
        warm = CampaignOrchestrator(
            buggy_blocks, engines=_engines(),
            cache=ResultCache(cache_path),
        )
        report = warm.run()
        assert report.canonical_bytes() == reference
        assert report.stats["cache_hits"] == report.total_properties
        # the FAIL replays recompiled through the replay store
        replay = report.stats["compile_store"]["replay"]
        assert replay["design_misses"] > 0
        resumed = CampaignOrchestrator(
            buggy_blocks, engines=_engines(),
            checkpoint=CampaignCheckpoint(journal),
        )
        assert resumed.run(resume=True).canonical_bytes() == reference


class TestExecutorStoreWiring:
    def test_serial_store_warm_across_runs(self, buggy_plan):
        executor = SerialExecutor()
        list(executor.map(buggy_plan.jobs))
        first = executor.compile_stats()
        list(executor.map(buggy_plan.jobs))
        second = executor.compile_stats()
        assert first["workers"] == 1
        # the second run elaborates nothing: every design is retained
        assert second["design_misses"] == first["design_misses"]
        assert second["design_hits"] > first["design_hits"]

    def test_store_off_reports_empty_stats(self, buggy_plan):
        executor = SerialExecutor(compile_store=False)
        list(executor.map(buggy_plan.jobs))
        assert executor.compile_stats() == {}

    def test_per_worker_stores_in_the_fleet(self, buggy_plan):
        """Each worker owns a private store: the fleet's aggregated
        counters account one compile per executed job, with at least
        one design miss per distinct module (no cross-process
        sharing), and module-affinity batches turn the rest into
        design hits."""
        executor = FleetExecutor(
            workers=2, scheduling=ModuleAffinityScheduling())
        results = list(executor.map(buggy_plan.jobs))
        assert len(results) == len(buggy_plan.jobs)
        stats = executor.compile_stats()
        distinct_modules = len({job.module_digest
                                for job in buggy_plan.jobs})
        assert 1 <= stats["workers"] <= 2
        assert stats["design_misses"] >= distinct_modules
        assert stats["design_misses"] <= \
            distinct_modules * stats["workers"]
        assert stats["design_hits"] + stats["design_misses"] == \
            len(buggy_plan.jobs)
        assert stats["design_hits"] > 0

    def test_campaign_stats_surface_run_counters(self, buggy_blocks):
        config = CampaignConfig(
            engines="kind", sat_conflicts=500_000,
            bdd_nodes=5_000_000, executor="fleet:2",
            scheduling="module-affinity",
        )
        report = CampaignOrchestrator(buggy_blocks, config=config).run()
        run_stats = report.stats["compile_store"]["run"]
        assert run_stats["design_hits"] > 0
        off = CampaignConfig(
            engines="kind", sat_conflicts=500_000,
            bdd_nodes=5_000_000, compile_store=False,
        )
        report_off = CampaignOrchestrator(buggy_blocks,
                                          config=off).run()
        assert report_off.stats["compile_store"]["run"] == {}
        assert report_off.canonical_bytes() == report.canonical_bytes()


class TestConfigKnobs:
    def test_compile_section_round_trips(self):
        config = CampaignConfig(compile_store=True,
                                compile_max_designs=3)
        again = CampaignConfig.from_dict(config.to_dict())
        assert again == config
        assert again.compile_max_designs == 3
        toml_round = CampaignConfig.from_toml(config.to_toml())
        assert toml_round == config

    def test_unlimited_form_accepted(self):
        config = CampaignConfig.from_dict(
            {"compile": {"max_designs": "unlimited"}}
        )
        assert config.compile_max_designs is None
        # bounded-by-default: None must serialize back as "unlimited"
        assert config.to_dict()["compile"]["max_designs"] == "unlimited"

    def test_knobs_reach_the_executor(self):
        config = CampaignConfig(executor="fleet:2",
                                compile_max_designs=2)
        executor = config.build_executor()
        assert executor.compile_store is True
        assert executor.store_options == {"max_designs": 2}
        off = CampaignConfig(compile_store=False).build_executor()
        assert off.store is None

    def test_bad_values_rejected(self):
        from repro.orchestrate import ConfigError
        with pytest.raises(ConfigError, match="compile_max_designs"):
            CampaignConfig(compile_max_designs=0)
        with pytest.raises(ConfigError, match="compile_store"):
            CampaignConfig(compile_store="yes")

    def test_knobs_move_the_config_digest_not_fingerprints(
            self, buggy_blocks):
        base = CampaignConfig()
        tuned = CampaignConfig(compile_max_designs=1)
        assert base.digest() != tuned.digest()
        # ...but job fingerprints (cache keys) stay put: the store is
        # runtime wiring, like the SAT workspace
        plan_a = CampaignOrchestrator(buggy_blocks, config=base).plan()
        plan_b = CampaignOrchestrator(buggy_blocks, config=tuned).plan()
        assert [j.fingerprint for j in plan_a.jobs] == \
            [j.fingerprint for j in plan_b.jobs]
