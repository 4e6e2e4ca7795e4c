"""The content-addressed compiled-problem store and its campaign wiring.

Covers the store itself (design LRU, digest keying, counters), the
compile paths refactored onto it (``compile_job``, ``compile_vunit``,
``partition_property``), the executor wiring (per-worker stores, the
process wire codec), and the campaign-level guarantees: byte-identical
outcomes with the store on, off, or LRU-thrashed, across every
executor — including the golden-vs-patched same-name scenario the old
identity-checked design cache had to special-case.
"""

import dataclasses
import json

import pytest

from repro.chip import ComponentChip
from repro.core.partition import partition_property
from repro.formal.engine import FAIL, PASS, UNKNOWN, ModelChecker
from repro.formal.problems import (
    CompiledProblemStore, compilations_total, elaborations_total,
)
from repro.formal.satspace import SatWorkspace
from repro.formal.trace import Trace
from repro.orchestrate import (
    CampaignConfig, CampaignOrchestrator, EngineConfig, FleetExecutor,
    ModuleAffinityScheduling, SerialExecutor, compile_job,
    decode_result, encode_result, plan_campaign, run_check_job,
)
from repro.psl.ast import Always, Name, PslError, VUnit
from repro.psl.compile import compile_assertion, compile_cluster, compile_vunit
from repro.rtl.elaborate import elaborate
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

    def test_lru_eviction_at_one_design(self, buggy_plan, monkeypatch):
        monkeypatch.setattr(CompiledProblemStore, "MAX_DESIGNS", 1)
        store = CompiledProblemStore()
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

    def test_capacity_is_a_constant(self):
        """The capacity is a class constant at the old default; the
        constructor takes no bound."""
        assert CompiledProblemStore.MAX_DESIGNS == 8
        with pytest.raises(TypeError, match="max_designs"):
            CompiledProblemStore(max_designs=1)

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


def _aig_shape(ts):
    """What a compile bit-blasted, names aside (monitor registers are
    numbered process-wide): every node's kind and fanins, the latches
    with their next-state functions and initial values, and the
    problem's own literals."""
    aig = ts.aig
    return (list(aig._kind), list(aig._fanin), list(aig.latches),
            dict(aig.latch_next), dict(aig.latch_init),
            list(ts.inputs), list(ts.latches), ts.bad, ts.constraint)


class TestSharedDesignRestored:
    """A compile adds its ``bad``/``constraint`` outputs and ``next``
    monitor registers to a design for its own bit-blast only, so a
    store-served design bit-blasts like a fresh one whatever compiled
    against it before — including a compile that raised."""

    @pytest.fixture(scope="class")
    def a03_jobs(self):
        plan = plan_campaign(ComponentChip(only_blocks=["A"]).blocks,
                             _engines())
        return [job for job in plan.jobs if job.module.name == "A03_ctl"]

    def test_compile_after_next_bearing_compiles(self, a03_jobs):
        first = a03_jobs[0]
        fresh = compile_assertion(first.module, first.vunit,
                                  first.assert_name)
        design = elaborate(first.module)
        regs = list(design.regs)
        for job in a03_jobs:
            compile_assertion(job.module, job.vunit, job.assert_name,
                              design=design)
        compile_cluster(first.module, first.vunit, design=design)
        assert [id(reg) for reg in design.regs] == [id(reg) for reg in regs]
        again = compile_assertion(first.module, first.vunit,
                                  first.assert_name, design=design)
        assert len(again.aig._kind) == len(fresh.aig._kind) == 626
        assert _aig_shape(again) == _aig_shape(fresh)

    def test_compile_after_failed_cluster_compile(self, a03_jobs):
        first = a03_jobs[0]
        fresh = compile_assertion(first.module, first.vunit,
                                  first.assert_name)
        broken = VUnit(first.vunit.name, first.vunit.module_name,
                       declarations=list(first.vunit.declarations),
                       directives=list(first.vunit.directives))
        broken.declare("pUnknown", Always(Name("NO_SUCH_SIGNAL")))
        broken.assert_("pUnknown")
        design = elaborate(first.module)
        outputs, regs = list(design.outputs), list(design.regs)
        with pytest.raises(PslError, match="NO_SUCH_SIGNAL"):
            compile_cluster(first.module, broken, design=design)
        assert list(design.outputs) == outputs
        assert [id(reg) for reg in design.regs] == [id(reg) for reg in regs]
        again = compile_assertion(first.module, first.vunit,
                                  first.assert_name, design=design)
        assert _aig_shape(again) == _aig_shape(fresh)


class TestLazySoloCompile:
    """``run_check_job`` compiles a job's solo problem at most once,
    the first time a stage reads it; a verdict settled on the shared
    SAT sessions never compiles it."""

    @pytest.fixture(scope="class")
    def session_run(self, buggy_blocks):
        """Every job of the buggy plan on one SAT workspace and store:
        ``(result, solo compiles)``, the compiles the workspace's
        cluster compiles do not account for."""
        plan = plan_campaign(buggy_blocks, _engines(method="kind"))
        workspace, store = SatWorkspace(), CompiledProblemStore()
        runs = []
        for job in plan.jobs:
            compiles = compilations_total()
            clusters = workspace.counters["cluster_compiles"]
            result = run_check_job(job, store, workspace).result
            runs.append((result, (compilations_total() - compiles) - (
                workspace.counters["cluster_compiles"] - clusters)))
        return runs

    def test_session_pass_compiles_no_solo_problem(self, session_run):
        solo = [count for result, count in session_run
                if result.status == PASS]
        assert solo and set(solo) == {0}

    def test_session_fail_compiles_exactly_one(self, session_run):
        """A FAIL's counterexample is re-derived and replayed on the
        solo problem, so it compiles that problem once."""
        fails = [(result, count) for result, count in session_run
                 if result.status == FAIL]
        assert fails
        for result, count in fails:
            assert count == 1
            assert result.trace.ts.name == result.name
            assert result.trace.replay()

    def test_session_fail_replays_its_trace_once(self, buggy_blocks,
                                                 monkeypatch):
        """A shared-session FAIL's cold re-derivation is validated by
        replay once, where every induction FAIL is (it was replayed
        twice when the re-derivation validated it as well); a PASS
        replays nothing."""
        plan = plan_campaign(buggy_blocks, _engines(method="kind"))
        workspace, store = SatWorkspace(), CompiledProblemStore()
        replays = []
        replay = Trace.replay
        monkeypatch.setattr(Trace, "replay", lambda trace: (
            replays.append(trace), replay(trace))[1])
        counts = {}
        for job in plan.jobs:
            before = len(replays)
            result = run_check_job(job, store, workspace).result
            counts.setdefault(result.status, []).append(
                len(replays) - before)
        assert counts[FAIL] and set(counts[FAIL]) == {1}
        assert set(counts[PASS]) == {0}

    def test_unknown_stage_hands_its_problem_to_the_next(self, buggy_plan):
        job = dataclasses.replace(buggy_plan.jobs[0], engines=(
            EngineConfig(method="bmc", max_bound=2),
            EngineConfig(method="kind"),
        ))
        compiles = compilations_total()
        result = run_check_job(job).result
        assert [attempt["status"] for attempt in
                result.stats["portfolio"]] == [UNKNOWN, PASS]
        assert compilations_total() - compiles == 1

    @pytest.mark.parametrize("workspace", [False, True],
                             ids=["cold", "sat-workspace"])
    @pytest.mark.parametrize("kind", ["undeclared", "assumed"])
    def test_unasserted_property_raises_before_any_stage(
            self, buggy_plan, monkeypatch, workspace, kind):
        job = next(job for job in buggy_plan.jobs if job.vunit.assumed())
        name = {"undeclared": "pNoSuchProperty",
                "assumed": job.vunit.assumed()[0][0]}[kind]
        job = dataclasses.replace(job, assert_name=name)
        monkeypatch.setattr(ModelChecker, "check", lambda *args, **kwargs:
                            pytest.fail("a stage ran"))
        sat = SatWorkspace() if workspace else None
        compiles = compilations_total()
        with pytest.raises(PslError, match=name):
            run_check_job(job, CompiledProblemStore(), sat)
        assert compilations_total() == compiles


# ----------------------------------------------------------------------
# the wire codec
# ----------------------------------------------------------------------

class TestWireCodec:
    def test_round_trip_preserves_outcome(self, buggy_plan):
        """A result frame carries :func:`encode_result`'s entry; the
        coordinator decodes it for the plan job of the frame's index."""
        store = CompiledProblemStore()
        for job in buggy_plan.jobs:
            original = run_check_job(job, store).result
            entry = json.loads(json.dumps(encode_result(original)))
            revived = decode_result(entry, job, store)
            assert revived.name == original.name == job.qualified_name
            assert revived.status == original.status
            assert revived.engine == original.engine
            assert revived.depth == original.depth
            if original.status == FAIL:
                assert revived.trace is not None
                assert revived.trace.replay()
                assert revived.trace.canonical_frames() == \
                    original.trace.canonical_frames()

    def test_fail_entry_shrinks_to_frames(self, buggy_plan):
        """The wire entry must carry canonical frames, not the compiled
        transition system."""
        failing = next(job for job in buggy_plan.jobs
                       if run_check_job(job).result.status == FAIL)
        entry = encode_result(run_check_job(failing).result)
        assert isinstance(entry["trace"], list)
        # the whole entry is plain data, so it JSON-serializes
        json.dumps(entry)

    def test_job_result_is_index_and_result(self, buggy_plan):
        """Everything else about a check is the plan job's."""
        job_result = run_check_job(buggy_plan.jobs[0])
        assert [field.name for field in dataclasses.fields(job_result)] \
            == ["index", "result"]
        assert job_result.index == buggy_plan.jobs[0].index

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
    """``(executor kwargs, MAX_DESIGNS patch or None)``; the patch is
    on the class, so forked fleet workers inherit it."""
    return [
        pytest.param((dict(compile_store=True), None), id="store-on"),
        pytest.param((dict(compile_store=False), None), id="store-off"),
        pytest.param((dict(compile_store=True), 1), id="store-thrashed"),
    ]


class TestCampaignByteIdentity:
    @pytest.fixture(scope="class")
    def reference(self, buggy_blocks):
        return CampaignOrchestrator(
            buggy_blocks, engines=_engines(),
            executor=SerialExecutor(),
        ).run().canonical_bytes()

    @pytest.mark.parametrize("variant", _store_variants())
    @pytest.mark.parametrize("executor_factory", [
        pytest.param(SerialExecutor, id="serial"),
        pytest.param(lambda **kw: FleetExecutor(workers=2, **kw),
                     id="fleet"),
    ])
    def test_outcome_invariant_across_executors_and_stores(
            self, buggy_blocks, reference, executor_factory,
            variant, monkeypatch):
        store_kwargs, max_designs = variant
        if max_designs is not None:
            monkeypatch.setattr(CompiledProblemStore, "MAX_DESIGNS",
                                max_designs)
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
            executor=SerialExecutor(),
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
        cache_path = str(tmp_path / "cache.sqlite")
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
        config = CampaignConfig(compile_store=False)
        assert config.to_dict()["compile"] == {"store": False}
        again = CampaignConfig.from_dict(config.to_dict())
        assert again == config
        toml_round = CampaignConfig.from_toml(config.to_toml())
        assert toml_round == config

    def test_knobs_reach_the_executor(self):
        config = CampaignConfig(executor="fleet:2")
        executor = config.build_executor()
        assert executor.compile_store is True
        off = CampaignConfig(compile_store=False).build_executor()
        assert off.store is None

    def test_bad_values_rejected(self):
        from repro.orchestrate import ConfigError
        with pytest.raises(ConfigError, match="compile_store"):
            CampaignConfig(compile_store="yes")

    def test_knobs_move_the_config_digest_not_fingerprints(
            self, buggy_blocks):
        base = CampaignConfig()
        tuned = CampaignConfig(compile_store=False)
        assert base.digest() != tuned.digest()
        # ...but job fingerprints (cache keys) stay put: the store is
        # runtime wiring, like the SAT workspace
        plan_a = CampaignOrchestrator(buggy_blocks, config=base).plan()
        plan_b = CampaignOrchestrator(buggy_blocks, config=tuned).plan()
        assert [j.fingerprint for j in plan_a.jobs] == \
            [j.fingerprint for j in plan_b.jobs]
