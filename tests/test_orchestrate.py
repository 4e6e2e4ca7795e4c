"""The campaign orchestrator: planner, executors, engine portfolios,
and the incremental result cache."""

import dataclasses
import json
import multiprocessing
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import threading
import types

import pytest

import repro
from repro import __version__ as repro_version
from repro.chip import ComponentChip
from repro.core.campaign import BlockSummary, FormalCampaign
from repro.core.report import format_table2
from repro.formal.engine import (
    CheckResult, ModelChecker, PASS, TIMEOUT, register_engine,
    registered_engines,
)
from repro.formal.engine import _ENGINES  # test-only registry cleanup
from repro.orchestrate import (
    CampaignConfig, CampaignOrchestrator, EngineConfig, ResultCache,
    FleetExecutor, SerialExecutor, encode_result, job_fingerprint,
    plan_campaign, portfolio, run_check_job,
)
from repro.orchestrate.cache import remove_store
from repro.rtl.verilog import emit_module

#: the budgets every campaign here runs with
CONFIG = CampaignConfig(sat_conflicts=500_000, bdd_nodes=5_000_000)


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

    def test_fingerprints_shared_only_by_renamed_copies(self, block_c):
        """Two jobs share a fingerprint if and only if their RTL and
        PSL match up to the header names (the module's own name; the
        vunit's name and bound-module name) and they check the same
        assertion.  The exact text digests stay distinct per job: they
        key the compile store and the SAT sessions."""
        def nameless(job):
            module = emit_module(job.module).replace(
                f"module {job.module.name} (", "module M (", 1)
            vunit = job.vunit.emit().replace(
                f"vunit {job.vunit.name} ({job.vunit.module_name})",
                "vunit V (M)", 1)
            return module, vunit, job.assert_name

        plan = plan_campaign(block_c, _engines())
        by_fingerprint, by_text = {}, {}
        for job in plan.jobs:
            by_fingerprint.setdefault(job.fingerprint, []).append(job.index)
            by_text.setdefault(nameless(job), []).append(job.index)
        assert sorted(by_fingerprint.values()) == sorted(by_text.values())
        assert len(by_fingerprint) < plan.total_jobs  # copies exist
        exact = {(job.module_digest, job.vunit_digest, job.assert_name)
                 for job in plan.jobs}
        assert len(exact) == plan.total_jobs

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
        """An edit to what the vunit checks (a dropped assumption)
        changes the key; its first line (names and comment) is not part
        of it."""
        module = small_blocks[0][1][0]
        from repro.core.stereotypes import soundness_vunit
        unit = soundness_vunit(module)
        name, _ = unit.asserted()[0]
        before = job_fingerprint(module, unit, name, _engines())
        unit.comment = "edited by a designer"
        assert job_fingerprint(module, unit, name, _engines()) == before
        unit.directives.remove(next(directive
                                    for directive in unit.directives
                                    if directive[0] == "assume"))
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
                small_blocks,
                config=dataclasses.replace(CONFIG, engines="always-green"),
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
    def test_fleet_report_identical_to_serial(self, block_c):
        serial = CampaignOrchestrator(
            block_c, engines=_engines(), executor=SerialExecutor()
        ).run()
        pooled = CampaignOrchestrator(
            block_c, engines=_engines(),
            executor=FleetExecutor(workers=2),
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
        assert pooled.stats["executor"] == "fleet"

    def test_fleet_counterexamples_replay(self):
        report = CampaignOrchestrator(
            _buggy_small_blocks(), engines=_engines(),
            executor=FleetExecutor(workers=2),
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
        path = tmp_path / "results.sqlite"
        blocks = _buggy_small_blocks()
        FormalCampaign(blocks, config=CONFIG,
                       cache=ResultCache(path)).run()
        warm = FormalCampaign(
            _buggy_small_blocks(), config=CONFIG,
            cache=ResultCache(path),
            executor=FleetExecutor(workers=2),
        ).run()
        assert warm.stats["cache_misses"] == 0
        assert warm.stats["executor"] == "fleet[serial-fallback]"

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


def _sql(path, statement, params=()):
    """Run one statement on a store file from outside the cache."""
    conn = sqlite3.connect(str(path))
    try:
        rows = conn.execute(statement, params).fetchall()
        conn.commit()
    finally:
        conn.close()
    return rows


def _edit_entries(path, edit, where="1"):
    """Rewrite the payload of the rows matching ``where`` through
    ``edit(entry)``; returns how many rows were edited."""
    rows = _sql(path, f"SELECT fingerprint, entry FROM verdicts "
                      f"WHERE {where}")
    for fingerprint, payload in rows:
        entry = json.loads(payload)
        edit(entry)
        _sql(path, "UPDATE verdicts SET entry = ? WHERE fingerprint = ?",
             (json.dumps(entry), fingerprint))
    return len(rows)


def _fingerprints(path):
    return {row[0] for row in _sql(path, "SELECT fingerprint FROM verdicts")}


#: one row for one-entry damage: C00_fsmctl's smallest fingerprint.
#: C01-C03 are renamed copies of one design, so three jobs read each of
#: their rows; C00_fsmctl has no copy, so one job reads this row
FIRST_ROW = ("fingerprint = (SELECT MIN(fingerprint) FROM verdicts "
             "WHERE module = 'C00_fsmctl')")


def _campaign(blocks, path, config=CONFIG):
    """One campaign over a cache at ``path``, closed afterwards so the
    file is whole and unshared."""
    cache = ResultCache(path)
    try:
        return FormalCampaign(blocks, config=config, cache=cache).run()
    finally:
        cache.close()


def _pass(engine="kind"):
    return CheckResult(name="p", status=PASS, engine=engine, depth=1)


#: what a PASS lookup needs of its job
STUB_JOB = types.SimpleNamespace(qualified_name="p")


class TestResultCache:
    def test_cold_then_warm(self, small_blocks, tmp_path):
        path = tmp_path / "results.sqlite"
        cold = _campaign(small_blocks, path)
        warm = _campaign(small_blocks, path)
        assert cold.stats["cache_hits"] == 0
        assert cold.stats["cache_misses"] == cold.total_properties
        assert warm.stats["cache_hits"] == warm.total_properties
        assert warm.stats["cache_misses"] == 0
        assert all(r.cached for r in warm.results)
        assert format_table2(cold) == format_table2(warm)

    def test_rtl_edit_misses_only_touched_module(self, small_blocks,
                                                 tmp_path):
        path = tmp_path / "results.sqlite"
        _campaign(small_blocks, path)
        eco = _campaign(_buggy_small_blocks(), path)
        assert eco.stats["modules_checked"] == ["C00_fsmctl"]
        assert len(eco.stats["modules_replayed"]) == 3
        assert eco.stats["cache_hits"] > 0
        assert set(eco.failures_by_module()) == {"C00_fsmctl"}

    def test_engine_config_change_misses(self, small_blocks, tmp_path):
        path = tmp_path / "results.sqlite"
        _campaign(small_blocks, path)
        rerun = _campaign(small_blocks, path, config=dataclasses.replace(
            CONFIG, engines="bdd-combined"))
        assert rerun.stats["cache_hits"] == 0
        assert rerun.stats["cache_misses"] == rerun.total_properties
        assert rerun.all_passed

    def test_cached_fail_replays_counterexample(self, tmp_path):
        path = tmp_path / "results.sqlite"
        _campaign(_buggy_small_blocks(), path)
        warm = _campaign(_buggy_small_blocks(), path)
        assert warm.stats["cache_misses"] == 0
        failures = warm.failures_by_module()
        assert set(failures) == {"C00_fsmctl"}
        for record in failures["C00_fsmctl"]:
            assert record.cached
            assert record.result.trace is not None
            assert record.result.trace.replay()

    def test_corrupted_file_degrades_to_miss(self, small_blocks, tmp_path):
        path = tmp_path / "results.sqlite"
        cold = _campaign(small_blocks, path)
        path.write_text("{ not json at all")
        rerun = _campaign(small_blocks, path)
        assert rerun.stats["cache_hits"] == 0
        assert rerun.stats["cache_misses"] == rerun.total_properties
        assert format_table2(rerun) == format_table2(cold)
        # the rerun rewrote a valid store
        warm = _campaign(small_blocks, path)
        assert warm.stats["cache_misses"] == 0

    def test_tampered_entry_never_flips_verdict(self, small_blocks,
                                                tmp_path):
        path = tmp_path / "results.sqlite"
        cold = _campaign(small_blocks, path)
        _edit_entries(path, lambda entry: entry.update(
            status="definitely-bogus"), where=FIRST_ROW)
        rerun = _campaign(small_blocks, path)
        assert rerun.stats["cache_misses"] == 1
        assert rerun.stats["cache_hits"] == rerun.total_properties - 1
        assert format_table2(rerun) == format_table2(cold)
        assert rerun.all_passed

    def test_completed_work_stored_on_mid_run_failure(self, small_blocks,
                                                      tmp_path):
        """A crash mid-campaign must not discard verdicts already
        computed — the incremental retry reuses them."""
        path = tmp_path / "results.sqlite"
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
        orchestrator.cache.close()
        retry = _campaign(small_blocks, path)
        # the dropped job's fingerprint is C01_ctl's last assertion,
        # shared by its renamed copies C02 and C03: all three miss the
        # store, the first runs and the other two reuse its verdict
        assert retry.stats["cache_hits"] == retry.total_properties - 3
        assert retry.stats["cache_misses"] == 3
        assert retry.stats["coi"]["jobs_executed"] == 1
        assert retry.stats["jobs_reused"] == 2
        assert retry.all_passed

    def test_fail_without_trace_is_a_miss(self, small_blocks, tmp_path):
        """A cached FAIL whose trace is missing cannot be validated, so
        it must be re-checked — never replayed."""
        path = tmp_path / "results.sqlite"
        _campaign(_buggy_small_blocks(), path)
        tampered = _edit_entries(path, lambda entry: entry.update(
            trace=None), where="status = 'fail'")
        assert tampered > 0
        rerun = _campaign(_buggy_small_blocks(), path)
        assert rerun.stats["cache_misses"] == tampered
        assert set(rerun.failures_by_module()) == {"C00_fsmctl"}
        for record in rerun.failures_by_module()["C00_fsmctl"]:
            assert not record.cached
            assert record.result.trace is not None


class TestUnboundedStore:
    """No size bound: the store keeps every verdict it is given, and a
    hit writes nothing back."""

    def test_hits_keep_every_verdict(self, small_blocks, tmp_path):
        """Hits reorder nothing and evict nothing: after a warm rerun
        and one more store, every verdict is still in the index and
        the file — one row per distinct check, since renamed copies
        (C01–C03 here) share their fingerprints."""
        path = tmp_path / "r.sqlite"
        cold = _campaign(small_blocks, path)
        distinct = cold.stats["coi"]["jobs_executed"]
        assert distinct < cold.total_properties
        warm = _campaign(small_blocks, path)
        assert warm.stats["cache_hits"] == cold.total_properties
        cache = ResultCache(path)
        cache.store("fresh", _pass())
        cache.flush()
        assert len(cache) == distinct + 1
        assert len(_fingerprints(path)) == distinct + 1

    def test_unbounded_cache_unchanged(self, tmp_path):
        path = tmp_path / "r.sqlite"
        cache = ResultCache(path)
        keys = {f"k{index}" for index in range(50)}
        for key in sorted(keys):
            cache.store(key, _pass())
        assert len(cache) == 50
        cache.close()
        again = ResultCache(path)
        assert len(again) == 50
        again.flush()
        assert _fingerprints(path) == keys

    def test_max_entries_argument_removed(self, tmp_path):
        with pytest.raises(TypeError, match="max_entries"):
            ResultCache(tmp_path / "r.sqlite", max_entries=2)


def _truncate_half(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _old_json_cache(path):
    """The store replaced by a JSON cache in the format before SQLite,
    holding the same verdicts — garbage to SQLite."""
    entries = {fingerprint: json.loads(payload) for fingerprint, payload
               in _sql(path, "SELECT fingerprint, entry FROM verdicts")}
    path.write_text(json.dumps({"version": 1,
                                "repro_version": repro_version,
                                "entries": entries}))


def _wrong_repro_version(path):
    _sql(path, "UPDATE meta SET value = '0.0.0-not-this-build' "
               "WHERE key = 'repro_version'")


def _wrong_schema_version(path):
    _sql(path, "UPDATE meta SET value = '999' WHERE key = 'schema'")


def _fail_entries_empty_trace(path):
    _edit_entries(path, lambda entry: entry.update(trace=[]),
                  where="status = 'fail'")


def _one_entry_non_json(path):
    _sql(path, f"UPDATE verdicts SET entry = 'Zzz not json' "
               f"WHERE {FIRST_ROW}")


def _one_entry_non_object(path):
    _sql(path, f"UPDATE verdicts SET entry = '[\"not\", \"an\", "
               f"\"object\"]' WHERE {FIRST_ROW}")


#: (mutator, which entries must degrade to misses)
CACHE_CORRUPTIONS = [
    pytest.param(_truncate_half, "all", id="truncated-file"),
    pytest.param(_old_json_cache, "all", id="garbage-file"),
    pytest.param(_wrong_repro_version, "all", id="wrong-repro-version"),
    pytest.param(_wrong_schema_version, "all",
                 id="wrong-schema-version"),
    pytest.param(_fail_entries_empty_trace, "fails",
                 id="fail-empty-trace"),
    pytest.param(_one_entry_non_json, "one", id="non-json-entry"),
    pytest.param(_one_entry_non_object, "one", id="non-object-entry"),
]


class TestCacheCorruptionMatrix:
    """Every way a store can rot degrades to a miss (scoped as tightly
    as the damage allows), never changes a single verdict, and the
    re-check heals the store."""

    @pytest.mark.parametrize("mutate,scope", CACHE_CORRUPTIONS)
    def test_corruption_degrades_to_miss_never_flips_verdict(
            self, mutate, scope, tmp_path):
        path = tmp_path / "results.sqlite"
        cold = _campaign(_buggy_small_blocks(), path)
        fails = len(_sql(path, "SELECT 1 FROM verdicts "
                               "WHERE status = 'fail'"))
        assert fails > 0, "fixture must cache FAIL entries"
        mutate(path)
        cache = ResultCache(path)
        rerun = FormalCampaign(_buggy_small_blocks(), config=CONFIG,
                               cache=cache).run()
        cache.close()
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
        if scope != "all":
            # each damaged row was read, evicted as unsafe and counted
            assert cache.stats()["unsafe_evicted"] == expected_misses
        # the rerun healed the store: a further rerun is all hits
        healed = _campaign(_buggy_small_blocks(), path)
        assert healed.stats["cache_misses"] == 0


def _store_worker(path, worker_id, barrier, count):
    """Store ``count`` verdicts into one shared path, starting at the
    same instant as every other worker."""
    cache = ResultCache(path)
    barrier.wait()
    for index in range(count):
        cache.store(f"w{worker_id}-{index}",
                    CheckResult(f"prop{index}", PASS, "test"))
    cache.flush()


class TestSharedStore:
    """Campaigns (and the service daemon) sharing one store path keep
    each other's verdicts: every store commits its own row, newest
    ``stored_at`` winning."""

    def test_parallel_stores_lose_no_row(self, tmp_path):
        path = str(tmp_path / "shared.sqlite")
        context = multiprocessing.get_context("fork")
        workers, count = 4, 250
        barrier = context.Barrier(workers)
        processes = [
            context.Process(target=_store_worker,
                            args=(path, worker, barrier, count))
            for worker in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        assert not any(process.is_alive() for process in processes)
        assert [process.exitcode for process in processes] == \
            [0] * workers
        assert len(ResultCache(path)) == workers * count

    def test_two_campaigns_opened_before_either_stores(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        first = ResultCache(path)
        second = ResultCache(path)
        first.store("fp-first", _pass())
        second.store("fp-second", _pass(engine="bmc"))
        first.flush()
        second.flush()
        assert _fingerprints(path) == {"fp-first", "fp-second"}

    def test_newest_verdict_wins_both_ways(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        first = ResultCache(path)
        second = ResultCache(path)
        first.store("fp", CheckResult("p", TIMEOUT, "kind"))
        second.store("fp", _pass(engine="pobdd"))  # newer
        assert ResultCache(path).get("fp")["engine"] == "pobdd"
        # ...and an older write never replaces a fresher row: stamp the
        # row as a rival's write a minute from now
        _sql(path, "UPDATE verdicts SET stored_at = stored_at + 60, "
                   "engine = 'fresher'")
        first.store("fp", CheckResult("p", TIMEOUT, "kind"))
        assert _sql(path, "SELECT engine FROM verdicts") == [("fresher",)]

    def test_concurrent_campaign_runs_keep_their_verdicts(
            self, tmp_path, small_blocks):
        """Two campaigns over different scopes share one cache path,
        both opened before either runs; a third run over the union
        scope is all cache hits."""
        path = str(tmp_path / "shared.sqlite")
        blocks_a = [("C", [small_blocks[0][1][0]])]
        blocks_b = [("C", [small_blocks[0][1][1]])]
        campaign_a = CampaignOrchestrator(
            blocks_a, engines=_engines(), cache=ResultCache(path))
        campaign_b = CampaignOrchestrator(
            blocks_b, engines=_engines(), cache=ResultCache(path))
        campaign_a.run()
        campaign_b.run()
        union = CampaignOrchestrator(
            [("C", small_blocks[0][1][:2])], engines=_engines(),
            cache=ResultCache(path))
        report = union.run()
        assert report.stats["cache_hits"] == report.stats["jobs"]
        assert report.stats["cache_misses"] == 0

    def test_unsafe_entry_is_deleted(self, tmp_path, small_blocks):
        """An entry evicted as unsafe (failed replay) leaves the file
        too, not just this cache's index."""
        path = tmp_path / "shared.sqlite"
        orchestrator = CampaignOrchestrator(
            small_blocks, engines=_engines(), cache=ResultCache(path))
        orchestrator.run()
        orchestrator.cache.close()
        fingerprint = _sql(path, f"SELECT fingerprint FROM verdicts "
                                 f"WHERE {FIRST_ROW}")[0][0]
        _edit_entries(path, lambda entry: entry.update(
            status="definitely-not"), where=FIRST_ROW)
        cache = ResultCache(path)
        job = next(job for job in orchestrator.plan().jobs
                   if job.fingerprint == fingerprint)
        assert cache.lookup(fingerprint, job) is None
        assert fingerprint not in cache
        assert cache.stats()["unsafe_evicted"] == 1
        assert fingerprint not in _fingerprints(path)

    def test_unsafe_eviction_spares_a_rivals_newer_row(self, tmp_path):
        """The eviction deletes the corrupt copy this cache read — not
        a rival campaign's fresh re-verified verdict stored since."""
        path = tmp_path / "shared.sqlite"
        ResultCache(path).store("fp", _pass())
        _edit_entries(path, lambda entry: entry.update(status="garbage"))
        victim = ResultCache(path)  # reads the corrupt copy
        ResultCache(path).store("fp", _pass(engine="pobdd"))
        job = object()  # lookup fails long before touching the job
        assert victim.lookup("fp", job) is None
        assert ResultCache(path).get("fp")["engine"] == "pobdd"

    def test_run_that_stores_nothing_creates_no_file(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        cache = ResultCache(path)
        assert cache.lookup("fp", STUB_JOB) is None
        cache.flush()
        cache.close()
        assert list(tmp_path.iterdir()) == []

    def test_hits_only_run_changes_no_verdict_row(self, small_blocks,
                                                  tmp_path):
        """A purely reading campaign writes nothing to the store."""
        path = tmp_path / "r.sqlite"
        _campaign(small_blocks, path)
        image = path.read_bytes()
        warm = _campaign(small_blocks, path)
        assert warm.stats["cache_misses"] == 0
        assert path.read_bytes() == image



def _store_then_die(path, count):
    """Store ``count`` verdicts, then die by SIGKILL: no flush, no
    close, no interpreter exit."""
    cache = ResultCache(path)
    for index in range(count):
        cache.store(f"k{index}", _pass())
    os.kill(os.getpid(), signal.SIGKILL)


def _killed_writer(path, count):
    process = multiprocessing.get_context("fork").Process(
        target=_store_then_die, args=(str(path), count))
    process.start()
    process.join(timeout=60)
    assert process.exitcode == -signal.SIGKILL


#: checks that importing the package, and opening a store that has no
#: file yet, leave ``sqlite3`` unimported until the first store
_LAZY_SQLITE = """
import sys
import repro.cli, repro.core.campaign, repro.orchestrate, repro.service
from repro.formal.engine import CheckResult, PASS
from repro.orchestrate.cache import ResultCache
cache = ResultCache(sys.argv[1])
assert cache.lookup("fp", None) is None
cache.flush()
assert "sqlite3" not in sys.modules, "imported before any store"
cache.store("fp", CheckResult("p", PASS, "kind"))
assert "sqlite3" in sys.modules
"""


class TestStoreFile:
    """The store on disk: durable per verdict, one self-contained file
    between campaigns, and read once into the index, so hits run no
    SQL."""

    def test_killed_writer_keeps_every_committed_verdict(self, tmp_path):
        path = tmp_path / "r.sqlite"
        _killed_writer(path, count=20)
        cache = ResultCache(path)
        assert len(cache) == 20
        for index in range(20):
            assert cache.lookup(f"k{index}", STUB_JOB) is not None

    def test_remove_store_takes_its_companions(self, tmp_path):
        path = tmp_path / "r.sqlite"
        _killed_writer(path, count=5)
        # the killed writer's verdicts live in its -wal file
        assert (tmp_path / "r.sqlite-wal").exists()
        remove_store(str(path))
        assert list(tmp_path.iterdir()) == []
        assert len(ResultCache(path)) == 0

    def test_flush_leaves_one_self_contained_file(self, tmp_path):
        path = tmp_path / "r.sqlite"
        cache = ResultCache(path)
        for key in ("a", "b", "c"):
            cache.store(key, _pass())
        cache.flush()
        # the main file alone, copied while the cache is still open,
        # holds every verdict
        copy = tmp_path / "copy" / "r.sqlite"
        copy.parent.mkdir()
        shutil.copyfile(path, copy)
        reader = ResultCache(copy)
        assert len(reader) == 3
        reader.close()
        cache.close()
        assert sorted(entry.name for entry in tmp_path.iterdir()) == \
            ["copy", "r.sqlite"]

    def test_racing_creators_leave_no_staged_file(self, tmp_path):
        path = str(tmp_path / "shared.sqlite")
        context = multiprocessing.get_context("fork")
        workers = 4
        barrier = context.Barrier(workers)
        processes = [
            context.Process(target=_store_worker,
                            args=(path, worker, barrier, 1))
            for worker in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
        assert [process.exitcode for process in processes] == \
            [0] * workers
        # each creator built its file aside; one was linked into place
        # and every staged copy is gone
        assert {entry.name for entry in tmp_path.iterdir()} <= {
            "shared.sqlite", "shared.sqlite-wal", "shared.sqlite-shm"}
        assert len(ResultCache(path)) == workers

    def test_unbounded_hit_runs_no_sql(self, tmp_path):
        path = tmp_path / "r.sqlite"
        writer = ResultCache(path)
        for key in ("a", "b"):
            writer.store(key, _pass())
        writer.close()
        cache = ResultCache(path)
        statements = []
        cache._conn.set_trace_callback(statements.append)
        assert cache.lookup("a", STUB_JOB) is not None
        assert cache.lookup("b", STUB_JOB) is not None
        assert statements == []
        assert cache.stats()["hits"] == 2
        # a miss reads its one row, for a rival's newer verdict
        assert cache.lookup("missing", STUB_JOB) is None
        assert len(statements) == 1
        assert statements[0].startswith("SELECT entry, stored_at")

    def test_miss_finds_a_verdict_stored_since_open(self, tmp_path):
        path = tmp_path / "r.sqlite"
        cache = ResultCache(path)
        cache.store("a", _pass())
        rival = ResultCache(path)
        rival.store("b", _pass(engine="pobdd"))
        rival.close()
        assert cache.get("b")["engine"] == "pobdd"
        assert cache.lookup("b", STUB_JOB).engine == "pobdd"
        assert cache.stats()["hits"] == 1 and "b" in cache
        # ...but never from a store another version has re-pinned
        ResultCache(path).store("c", _pass())
        _wrong_repro_version(path)
        assert cache.lookup("c", STUB_JOB) is None
        assert cache.get("c") is None

    def test_threads_share_the_connection(self, tmp_path):
        """The service daemon's queue worker stores while its HTTP
        threads read misses through the same connection and another
        thread closes it: no write fails, every row lands, and a read
        finds its row (or nothing, while the store is closed)."""
        path = tmp_path / "r.sqlite"
        rival = ResultCache(path)
        rival.store("seed", _pass())
        cache = ResultCache(path)  # indexes "seed" only
        for index in range(40):
            rival.store(f"rival{index}", _pass(engine="pobdd"))
        errors = []

        def writer():
            try:
                for index in range(200):
                    cache.store(f"own{index}", _pass())
            except Exception as error:  # reported by the assert below
                errors.append(error)

        def reader():
            try:
                for _ in range(5):
                    for index in range(40):
                        row = cache.get(f"rival{index}")
                        assert row is None or row["engine"] == "pobdd"
            except Exception as error:
                errors.append(error)

        def closer():
            for _ in range(100):
                cache.close()  # the next write opens the store again

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=closer)] + [
            threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        cache.close()
        assert len(_fingerprints(path)) == 1 + 40 + 200

    def test_write_after_close_keeps_the_store(self, tmp_path):
        path = tmp_path / "r.sqlite"
        cache = ResultCache(path)
        for key in ("a", "b"):
            cache.store(key, _pass())
        cache.close()
        cache.store("c", _pass())  # opens the store again
        cache.close()
        assert _fingerprints(path) == {"a", "b", "c"}
        assert cache.stats()["resets"] == 0

    def test_errors_other_than_corruption_keep_the_store(self, tmp_path):
        """Only SQLite's corrupt / not-a-database errors reset a store:
        a write on a connection closed under it, or a parameter SQLite
        cannot bind, is raised and leaves every row in place."""
        path = tmp_path / "r.sqlite"
        cache = ResultCache(path)
        for key in ("a", "b"):
            cache.store(key, _pass())
        cache._conn.close()  # closed behind the cache's back
        with pytest.raises(sqlite3.ProgrammingError):
            cache.store("c", _pass())
        cache._conn = None
        with pytest.raises(sqlite3.ProgrammingError):
            cache._upsert("d", {"stored_at": 1.0, "module": ["bad"]})
        cache.close()
        assert _fingerprints(path) == {"a", "b"}
        assert cache.stats()["resets"] == 0

    def test_hit_and_flush_write_no_row(self, tmp_path):
        """A hit runs no SQL, and flush only folds the WAL."""
        path = tmp_path / "r.sqlite"
        cache = ResultCache(path)
        for key in ("a", "b"):
            cache.store(key, _pass())
        statements = []
        cache._conn.set_trace_callback(statements.append)
        assert cache.lookup("a", STUB_JOB) is not None
        assert statements == []
        cache.flush()
        assert statements == ["PRAGMA wal_checkpoint(TRUNCATE)"]

    def test_sqlite3_waits_for_the_first_store(self, tmp_path):
        source = os.path.dirname(os.path.dirname(repro.__file__))
        completed = subprocess.run(
            [sys.executable, "-c", _LAZY_SQLITE,
             str(tmp_path / "r.sqlite")],
            env=dict(os.environ, PYTHONPATH=source),
            capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr

    def test_store_from_another_version_is_reset_on_first_store(
            self, tmp_path):
        path = tmp_path / "r.sqlite"
        old = ResultCache(path)
        old.store("old", _pass())
        old.close()
        _wrong_repro_version(path)
        cache = ResultCache(path)
        assert len(cache) == 0
        cache.store("new", _pass())
        cache.close()
        assert cache.stats()["resets"] == 1
        assert _fingerprints(path) == {"new"}
        assert dict(_sql(path, "SELECT key, value FROM meta")) == {
            "schema": "5", "repro_version": repro_version}

    def test_schema_4_store_opens_empty_and_is_replaced(self, tmp_path):
        """A schema-4 store keyed its rows by fingerprints that hashed
        module and vunit names; no job's fingerprint reaches them now,
        so it reads as empty and the first store replaces it."""
        path = tmp_path / "r.sqlite"
        old = ResultCache(path)
        old.store("old", _pass())
        old.close()
        _sql(path, "UPDATE meta SET value = '4' WHERE key = 'schema'")
        cache = ResultCache(path)
        assert len(cache) == 0
        assert cache.lookup("old", STUB_JOB) is None
        cache.store("new", _pass())
        cache.close()
        assert cache.stats()["resets"] == 1
        assert _fingerprints(path) == {"new"}

    def test_schema_3_store_opens_empty_and_is_replaced(self, tmp_path):
        """A store written before schema 4 (it carried a ``used_at``
        recency column) reads as empty, and the first store replaces
        it with the current layout."""
        path = tmp_path / "r.sqlite"
        _sql(path, "CREATE TABLE meta (key TEXT PRIMARY KEY,"
                   " value TEXT NOT NULL)")
        _sql(path, "INSERT INTO meta VALUES ('schema', '3'),"
                   " ('repro_version', ?)", (repro_version,))
        _sql(path, "CREATE TABLE verdicts (fingerprint TEXT PRIMARY KEY,"
                   " entry TEXT NOT NULL, module TEXT, category TEXT,"
                   " engine TEXT, status TEXT, cone TEXT,"
                   " stored_at REAL NOT NULL, used_at REAL NOT NULL)")
        _sql(path, "INSERT INTO verdicts (fingerprint, entry, stored_at,"
                   " used_at) VALUES ('old', ?, 1.0, 1.0)",
             (json.dumps(encode_result(_pass())),))
        cache = ResultCache(path)
        assert len(cache) == 0
        assert cache.lookup("old", STUB_JOB) is None
        cache.store("new", _pass())
        cache.close()
        assert cache.stats()["resets"] == 1
        assert _fingerprints(path) == {"new"}
        columns = [row[1] for row in _sql(path,
                                          "PRAGMA table_info(verdicts)")]
        assert "used_at" not in columns
        assert dict(_sql(path, "SELECT key, value FROM meta"))["schema"] \
            == "5"


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
