"""Scheduling policies and engine ladders: behaviour and
outcome-invariance.

The scheduling contract is sharp: a policy may move *cost* — which
worker runs what — but never the campaign outcome.  A job tries its
engine stages in the order its ladder gives, and nothing rewrites a
planned job.  These tests pin the mechanics (batch partitioning, the
attempt order, frozen jobs) and the invariant
(``CampaignReport.canonical_bytes`` identical under every policy,
across executors).
"""

import dataclasses

import pytest

from repro.chip import ComponentChip
from repro.formal.engine import FAIL, PASS
from repro.orchestrate import (
    CampaignConfig, CampaignOrchestrator, CheckJob, EngineConfig,
    FifoScheduling, FleetExecutor, ModuleAffinityScheduling,
    plan_campaign, run_check_job, scheduling_policy,
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
# engine ladders run in their configured order
# ----------------------------------------------------------------------

class TestEngineOrderExecution:
    #: budgets under which no stage is definitive, so every stage runs
    STARVED = dict(sat_conflicts=0, bdd_nodes=0, max_bound=2, max_k=2)

    def _starved_result(self, small_plan, ladder):
        job = dataclasses.replace(
            small_plan.jobs[0], engines=_engines(*ladder, **self.STARVED))
        return run_check_job(job).result

    def test_non_definitive_reports_configured_last_stage(
            self, small_plan):
        """When no stage settles the check, every stage runs in ladder
        order, the ladder's last stage is reported, labelled as a
        portfolio result, and the seconds of all stages are summed."""
        result = self._starved_result(small_plan, ("bmc", "kind"))
        attempts = result.stats["portfolio"]
        assert [attempt["engine"] for attempt in attempts] == \
            ["bmc", "kind"]
        assert result.status not in (PASS, FAIL)
        assert result.status == attempts[-1]["status"]
        assert result.engine == "portfolio:kind"
        assert result.seconds == sum(attempt["seconds"]
                                     for attempt in attempts)

    @pytest.mark.parametrize("ladder", [
        ("kind", "bmc"),
        ("kind", "bdd-combined", "pobdd"), ("pobdd", "bdd-combined", "kind"),
    ], ids="-".join)
    def test_attempts_follow_the_ladder(self, small_plan, ladder):
        """Whatever the ladder, its stages are attempted in the order it
        lists them, and its last stage is the one reported."""
        result = self._starved_result(small_plan, ladder)
        assert [attempt["engine"] for attempt in
                result.stats["portfolio"]] == list(ladder)
        assert result.engine == f"portfolio:{ladder[-1]}"

    def test_first_definitive_stage_settles(self, small_plan):
        """The first definitive stage ends the ladder: later stages are
        never attempted."""
        job = dataclasses.replace(
            small_plan.jobs[0], engines=_engines("kind", "bdd-combined"))
        result = run_check_job(job).result
        assert result.status in (PASS, FAIL)
        assert [attempt["engine"] for attempt in
                result.stats["portfolio"]] == ["kind"]
        assert result.engine == "portfolio:kind"

    @pytest.mark.parametrize(
        "field", [field.name for field in dataclasses.fields(CheckJob)])
    def test_planned_job_is_frozen(self, small_plan, field):
        """Nothing writes to a planned job, and the type says so: the
        plan a forked fleet worker holds cannot drift from the
        coordinator's."""
        job = small_plan.jobs[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(job, field, getattr(job, field))


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

    def test_engine_attempts_follow_the_configured_ladder(
            self, reference):
        """Every executed job attempts the ladder's first stage first,
        and the report names no attempt-order policy."""
        stats = reference.stats
        assert stats["engine_attempts"] == \
            {"pobdd": stats["coi"]["jobs_executed"]}
        assert "portfolio_policy" not in stats
        assert "portfolio_reordered" not in stats
