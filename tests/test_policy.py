"""Engine ladders: behaviour and outcome-invariance.

A job tries its engine stages in the order its ladder gives, and
nothing rewrites a planned job; which worker runs a job may move its
cost, never the campaign outcome.  These tests pin the mechanics (the
attempt order, frozen jobs) and the invariant
(``CampaignReport.canonical_bytes`` identical across executors).
"""

import dataclasses

import pytest

from repro.chip import ComponentChip
from repro.formal.engine import FAIL, PASS
from repro.orchestrate import (
    CampaignConfig, CampaignOrchestrator, CheckJob, EngineConfig,
    plan_campaign, run_check_job,
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
# the invariant: executors move stats, never the outcome
# ----------------------------------------------------------------------

class TestOutcomeInvariance:
    @pytest.fixture(scope="class")
    def reference(self, small_blocks):
        config = CampaignConfig(engines="portfolio:pobdd,bdd-combined,kind",
                                sat_conflicts=500_000,
                                bdd_nodes=5_000_000)
        return CampaignOrchestrator(small_blocks, config=config).run()

    @pytest.mark.parametrize("executor_spec",
                             ["serial", "fleet:2", "fleet:3"])
    def test_executor_never_moves_the_outcome(
            self, small_blocks, reference, executor_spec):
        """Serial or on a fleet of one-job leases, the report is the
        same, and it names no scheduling policy."""
        config = CampaignConfig(engines="portfolio:pobdd,bdd-combined,kind",
                                sat_conflicts=500_000,
                                bdd_nodes=5_000_000,
                                executor=executor_spec)
        report = CampaignOrchestrator(small_blocks, config=config).run()
        assert report.canonical_bytes() == reference.canonical_bytes()
        assert "scheduling" not in report.stats

    def test_engine_attempts_follow_the_configured_ladder(
            self, reference):
        """Every executed job attempts the ladder's first stage first,
        and the report names no attempt-order policy."""
        stats = reference.stats
        assert stats["engine_attempts"] == \
            {"pobdd": stats["coi"]["jobs_executed"]}
        assert "portfolio_policy" not in stats
        assert "portfolio_reordered" not in stats
