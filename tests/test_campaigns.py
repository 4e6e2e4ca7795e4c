"""Formal and simulation campaigns on chip subsets (the full-chip runs
live in the benchmark harness)."""

import hashlib

import pytest

from repro.chip import ComponentChip, DEFECTS, DEFECTS_BY_ID
from repro.core.bugs import classify_findings
from repro.core.campaign import FormalCampaign
from repro.core.report import (
    format_status_summary, format_table2, format_table3, render_table,
)
from repro.formal.budget import ResourceBudget
from repro.formal.engine import FAIL, PASS
from repro.orchestrate import CampaignConfig, CampaignOrchestrator
from repro.sim.campaign import SimulationCampaign


def _budget():
    return ResourceBudget(sat_conflicts=500_000, bdd_nodes=5_000_000)


@pytest.fixture(scope="module")
def block_c_report():
    """Golden block C campaign (small: 101 properties)."""
    chip = ComponentChip(only_blocks=["C"])
    campaign = FormalCampaign(chip.blocks, budget_factory=_budget)
    return campaign.run()


class TestFormalCampaign:
    def test_golden_block_all_pass(self, block_c_report):
        assert block_c_report.all_passed
        assert block_c_report.total_properties == 101
        summary = block_c_report.blocks["C"]
        assert summary.submodules == 13
        assert (summary.p0, summary.p1, summary.p2, summary.p3) == \
            (43, 20, 38, 0)
        assert summary.bugs == 0

    def test_lint_runs_clean(self, block_c_report):
        assert block_c_report.lint_issues == []

    def test_defective_block_flags_bug(self):
        chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
        campaign = FormalCampaign(chip.blocks, budget_factory=_budget)
        report = campaign.run()
        assert not report.all_passed
        assert report.blocks["C"].bugs == 1
        failures = report.failures_by_module()
        assert set(failures) == {"C00_fsmctl"}
        assert all(r.category == "P1" for r in failures["C00_fsmctl"])
        for record in failures["C00_fsmctl"]:
            assert record.result.trace is not None
            assert record.result.trace.replay()

    def test_report_rendering(self, block_c_report):
        table = format_table2(block_c_report)
        assert "Module Name" in table and "Total" in table
        assert "P0: Ability of Error Detection" in table
        summary = format_status_summary(block_c_report)
        assert "101" in summary and "passed" in summary


class TestCampaignTimeouts:
    """A campaign containing timed-out properties (starved budgets)."""

    @pytest.fixture(scope="class")
    def starved_report(self):
        chip = ComponentChip(only_blocks=["C"])
        blocks = [("C", chip.blocks[0][1][:3])]
        campaign = FormalCampaign(
            blocks,
            budget_factory=lambda: ResourceBudget(sat_conflicts=0,
                                                  bdd_nodes=0),
        )
        return campaign.run()

    def test_timeouts_reported_not_failed(self, starved_report):
        timeouts = starved_report.by_status("timeout")
        assert timeouts, "starved budgets should time properties out"
        assert not starved_report.all_passed
        assert starved_report.by_status("fail") == []
        for record in timeouts:
            assert record.result.timed_out
            assert record.result.trace is None

    def test_timeouts_still_counted_per_category(self, starved_report):
        """Table 2 counts every checked property, whatever its status."""
        summary = starved_report.blocks["C"]
        assert summary.total == starved_report.total_properties
        counts = starved_report.counts_by_category()
        assert (summary.p0, summary.p1, summary.p2) == \
            (counts["P0"], counts["P1"], counts["P2"])

    def test_timeouts_are_not_bugs(self, starved_report):
        """Only FAIL verdicts attribute logic bugs; a timed-out check is
        inconclusive and must not inflate the bug column."""
        assert starved_report.blocks["C"].bugs == 0
        assert starved_report.distinct_bug_modules() == []

    def test_status_summary_mentions_timeouts(self, starved_report):
        summary = format_status_summary(starved_report)
        timeouts = len(starved_report.by_status("timeout"))
        assert f"{timeouts} timed out" in summary


class TestSolverEffort:
    def test_default_ac_campaign_search_pinned(self):
        """``canonical_bytes`` leaves out ``stats``, so on this all-PASS
        campaign the report digest cannot see a change in the solver's
        search order.  The summed per-job SAT counters can: any change
        to a decision, a propagation, clause learning or the restart
        schedule moves them."""
        blocks = ComponentChip(only_blocks=["A", "C"]).blocks
        report = CampaignOrchestrator(blocks, config=CampaignConfig()).run()
        digest = hashlib.sha256(report.canonical_bytes()).hexdigest()[:16]
        assert digest == "827affdb95659447"
        effort = dict.fromkeys(
            ("conflicts", "decisions", "propagations", "learned",
             "restarts"), 0)
        for record in report.results:
            for key in effort:
                effort[key] += record.result.stats["sat"][key]
        assert effort == {"conflicts": 19338, "decisions": 45775,
                          "propagations": 849882, "learned": 18779,
                          "restarts": 70}


class TestProgressCallback:
    def test_one_call_per_property_in_plan_order(self):
        chip = ComponentChip(only_blocks=["C"])
        blocks = [("C", chip.blocks[0][1][:3])]
        campaign = FormalCampaign(blocks, budget_factory=_budget)
        lines = []
        report = campaign.run(progress=lines.append)
        assert len(lines) == report.total_properties
        assert lines == [
            f"{r.qualified_name}: {r.result.status.upper()}"
            for r in report.results
        ]

    def test_order_stable_across_executors(self):
        from repro.orchestrate import FleetExecutor
        chip = ComponentChip(only_blocks=["C"])
        blocks = [("C", chip.blocks[0][1][:3])]
        serial_lines, parallel_lines = [], []
        FormalCampaign(blocks, budget_factory=_budget).run(
            progress=serial_lines.append
        )
        FormalCampaign(
            blocks, budget_factory=_budget,
            executor=FleetExecutor(workers=2),
        ).run(progress=parallel_lines.append)
        assert serial_lines == parallel_lines


class TestSimulationCampaign:
    @pytest.fixture(scope="class")
    def findings(self):
        chip = ComponentChip.with_all_defects()
        defective = [chip.module_named(d.module_name) for d in DEFECTS]

        sim = SimulationCampaign(defective, cycles_per_module=2000,
                                 seed=2004)
        sim_report = sim.run()
        sim_found = {
            r.module_name: r.first_violation_cycle
            for r in sim_report.results if r.found_bug
        }

        # every assertion with `auto` on a cold solver, over a
        # two-worker fleet (verdicts and depths are executor-invariant)
        config = CampaignConfig(engines="auto", sat_conflicts=500_000,
                                bdd_nodes=5_000_000, sat_workspace=False,
                                executor="fleet:2")
        report = FormalCampaign([("defective", defective)],
                                config=config).run()
        formal_failures = {}
        for record in report.by_status(FAIL):
            formal_failures.setdefault(record.module_name, []).append(
                record)
        return classify_findings(DEFECTS, formal_failures, sim_found)

    def test_formal_finds_all_seven(self, findings):
        assert all(f.found_by_formal for f in findings)

    def test_simulation_split_matches_paper(self, findings):
        """Table 3: B0/B2/B4 easy for simulation, B1/B3/B5/B6 not."""
        for finding in findings:
            assert finding.found_by_simulation == finding.defect.sim_easy, \
                finding.defect.defect_id
            assert finding.matches_paper

    def test_table3_rendering(self, findings):
        table = format_table3(findings)
        assert "B3" in table and "Ability of Error Detection" in table
        # the measured columns agree with the paper column
        for line in table.splitlines()[2:]:
            cells = line.split("  ")
            cells = [c.strip() for c in cells if c.strip()]
            assert cells[-3] == cells[-2]   # paper vs measured sim


class TestRenderTable:
    def test_alignment(self):
        table = render_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[:2])
