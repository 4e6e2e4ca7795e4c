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
from repro.formal.engine import FAIL, PASS
from repro.formal.problems import compilations_total, elaborations_total
from repro.orchestrate import (
    CampaignConfig, CampaignOrchestrator, plan_digest,
)
from repro.psl.compile import compile_assertion
from repro.sim.campaign import SimulationCampaign


#: the budgets the block-C campaigns here run with
CONFIG = CampaignConfig(sat_conflicts=500_000, bdd_nodes=5_000_000)


@pytest.fixture(scope="module")
def block_c_report():
    """Golden block C campaign (small: 101 properties)."""
    chip = ComponentChip(only_blocks=["C"])
    campaign = FormalCampaign(chip.blocks, config=CONFIG)
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
        campaign = FormalCampaign(chip.blocks, config=CONFIG)
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
            blocks, config=CampaignConfig(sat_conflicts=0, bdd_nodes=0))
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
    @pytest.fixture(scope="class")
    def ac_run(self):
        """The default A,C campaign, run once for every pin below: its
        plan, its report, and the process-wide compiles and
        elaborations it performed."""
        blocks = ComponentChip(only_blocks=["A", "C"]).blocks
        orchestrator = CampaignOrchestrator(blocks, config=CampaignConfig())
        compiles, elaborations = compilations_total(), elaborations_total()
        report = orchestrator.run()
        return {"plan": orchestrator.plan(), "report": report,
                "compiles": compilations_total() - compiles,
                "elaborations": elaborations_total() - elaborations}

    @pytest.fixture(scope="class")
    def ac_report(self, ac_run):
        return ac_run["report"]

    def test_default_ac_campaign_search_pinned(self, ac_report):
        """``canonical_bytes`` leaves out ``stats``, so on this all-PASS
        campaign the report digest cannot see a change in the solver's
        search order.  The summed per-job SAT counters can: any change
        to a decision, a propagation, clause learning or the restart
        schedule moves them.  The sum runs over all 456 records: a
        reused record carries its check's attempt log, so it is the
        sum every job would have paid on its own."""
        digest = hashlib.sha256(ac_report.canonical_bytes()).hexdigest()[:16]
        assert digest == "827affdb95659447"
        effort = dict.fromkeys(
            ("conflicts", "decisions", "propagations", "learned",
             "restarts"), 0)
        for record in ac_report.results:
            for key in effort:
                effort[key] += record.result.stats["sat"][key]
        assert effort == {"conflicts": 19338, "decisions": 45775,
                          "propagations": 849882, "learned": 18779,
                          "restarts": 70}

    def test_default_ac_campaign_executed_search_pinned(self, ac_report):
        """The A,C campaign runs each distinct check once: its 32
        modules hold 11 distinct designs, so 135 of the 456 jobs
        execute and the other 321 reuse a verdict (``cached``).  The
        solver counters summed over the executed records are the
        search the campaign really did (all 456 records sum to
        conflicts 19338, decisions 45775, propagations 849882, learned
        18779 and restarts 70)."""
        executed = [record for record in ac_report.results
                    if not record.cached]
        assert len(executed) == 135
        assert ac_report.stats["coi"]["jobs_executed"] == 135
        assert ac_report.stats["jobs_reused"] == 321
        effort = dict.fromkeys(
            ("conflicts", "decisions", "propagations", "learned",
             "restarts"), 0)
        for record in executed:
            for key in effort:
                effort[key] += record.result.stats["sat"][key]
        assert effort == {"conflicts": 5830, "decisions": 14024,
                          "propagations": 254533, "learned": 5675,
                          "restarts": 22}

    def test_default_ac_campaign_warm_state_pinned(self, ac_report):
        """The warm-state capacities are class constants of the layers
        they bound (``SatWorkspace.MAX_SESSIONS`` / ``CLUSTER_LIMIT``,
        ``CompiledProblemStore.MAX_DESIGNS``).  The default campaign
        reaches both LRU bounds, so any change to a capacity, to the
        eviction order or to what one lease reuses moves these
        counters.  Only the 135 executed jobs lease sessions: 270
        leases, 36 cluster compiles and 64 evictions (912, 111 and 214
        when each of the 456 jobs ran, renamed copies included).  The
        store is asked for a design once per cluster compile: 11
        misses, one per distinct design, and 25 hits (32 and 79 when
        the copies compiled too)."""
        sat = ac_report.stats["sat_workspace"]
        assert {key: sat[key] for key in (
            "leases", "reuses", "evictions", "cluster_compiles",
            "frames_built", "frames_reused", "clauses_retained",
        )} == {"leases": 270, "reuses": 198, "evictions": 64,
               "cluster_compiles": 36, "frames_built": 118,
               "frames_reused": 305, "clauses_retained": 9679}
        run = ac_report.stats["compile_store"]["run"]
        assert {key: run[key] for key in (
            "design_hits", "design_misses", "design_evictions",
        )} == {"design_hits": 25, "design_misses": 11,
               "design_evictions": 3}

    def test_default_ac_campaign_compiles_pinned(self, ac_run):
        """Every executed A,C verdict settles on the shared SAT
        sessions, so the campaign compiles only its clusters and no
        job's solo problem, and a reused PASS compiles nothing: 36
        cluster compiles and 11 elaborations, one per distinct design
        (111 and 32 when renamed copies ran their own checks; 567
        compiles when every job also compiled its own problem up
        front)."""
        assert ac_run["compiles"] == 36
        assert ac_run["elaborations"] == 11
        assert ac_run["report"].stats["sat_workspace"][
            "cluster_compiles"] == 36

    def test_session_settled_problem_stats_match_solo_compile(self, ac_run):
        """A verdict settled on the shared sessions is sized by its
        cluster view; every one equals the solo compile's size on a
        fresh design, and carries the solo compile's name — a reused
        verdict too, which is named by its own job, not by the renamed
        copy that computed it."""
        jobs = ac_run["plan"].jobs
        results = ac_run["report"].results
        assert len(jobs) == len(results) == 456
        for job, record in zip(jobs, results):
            solo = compile_assertion(job.module, job.vunit, job.assert_name)
            assert record.result.name == solo.name == job.qualified_name
            assert record.result.stats["problem"] == solo.size_stats(), \
                job.qualified_name

    @pytest.mark.parametrize("mode,digest,distinct", [
        ("module", "290cec67379860e2", 135),
        ("cone", "50836ab6afe7d129", 110),
    ])
    def test_default_ac_plan_digest_pinned(self, mode, digest, distinct):
        """Every job fingerprint of the default A,C plan, in plan order,
        in both ``[coi] fingerprints`` modes: a change to what a
        fingerprint hashes (the emitted text, the engine descriptions
        of the default portfolio) misses every store written before it,
        and must be made on purpose."""
        blocks = ComponentChip(only_blocks=["A", "C"]).blocks
        plan = CampaignOrchestrator(
            blocks, config=CampaignConfig(coi_fingerprints=mode)).plan()
        assert plan_digest(plan)[:16] == digest
        assert len({job.fingerprint for job in plan.jobs}) == distinct


class TestProgressCallback:
    def test_one_call_per_property_in_plan_order(self):
        chip = ComponentChip(only_blocks=["C"])
        blocks = [("C", chip.blocks[0][1][:3])]
        campaign = FormalCampaign(blocks, config=CONFIG)
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
        FormalCampaign(blocks, config=CONFIG).run(
            progress=serial_lines.append
        )
        FormalCampaign(
            blocks, config=CONFIG,
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
