"""Table 3 — classification of logic bugs: formal vs logic simulation.

Seeds all seven defects, runs (a) the formal campaign over the
defective modules and (b) the budgeted random-simulation campaign, and
joins the outcomes into the paper's Table 3.  The reproduction target:
formal finds all seven; simulation within its budget finds exactly the
bugs the paper marks "Yes" (B0, B2, B4) and misses the "No" bugs — B1
(complicated arming scenario), B5/B6 (data-pattern-dependent decoder
cases), and B3 (masked by the wrong macro behavioural model).
"""

from repro.chip import ComponentChip, DEFECTS
from repro.core.bugs import classify_findings
from repro.core.campaign import FormalCampaign
from repro.core.report import format_table3
from repro.formal.engine import FAIL
from repro.orchestrate import CampaignConfig
from repro.sim.campaign import SimulationCampaign


SIM_CYCLES = 2000
SIM_SEED = 2004


def run_both_campaigns():
    chip = ComponentChip.with_all_defects()
    defective = [chip.module_named(d.module_name) for d in DEFECTS]

    # every assertion of the defective modules, with `auto` on a cold
    # solver, over a two-worker pool (verdicts, depths and the
    # replay-validated traces are executor-invariant)
    config = CampaignConfig(engines="auto", sat_conflicts=1_000_000,
                            bdd_nodes=10_000_000, sat_workspace=False,
                            executor="workstealing:2")
    report = FormalCampaign([("defective", defective)], config=config).run()
    formal_failures = {}
    for record in report.by_status(FAIL):
        formal_failures.setdefault(record.module_name, []).append(record)

    sim = SimulationCampaign(defective, cycles_per_module=SIM_CYCLES,
                             seed=SIM_SEED)
    sim_report = sim.run()
    sim_found = {
        r.module_name: r.first_violation_cycle
        for r in sim_report.results if r.found_bug
    }
    return classify_findings(DEFECTS, formal_failures, sim_found)


def test_table3_bug_classification(benchmark, publish):
    findings = benchmark.pedantic(run_both_campaigns, rounds=1,
                                  iterations=1)

    # formal verification finds every seeded bug, with a validated
    # counterexample trace
    assert all(f.found_by_formal for f in findings)

    # the simulation budget reproduces the paper's Yes/No split
    for finding in findings:
        assert finding.found_by_simulation == finding.defect.sim_easy, \
            finding.defect.defect_id
        assert finding.matches_paper

    hard = [f.defect.defect_id for f in findings
            if not f.found_by_simulation]
    assert sorted(hard) == ["B1", "B3", "B5", "B6"]

    lines = [format_table3(findings), ""]
    lines.append(f"Simulation budget: {SIM_CYCLES} legal-traffic cycles "
                 f"per module, seed {SIM_SEED}.")
    lines.append("Formal counterexample depths: " + ", ".join(
        f"{f.defect.defect_id}@{f.formal_depth}" for f in findings
    ))
    lines.append("Paper: 'at least four of seven logic bugs are "
                 "difficult to detect by logic simulation, whereas they "
                 "can be easily found by formal verification.'")
    publish("table3_bugs", "\n".join(lines))

    benchmark.extra_info["bugs_found_formal"] = 7
    benchmark.extra_info["bugs_found_sim"] = 7 - len(hard)
