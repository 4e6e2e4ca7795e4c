"""Table 2 — number of verified properties (the headline experiment).

Runs the complete formal campaign: all 2047 PSL assertions over the 95
leaf modules of the golden chip (every one must PASS), then attributes
the seven logic bugs by re-checking the defective modules of the
pre-fix chip.  The published table carries exactly the paper's
columns and no timings, so it is identical from run to run; the §6.1
batch-feasibility narrative (X1: "about 20 hours on a single CPU")
gets the measured wall-clock total on stdout and in the benchmark
record's ``extra_info``.

The campaign runs on a two-worker fleet, the parallel executor.
Reports are byte-identical on every executor, so the table is the
serial one; only the wall time shrinks (the full chip is the longest
check in tier-1), and the record names the worker count next to it.
"""

import hashlib

import pytest

from repro.chip import ComponentChip, DEFECTS, TABLE2_BUGS, TABLE2_TARGETS
from repro.core.campaign import FormalCampaign
from repro.core.report import format_status_summary, format_table2
from repro.formal.engine import FAIL
from repro.orchestrate import CampaignConfig


#: fleet size for the full-chip campaign
WORKERS = 2


def run_full_campaign():
    chip = ComponentChip.golden()
    config = CampaignConfig(sat_conflicts=1_000_000, bdd_nodes=10_000_000,
                            executor=f"fleet:{WORKERS}")
    return FormalCampaign(chip.blocks, config=config).run()


def attribute_bugs():
    """Check only the defective modules of the pre-fix chip (the rest
    of the chip is identical to the golden run): every assertion with
    ``auto`` on a cold solver, over the same fleet."""
    chip = ComponentChip.with_all_defects()
    modules = [chip.module_named(d.module_name) for d in DEFECTS]
    config = CampaignConfig(engines="auto", sat_conflicts=1_000_000,
                            bdd_nodes=10_000_000, sat_workspace=False,
                            executor=f"fleet:{WORKERS}")
    report = FormalCampaign([("defective", modules)], config=config).run()
    defects = {d.module_name: d for d in DEFECTS}
    found = {}
    for record in report.by_status(FAIL):
        defect = defects[record.module_name]
        found.setdefault(defect.defect_id, []).append(
            (defect.block, record.qualified_name)
        )
    return found


def test_table2_full_campaign(benchmark, publish):
    report = benchmark.pedantic(run_full_campaign, rounds=1, iterations=1)

    # every property verified successfully (paper: "all properties were
    # verified successfully")
    assert report.all_passed, report.by_status("fail")[:5]
    assert report.total_properties == 2047
    # the report's outcome, pinned: the campaign with the most verdicts
    # served from the SAT workspace's settled-problem memo
    digest = hashlib.sha256(report.canonical_bytes()).hexdigest()[:16]
    assert digest == "45fd95a4f5538d36"

    # per-block structure matches Table 2 exactly
    for block, (subs, p0, p1, p2, p3) in TABLE2_TARGETS.items():
        summary = report.blocks[block]
        assert summary.submodules == subs, block
        assert (summary.p0, summary.p1, summary.p2, summary.p3) == \
            (p0, p1, p2, p3), block

    # bug attribution on the pre-fix chip
    found = attribute_bugs()
    assert set(found) == {d.defect_id for d in DEFECTS}
    bugs_per_block = {}
    for defect in DEFECTS:
        bugs_per_block[defect.block] = bugs_per_block.get(defect.block, 0) + 1
    for block, count in TABLE2_BUGS.items():
        assert bugs_per_block.get(block, 0) == count, block
        report.blocks[block].bugs = count

    table = format_table2(report)
    summary = format_status_summary(report).replace(
        f" checked in {report.seconds:.1f}s", "")
    x1 = ("\nX1 batch feasibility: paper ~20 h on a 2004 workstation "
          "(single CPU, single licence); the measured wall time of all "
          "2047 assertions is in the benchmark record.")
    publish("table2_properties", table + "\n\n" + summary + x1)
    print(f"X1 measured: {report.seconds / 60:.1f} min for all 2047 "
          f"assertions on this machine with {WORKERS} workers.")

    benchmark.extra_info["properties"] = report.total_properties
    benchmark.extra_info["seconds"] = round(report.seconds, 1)
    benchmark.extra_info["workers"] = WORKERS
