#!/usr/bin/env python
"""ECO regression: incremental re-verification plus equivalence proofs.

The paper reports six post-route ECOs, twice reusing the spare gates the
error-injection feature left in the netlist.  Every ECO needs (a) the
stereotype properties re-proved on the patched RTL and (b) a proof that
the patch still implements the released RTL.  This example shows both,
the first one *incrementally*:

1. a full formal campaign over block C, with the orchestrator's result
   cache attached (the cold run — every property checked by an engine);
2. an "ECO" that touches exactly one module (the B2 parity bug sneaks
   back into the C00 FSM controller) followed by a warm-cache rerun —
   the 12 untouched modules replay their cached verdicts and only
   ``C00_fsmctl`` is re-checked, which is what makes nightly ECO
   regression cheap no matter how big the chip grows;
3. the equivalence-checking role: the Figure 6 transparency proofs and
   the bad ECO caught as an inequivalence, with the diverging stimulus
   as the regression test.

Run:  python examples/eco_regression.py
"""

import os
import tempfile

from repro.chip import ComponentChip
from repro.chip.specials import (
    fsm_controller, register_file, wrap_counter,
)
from repro.core.campaign import FormalCampaign
from repro.core.report import format_status_summary
from repro.formal.budget import ResourceBudget
from repro.formal.equivalence import (
    check_equivalence, injection_transparent,
)
from repro.orchestrate import CampaignConfig, ResultCache
from repro.rtl.inject import make_verifiable


def budget():
    return ResourceBudget(sat_conflicts=500_000, bdd_nodes=5_000_000)


def run_campaign(chip, cache):
    config = CampaignConfig(sat_conflicts=500_000,
                            bdd_nodes=5_000_000)
    campaign = FormalCampaign(chip.blocks, config=config, cache=cache)
    report = campaign.run()
    stats = report.stats
    print(f"  {format_status_summary(report)}")
    checked = ", ".join(stats["modules_checked"]) or "none"
    print(f"  cache: {stats['cache_hits']} hit(s), "
          f"{stats['cache_misses']} miss(es); "
          f"modules re-checked: {checked}")
    return report


def main():
    with tempfile.TemporaryDirectory(prefix="eco_cache_") as cache_dir:
        cache_path = os.path.join(cache_dir, "results.sqlite")

        print("=== Release run: block C campaign, cold cache ===")
        golden = ComponentChip(only_blocks=["C"])
        run_campaign(golden, ResultCache(cache_path))

        print("\n=== ECO touches one module: warm-cache regression ===")
        patched = ComponentChip(defects={"B2"}, only_blocks=["C"])
        report = run_campaign(patched, ResultCache(cache_path))
        touched = report.stats["modules_checked"]
        assert touched == ["C00_fsmctl"], touched
        for record in report.failures_by_module().get("C00_fsmctl", []):
            print(f"  regression caught: {record.qualified_name} FAILS "
                  f"(depth {record.result.depth})")

    print("\n=== Transparency proofs (Figure 6 contract) ===")
    builders = {
        "A00_wrapcnt": wrap_counter,
        "A01_regfile": register_file,
        "C00_fsmctl": fsm_controller,
    }
    for name, builder in builders.items():
        base = builder(name)
        verifiable = make_verifiable(base)
        result = injection_transparent(base, verifiable, budget())
        print(f"  {name:14s} EC/ED tied to zero == release RTL: "
              f"{result.status.upper()} ({result.seconds * 1000:.0f} ms)")

    print("\n=== A bad ECO: the B2 parity bug sneaks back in ===")
    golden_fsm = fsm_controller("C00_fsmctl", buggy=False)
    patched_fsm = fsm_controller("C00_fsmctl", buggy=True)
    result = check_equivalence(golden_fsm, patched_fsm, budget=budget())
    print(f"  equivalence verdict: {result.status.upper()} at depth "
          f"{result.depth}")
    print("  diverging stimulus (add this to the regression suite):")
    print("  " + result.trace.format().replace("\n", "\n  "))


if __name__ == "__main__":
    main()
