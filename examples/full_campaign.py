#!/usr/bin/env python
"""The full verification flow of Figure 5 on a chip subset.

Plays both roles of the paper's flow:

- the *logic designers* release Verifiable RTL and integrity specs
  (the chip blocks),
- the *verification engineer* lints the RTL, generates the stereotype
  PSL vunits, model checks every assertion, and feeds failures back as
  counterexample traces.

By default runs blocks A and C (~456 properties, a couple of minutes);
pass ``--full`` for the whole 2047-property chip, ``--defects`` to seed
all seven bugs and watch the feedback path light up.  The campaign runs
through the job orchestrator, parameterised by one declarative
``CampaignConfig`` (the same object ``python -m repro`` runs from a
TOML file): ``--jobs N`` checks properties on an N-worker fleet,
``--cache FILE`` replays unchanged verdicts from a previous run
(incremental rerun).

Run:  python examples/full_campaign.py [--full] [--defects]
                                       [--jobs N] [--cache FILE]
"""

import argparse

from repro.chip import ALL_DEFECT_IDS, ComponentChip
from repro.core.campaign import FormalCampaign
from repro.core.report import format_status_summary, format_table2
from repro.orchestrate import CampaignConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run all five blocks (2047 properties)")
    parser.add_argument("--defects", action="store_true",
                        help="seed the seven logic bugs of Table 3")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="check properties on an N-worker fleet")
    parser.add_argument("--cache", default=None, metavar="FILE",
                        help="result-cache file for incremental reruns")
    args = parser.parse_args()

    blocks = None if args.full else ["A", "C"]
    defects = ALL_DEFECT_IDS if args.defects else ()
    chip = ComponentChip(defects=defects, only_blocks=blocks)

    scope = "all blocks" if args.full else "blocks A and C"
    seeded = "with all seven defects" if args.defects else "bug-free"
    print(f"Campaign over {scope}, {seeded} chip\n")

    config = CampaignConfig(
        sat_conflicts=1_000_000,
        bdd_nodes=10_000_000,
        executor=(f"fleet:{args.jobs}" if args.jobs is not None
                  else "serial"),
        cache_path=args.cache,
    )
    campaign = FormalCampaign(chip.blocks, config=config)
    done = [0]

    def progress(line):
        done[0] += 1
        if done[0] % 50 == 0:
            print(f"  ... {done[0]} assertions checked")

    report = campaign.run(progress=progress)

    print()
    print(format_table2(report))
    print()
    print(format_status_summary(report))
    if args.cache:
        print(f"cache: {report.stats['cache_hits']} hit(s), "
              f"{report.stats['cache_misses']} miss(es)")

    failures = report.failures_by_module()
    if failures:
        print("\nDesigner feedback (failures with counterexamples):")
        for module_name, records in sorted(failures.items()):
            first = records[0]
            print(f"\n{module_name}: {len(records)} failing "
                  f"assertion(s); first: {first.qualified_name} "
                  f"(depth {first.result.depth})")
            print("  " + first.result.trace.format()
                  .replace("\n", "\n  "))
    elif not report.all_passed:
        print("\nsome checks did not complete — inspect the report")
    else:
        print("\nAll properties verified successfully — ready for "
              "tape-out review.")


if __name__ == "__main__":
    main()
