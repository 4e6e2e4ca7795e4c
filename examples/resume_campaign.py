#!/usr/bin/env python
"""Kill-and-resume: a formal campaign that survives SIGKILL.

The paper's chip-level campaign is ~2600 independent check problems; at
production scale a nightly run can be pre-empted, OOM-killed, or simply
cancelled.  With a :class:`CampaignCheckpoint` attached, every
completed check is journaled to disk the moment it streams out of the
executor, so the next invocation picks up exactly where the dead one
stopped — and the finished report is byte-identical to one from an
uninterrupted run.

This demo does it for real:

1. launches the block-C campaign (101 properties, one seeded defect) in
   a child process, journaling to a checkpoint file;
2. waits until the journal holds a few dozen completed checks, then
   SIGKILLs the child mid-stream — no cleanup, no atexit, the hardest
   kill there is;
3. resumes the campaign in this process on a two-worker fleet:
   the journaled prefix replays (counterexample traces re-validated),
   only the remainder is checked;
4. proves the resumed report's canonical bytes equal an uninterrupted
   run's.

Run:  python examples/resume_campaign.py
"""

import multiprocessing
import os
import signal
import tempfile
import time

from repro.chip import ComponentChip
from repro.core.report import format_status_summary
from repro.orchestrate import (
    CampaignCheckpoint, CampaignOrchestrator, EngineConfig, FleetExecutor,
)

ENGINES = (EngineConfig(sat_conflicts=500_000, bdd_nodes=5_000_000),)


def _blocks():
    return ComponentChip(defects={"B2"}, only_blocks=["C"]).blocks


def _child_campaign(journal_path):
    """The victim: a checkpointed campaign, slowed a little per property
    so the parent can land its kill mid-stream."""
    CampaignOrchestrator(
        _blocks(), engines=ENGINES,
        checkpoint=CampaignCheckpoint(journal_path),
    ).run(progress=lambda line: time.sleep(0.02))


def _journal_entries(journal_path):
    try:
        with open(journal_path, "r", encoding="utf-8") as handle:
            return max(0, len(handle.read().splitlines()) - 1)
    except OSError:
        return 0


def main():
    with tempfile.TemporaryDirectory(prefix="resume_demo_") as tmp:
        journal_path = os.path.join(tmp, "campaign.journal")

        print("=== Launching checkpointed campaign in a child process ===")
        context = multiprocessing.get_context("fork")
        child = context.Process(target=_child_campaign,
                                args=(journal_path,))
        child.start()
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if _journal_entries(journal_path) >= 30:
                break
            time.sleep(0.01)
        completed = _journal_entries(journal_path)
        print(f"  journal holds {completed} completed checks — "
              f"SIGKILL the campaign now")
        os.kill(child.pid, signal.SIGKILL)
        child.join()
        print(f"  child exit code: {child.exitcode} (killed)")

        print("\n=== Resuming from the journal ===")
        resumed = CampaignOrchestrator(
            _blocks(), engines=ENGINES,
            executor=FleetExecutor(workers=2),
            checkpoint=CampaignCheckpoint(journal_path),
        ).run(resume=True)
        stats = resumed.stats
        print(f"  {format_status_summary(resumed)}")
        print(f"  replayed from journal: {stats['journal_replayed']} / "
              f"{resumed.total_properties} "
              f"(executor: {stats['executor']})")

        print("\n=== Proving the outcome is byte-identical ===")
        uninterrupted = CampaignOrchestrator(_blocks(),
                                             engines=ENGINES).run()
        identical = (resumed.canonical_bytes()
                     == uninterrupted.canonical_bytes())
        print(f"  resumed.canonical_bytes() == uninterrupted run: "
              f"{identical}")
        assert identical, "resume produced a different outcome!"
        for module, records in sorted(
                resumed.failures_by_module().items()):
            names = ", ".join(r.qualified_name for r in records)
            print(f"  seeded defect still caught: {module}: {names}")


if __name__ == "__main__":
    main()
