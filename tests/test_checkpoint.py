"""Checkpoint/resume fault injection.

A campaign interrupted after *any* prefix of its jobs — by an executor
crash or a hard SIGKILL — must resume from the journal into a report
whose outcome is byte-identical (``CampaignReport.canonical_bytes``)
to an uninterrupted run; and any damage to the journal (torn tail,
corrupt header, plan mismatch, tampered entry) must degrade to
re-checking, never to a wrong or missing verdict.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.chip import ComponentChip
from repro.core.report import format_table2
from repro.orchestrate import (
    CampaignCheckpoint, CampaignConfig, CampaignOrchestrator,
    EngineConfig, ResultCache, FleetExecutor, SerialExecutor,
)

#: jobs in the tiny two-module plan; asserted against the real plan in
#: the ``reference`` fixture so the parametrization can't go stale
TOTAL_JOBS = 17


def _engines():
    return (EngineConfig(sat_conflicts=500_000, bdd_nodes=5_000_000),)


def _tiny_blocks():
    """Two modules, one seeded defect — FAIL entries (with traces that
    must re-validate on replay) land in every journal."""
    chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
    return [("C", chip.blocks[0][1][:2])]


@pytest.fixture(scope="module")
def tiny_blocks():
    return _tiny_blocks()


@pytest.fixture(scope="module")
def reference(tiny_blocks):
    """The uninterrupted run every resumed run must reproduce."""
    report = CampaignOrchestrator(tiny_blocks, engines=_engines()).run()
    assert report.total_properties == TOTAL_JOBS
    assert report.by_status("fail"), "fixture must produce FAILs"
    return report


class CrashAfter:
    """Executor that dies after yielding ``k`` results — the moment a
    kill lands mid-stream, as far as the orchestrator can observe."""

    def __init__(self, k):
        self.k = k
        self.name = f"crash-after-{k}"

    def map(self, jobs):
        for count, result in enumerate(SerialExecutor().map(jobs)):
            if count == self.k:
                raise RuntimeError("simulated mid-campaign kill")
            yield result


def _crash_run(blocks, journal_path, k, cache=None):
    orchestrator = CampaignOrchestrator(
        blocks, engines=_engines(), executor=CrashAfter(k),
        checkpoint=CampaignCheckpoint(journal_path), cache=cache,
    )
    with pytest.raises(RuntimeError, match="simulated mid-campaign"):
        orchestrator.run()


def _resume(blocks, journal_path, executor=None, cache=None):
    return CampaignOrchestrator(
        blocks, engines=_engines(), executor=executor, cache=cache,
        checkpoint=CampaignCheckpoint(journal_path),
    ).run(resume=True)


class TestKillAndResume:
    @pytest.mark.parametrize("k", range(TOTAL_JOBS))
    def test_resume_after_any_prefix_is_byte_identical(
            self, k, tiny_blocks, reference, tmp_path):
        journal = tmp_path / "journal.jsonl"
        _crash_run(tiny_blocks, journal, k)
        resumed = _resume(tiny_blocks, journal)
        assert resumed.stats["journal_replayed"] == k
        assert resumed.canonical_bytes() == reference.canonical_bytes()
        assert format_table2(resumed) == format_table2(reference)

    def test_resume_with_fleet_executor(self, tiny_blocks, reference,
                                        tmp_path):
        journal = tmp_path / "journal.jsonl"
        _crash_run(tiny_blocks, journal, 6)
        resumed = _resume(tiny_blocks, journal,
                          executor=FleetExecutor(workers=2))
        assert resumed.stats["journal_replayed"] == 6
        assert resumed.canonical_bytes() == reference.canonical_bytes()

    def test_completed_campaign_resumes_without_executing(
            self, tiny_blocks, reference, tmp_path):
        journal = tmp_path / "journal.jsonl"
        CampaignOrchestrator(
            tiny_blocks, engines=_engines(),
            checkpoint=CampaignCheckpoint(journal),
        ).run()
        resumed = _resume(tiny_blocks, journal)
        assert resumed.stats["journal_replayed"] == TOTAL_JOBS
        assert resumed.stats["modules_checked"] == []
        assert resumed.canonical_bytes() == reference.canonical_bytes()

    def test_double_crash_then_resume(self, tiny_blocks, reference,
                                      tmp_path):
        """A resumed run may itself be killed; the journal accumulates
        across attempts."""
        journal = tmp_path / "journal.jsonl"
        _crash_run(tiny_blocks, journal, 4)
        orchestrator = CampaignOrchestrator(
            tiny_blocks, engines=_engines(), executor=CrashAfter(5),
            checkpoint=CampaignCheckpoint(journal),
        )
        with pytest.raises(RuntimeError, match="simulated mid-campaign"):
            orchestrator.run(resume=True)
        resumed = _resume(tiny_blocks, journal)
        assert resumed.stats["journal_replayed"] == 9
        assert resumed.canonical_bytes() == reference.canonical_bytes()

    def test_journal_and_cache_compose(self, tiny_blocks, reference,
                                       tmp_path):
        """Journal replays take precedence; the cache serves later
        campaigns, backfilled from the journal."""
        journal = tmp_path / "journal.jsonl"
        cache_path = tmp_path / "cache.sqlite"
        _crash_run(tiny_blocks, journal, 8,
                   cache=ResultCache(cache_path))
        resumed = _resume(tiny_blocks, journal,
                          cache=ResultCache(cache_path))
        assert resumed.stats["journal_replayed"] == 8
        assert resumed.stats["cache_hits"] == 0
        assert resumed.canonical_bytes() == reference.canonical_bytes()
        warm = CampaignOrchestrator(
            tiny_blocks, engines=_engines(),
            cache=ResultCache(cache_path),
        ).run()
        assert warm.stats["cache_hits"] == TOTAL_JOBS

    def test_replan_from_config_is_deterministic(self):
        """Resume matches journal entries against a fresh plan, so two
        orchestrators built from one config over fresh chips must plan
        identical indices and fingerprints."""
        config = CampaignConfig(blocks=["C"])
        first, second = (
            CampaignOrchestrator(ComponentChip(only_blocks=["C"]).blocks,
                                 config=config).plan().jobs
            for _ in range(2)
        )
        assert len(first) > 0
        assert [j.index for j in first] == list(range(len(first)))
        assert [j.fingerprint for j in first] == \
            [j.fingerprint for j in second]

    def test_resume_without_checkpoint_raises(self, tiny_blocks):
        orchestrator = CampaignOrchestrator(tiny_blocks,
                                            engines=_engines())
        with pytest.raises(ValueError, match="requires a checkpoint"):
            orchestrator.run(resume=True)


class TestJournalDamage:
    def test_torn_final_line_drops_only_that_entry(self, tiny_blocks,
                                                   reference, tmp_path):
        """A kill mid-write leaves a half-written last line — the
        expected crash artifact.  The valid prefix still replays."""
        journal = tmp_path / "journal.jsonl"
        _crash_run(tiny_blocks, journal, 5)
        journal.write_text(journal.read_text()[:-10])
        resumed = _resume(tiny_blocks, journal)
        assert resumed.stats["journal_replayed"] == 4
        assert resumed.canonical_bytes() == reference.canonical_bytes()

    def test_torn_tail_then_double_resume_accumulates(self, tiny_blocks,
                                                      reference,
                                                      tmp_path):
        """A resume after a torn tail must truncate the tear before
        appending — otherwise its first journaled entry merges into
        the fragment and a *second* resume would lose everything the
        first one completed."""
        journal = tmp_path / "journal.jsonl"
        _crash_run(tiny_blocks, journal, 5)
        journal.write_bytes(journal.read_bytes()[:-10])
        orchestrator = CampaignOrchestrator(
            tiny_blocks, engines=_engines(), executor=CrashAfter(3),
            checkpoint=CampaignCheckpoint(journal),
        )
        with pytest.raises(RuntimeError, match="simulated mid-campaign"):
            orchestrator.run(resume=True)
        resumed = _resume(tiny_blocks, journal)
        # 4 from the torn-tail prefix + 3 the killed resume journaled
        assert resumed.stats["journal_replayed"] == 7
        assert resumed.canonical_bytes() == reference.canonical_bytes()

    def test_corrupt_header_degrades_to_plain_rerun(self, tiny_blocks,
                                                    reference, tmp_path):
        journal = tmp_path / "journal.jsonl"
        _crash_run(tiny_blocks, journal, 7)
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(["{ not a header"] + lines[1:]) + "\n")
        resumed = _resume(tiny_blocks, journal)
        assert resumed.stats["journal_replayed"] == 0
        assert resumed.canonical_bytes() == reference.canonical_bytes()
        # the rerun rewrote a valid journal in place of the bad one
        again = _resume(tiny_blocks, journal)
        assert again.stats["journal_replayed"] == TOTAL_JOBS

    def test_plan_mismatch_discards_journal(self, tiny_blocks, reference,
                                            tmp_path):
        """A journal from a different campaign (here: the un-defected
        variant of the same modules) must not replay a single entry."""
        journal = tmp_path / "journal.jsonl"
        golden_chip = ComponentChip(only_blocks=["C"])
        golden = [("C", golden_chip.blocks[0][1][:2])]
        CampaignOrchestrator(
            golden, engines=_engines(),
            checkpoint=CampaignCheckpoint(journal),
        ).run()
        resumed = _resume(tiny_blocks, journal)
        assert resumed.stats["journal_replayed"] == 0
        assert resumed.canonical_bytes() == reference.canonical_bytes()

    def test_stale_fingerprint_entry_rechecked(self, tiny_blocks,
                                               reference, tmp_path):
        journal = tmp_path / "journal.jsonl"
        _crash_run(tiny_blocks, journal, 6)
        lines = journal.read_text().splitlines()
        entry = json.loads(lines[3])
        entry["fingerprint"] = "0" * 64
        lines[3] = json.dumps(entry)
        journal.write_text("\n".join(lines) + "\n")
        resumed = _resume(tiny_blocks, journal)
        assert resumed.stats["journal_replayed"] == 5
        assert resumed.canonical_bytes() == reference.canonical_bytes()

    def test_malformed_entry_never_flips_verdict(self, tiny_blocks,
                                                 reference, tmp_path):
        """Damaging every journaled verdict to nonsense forces a full
        re-check — the report outcome must not change at all."""
        journal = tmp_path / "journal.jsonl"
        CampaignOrchestrator(
            tiny_blocks, engines=_engines(),
            checkpoint=CampaignCheckpoint(journal),
        ).run()
        lines = journal.read_text().splitlines()
        damaged = [lines[0]]
        for line in lines[1:]:
            entry = json.loads(line)
            entry["result"]["status"] = "definitely-bogus"
            damaged.append(json.dumps(entry))
        journal.write_text("\n".join(damaged) + "\n")
        resumed = _resume(tiny_blocks, journal)
        assert resumed.stats["journal_replayed"] == 0
        assert resumed.canonical_bytes() == reference.canonical_bytes()

    def test_journaled_fail_without_replaying_trace_rechecked(
            self, tiny_blocks, reference, tmp_path):
        """A journaled FAIL whose counterexample no longer replays is
        not trusted — the property is re-checked."""
        journal = tmp_path / "journal.jsonl"
        CampaignOrchestrator(
            tiny_blocks, engines=_engines(),
            checkpoint=CampaignCheckpoint(journal),
        ).run()
        lines = journal.read_text().splitlines()
        tampered = 0
        rewritten = [lines[0]]
        for line in lines[1:]:
            entry = json.loads(line)
            if entry["result"]["status"] == "fail":
                entry["result"]["trace"] = []
                tampered += 1
            rewritten.append(json.dumps(entry))
        assert tampered > 0
        journal.write_text("\n".join(rewritten) + "\n")
        resumed = _resume(tiny_blocks, journal)
        assert resumed.stats["journal_replayed"] == TOTAL_JOBS - tampered
        assert resumed.canonical_bytes() == reference.canonical_bytes()


def _slow_campaign(blocks, journal_path):
    """Child-process campaign: ~20 ms per property, so the parent can
    land a SIGKILL somewhere in the middle of the stream."""
    CampaignOrchestrator(
        blocks, engines=_engines(),
        checkpoint=CampaignCheckpoint(journal_path),
    ).run(progress=lambda line: time.sleep(0.02))


class TestRealKill:
    def test_sigkilled_campaign_resumes_byte_identical(
            self, tiny_blocks, reference, tmp_path):
        """The genuine article: SIGKILL a running campaign process mid
        stream, then resume from whatever the journal durably holds."""
        journal = tmp_path / "journal.jsonl"
        context = multiprocessing.get_context("fork")
        child = context.Process(target=_slow_campaign,
                                args=(tiny_blocks, str(journal)))
        child.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if journal.exists() and \
                        len(journal.read_text().splitlines()) >= 5:
                    break
                time.sleep(0.005)
            else:
                pytest.fail("child campaign never journaled 4 entries")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.join()
        resumed = _resume(tiny_blocks, journal)
        replayed = resumed.stats["journal_replayed"]
        assert 0 < replayed < TOTAL_JOBS
        assert resumed.canonical_bytes() == reference.canonical_bytes()
        assert format_table2(resumed) == format_table2(reference)
