"""In-campaign verdict reuse: a renamed copy of a check runs once.

Job fingerprints leave the module's and vunit's names out, so a
renamed copy of a leaf module plans jobs with its original's
fingerprints.  The orchestrator partitions the plan journal → store →
reuse → run: only the first job of each fingerprint runs (or replays
from the journal), and every later one takes that verdict through the
store codec — named by its own job, ``cached``, a FAIL's counterexample
replayed on the later job's own compile.
"""

import json
import multiprocessing

import pytest

from repro.chip import ComponentChip
from repro.chip.specials import fsm_controller
from repro.formal.engine import FAIL
from repro.formal.trace import Trace
from repro.orchestrate import (
    CampaignCheckpoint, CampaignConfig, CampaignOrchestrator, FleetExecutor,
    ResultCache, SerialExecutor,
)
from repro.psl.compile import compile_assertion
from repro.rtl.inject import make_verifiable
from test_checkpoint import CrashAfter

#: distinct checks in the plan with copies (``copy_blocks``); asserted
#: against the real plan so the parametrization can't go stale
DISTINCT = 17


@pytest.fixture(scope="module")
def block_c():
    return ComponentChip(only_blocks=["C"]).blocks


@pytest.fixture(scope="module")
def block_c_run(block_c):
    orchestrator = CampaignOrchestrator(block_c)
    return orchestrator.plan(), orchestrator.run()


def _copy_blocks():
    """The B2-defective C00_fsmctl, a renamed copy of it, and C01/C02
    (C02 a renamed copy of C01): PASS and FAIL checks, each planned
    twice under different names."""
    buggy = ComponentChip(defects={"B2"}, only_blocks=["C"]).blocks[0][1]
    copy = make_verifiable(fsm_controller("C13_fsmcopy", buggy=True))
    return [("C", [buggy[0], copy, buggy[1], buggy[2]])]


@pytest.fixture(scope="module")
def copy_blocks():
    return _copy_blocks()


@pytest.fixture(scope="module")
def copy_reference(copy_blocks):
    orchestrator = CampaignOrchestrator(copy_blocks)
    plan = orchestrator.plan()
    report = orchestrator.run()
    assert len({job.fingerprint for job in plan.jobs}) == DISTINCT
    assert report.stats["coi"]["jobs_executed"] == DISTINCT
    assert set(report.failures_by_module()) == {"C00_fsmctl",
                                                "C13_fsmcopy"}
    return plan, report


class RecordingExecutor(SerialExecutor):
    """A serial executor that remembers the jobs it ran."""

    def __init__(self):
        super().__init__()
        self.ran = []

    def map(self, jobs):
        jobs = list(jobs)
        self.ran.extend(jobs)
        return super().map(jobs)


def _sources(plan):
    """Each job's source: the first job of the plan with its
    fingerprint."""
    first = {}
    return [first.setdefault(job.fingerprint, job) for job in plan.jobs]


def _assert_reuses(plan, report):
    """Each reused record equals its source's result and carries its
    own name; each source ran (``cached`` False)."""
    results = report.results
    for job, source, record in zip(plan.jobs, _sources(plan), results):
        assert record.result.name == job.qualified_name
        if source is job:
            assert not record.cached, job.qualified_name
            continue
        assert record.cached, job.qualified_name
        original = results[source.index].result
        reused = record.result
        assert (reused.status, reused.engine, reused.depth) == \
            (original.status, original.engine, original.depth)
        assert reused.stats == original.stats
        if original.trace is None:
            assert reused.trace is None
        else:
            assert reused.trace.canonical_frames() == \
                original.trace.canonical_frames()


class TestBlockC:
    def test_renamed_copies_share_fingerprints(self, block_c_run):
        """C01–C03, C04–C06 and C07–C12 are renamed copies: each group
        plans one fingerprint list, and no two groups (nor C00) share
        a fingerprint."""
        plan, _ = block_c_run
        by_module = {}
        for job in plan.jobs:
            by_module.setdefault(job.module.name[:3], []).append(
                job.fingerprint)
        groups = [["C00"], ["C01", "C02", "C03"], ["C04", "C05", "C06"],
                  [f"C{index:02d}" for index in range(7, 13)]]
        assert sorted(by_module) == sorted(sum(groups, []))
        seen = set()
        for group in groups:
            lists = {tuple(by_module[name]) for name in group}
            assert len(lists) == 1, group
            fingerprints = set(lists.pop())
            assert not fingerprints & seen
            seen |= fingerprints
        assert len(seen) == 32

    def test_each_distinct_check_runs_once(self, block_c_run):
        plan, report = block_c_run
        assert report.stats["coi"]["jobs_executed"] == 32
        assert report.stats["jobs_reused"] == 69
        assert report.stats["cache_hits"] == 0
        assert report.stats["cache_misses"] == 0  # no store attached
        _assert_reuses(plan, report)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_fleet_byte_identical_to_serial(self, block_c, block_c_run,
                                            workers):
        _, serial = block_c_run
        fleet = CampaignOrchestrator(
            block_c, executor=FleetExecutor(workers=workers)).run()
        assert fleet.canonical_bytes() == serial.canonical_bytes()
        assert [record.cached for record in fleet.results] == \
            [record.cached for record in serial.results]
        assert sum(fleet.stats["fleet"]["jobs_per_worker"].values()) == 32
        assert fleet.stats["jobs_reused"] == 69
        assert multiprocessing.active_children() == []


class TestDefectiveCopy:
    def test_copy_fails_and_replays_on_its_own_compile(self, copy_reference):
        """The copy's FAILs reuse the original's verdicts, and each
        counterexample replays on the copy's own compile."""
        plan, report = copy_reference
        _assert_reuses(plan, report)
        failures = report.failures_by_module()
        assert len(failures["C13_fsmcopy"]) == len(failures["C00_fsmctl"])
        jobs = {job.qualified_name: job for job in plan.jobs}
        for record in failures["C13_fsmcopy"]:
            assert record.cached
            job = jobs[record.qualified_name]
            trace = record.result.trace
            assert trace.ts.name == record.result.name == \
                compile_assertion(job.module, job.vunit,
                                  job.assert_name).name
            assert trace.replay()

    def test_fleet_byte_identical_to_serial(self, copy_blocks,
                                            copy_reference):
        _, serial = copy_reference
        fleet = CampaignOrchestrator(
            copy_blocks, config=CampaignConfig(executor="fleet:2")).run()
        assert fleet.canonical_bytes() == serial.canonical_bytes()
        assert multiprocessing.active_children() == []

    def test_unreplayable_reused_fail_raises(self, copy_blocks, monkeypatch):
        """Equal fingerprints promised one check: a reused FAIL whose
        counterexample does not replay on the later job's compile is an
        identity bug.  It raises, naming both jobs, and is never
        reported as a verdict."""
        replay = Trace.replay
        monkeypatch.setattr(Trace, "replay", lambda trace: (
            replay(trace) and not trace.ts.name.startswith("C13_fsmcopy")))
        lines = []
        with pytest.raises(RuntimeError, match="cannot reuse") as raised:
            CampaignOrchestrator(copy_blocks).run(progress=lines.append)
        assert "C13_fsmcopy" in str(raised.value)
        assert "C00_fsmctl" in str(raised.value)
        assert lines and not any("C13_fsmcopy" in line and "FAIL" in line
                                 for line in lines)

    def test_store_holds_one_row_per_distinct_check(self, copy_blocks,
                                                    copy_reference,
                                                    tmp_path):
        """A reused verdict is not stored (its fingerprint's verdict
        already is), and a warm rerun serves every job from the store:
        store hits are store hits, never reuse."""
        _, reference = copy_reference
        path = tmp_path / "verdicts.sqlite"
        cache = ResultCache(path)
        cold = CampaignOrchestrator(copy_blocks, cache=cache).run()
        cache.close()
        assert cold.stats["cache_misses"] == cold.total_properties
        assert cold.stats["jobs_reused"] == \
            cold.total_properties - DISTINCT
        cache = ResultCache(path)
        assert len(cache) == DISTINCT
        warm = CampaignOrchestrator(copy_blocks, cache=cache).run()
        cache.close()
        assert warm.stats["cache_hits"] == warm.total_properties
        assert warm.stats["jobs_reused"] == 0
        assert warm.canonical_bytes() == reference.canonical_bytes()


class TestResumeWithCopies:
    @pytest.mark.parametrize("k", range(DISTINCT))
    def test_resume_after_any_prefix_runs_no_journaled_check(
            self, k, copy_blocks, copy_reference, tmp_path):
        """Cut after any prefix, the resumed campaign is byte-identical
        and executes no fingerprint its journal holds: a copy of a
        journaled check reuses the journaled verdict."""
        _, reference = copy_reference
        journal = tmp_path / "journal.jsonl"
        with pytest.raises(RuntimeError, match="simulated mid-campaign"):
            CampaignOrchestrator(
                copy_blocks, executor=CrashAfter(k),
                checkpoint=CampaignCheckpoint(journal)).run()
        journaled = {json.loads(line)["fingerprint"]
                     for line in journal.read_text().splitlines()[1:]}
        assert len(journaled) == k
        executor = RecordingExecutor()
        resumed = CampaignOrchestrator(
            copy_blocks, executor=executor,
            checkpoint=CampaignCheckpoint(journal)).run(resume=True)
        assert resumed.canonical_bytes() == reference.canonical_bytes()
        assert resumed.stats["journal_replayed"] == k
        ran = {job.fingerprint for job in executor.ran}
        assert not ran & journaled
        assert len(executor.ran) == len(ran) == DISTINCT - k
        assert resumed.by_status(FAIL)


class TestCli:
    def test_report_and_run_count_reuse(self, tmp_path, capsys):
        """``campaign report`` shows the pending reusers and counts only
        distinct checks as ``to run``; ``campaign run`` prints how many
        jobs reused a verdict on its jobs line, and names its executor
        alone."""
        from repro.cli import main
        path = tmp_path / "campaign.toml"
        path.write_text(CampaignConfig(blocks=("C",)).to_toml())
        assert main(["campaign", "report", "--config", str(path)]) == 0
        report = capsys.readouterr().out.splitlines()
        assert "  reuse:    69 pending (same check as an earlier job)" \
            in report
        assert "  to run:   32" in report
        assert main(["campaign", "run", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("jobs:")] == \
            ["jobs:           101 (0 journal-replayed, "
             "0 cache hits, 69 reused)"]
        assert [line for line in lines if line.startswith("executor:")] \
            == ["executor:       serial"]
