"""Executor-contract conformance battery.

One parametrized suite, run identically against every shipped executor
(serial and the socket fleet, each in several tunings): plan-order streaming,
0/1/many-job edge cases, mid-stream ``close()``, error propagation,
effective-mode naming, and the orchestrator's detection of executors
that under-yield, over-yield, or reorder.  A future executor (e.g. a
multi-host distributed one) gets certified by adding one line to
``EXECUTORS`` — if the battery passes, it is report-compatible with
every other execution strategy.
"""

import dataclasses

import pytest

from repro.chip import ComponentChip
from repro.orchestrate import (
    CampaignConfig, CampaignOrchestrator, EngineConfig, FleetExecutor,
    ModuleAffinityScheduling, SerialExecutor, plan_campaign,
)


def _engines(**overrides):
    overrides.setdefault("sat_conflicts", 500_000)
    overrides.setdefault("bdd_nodes", 5_000_000)
    return (EngineConfig(**overrides),)


#: the conformance roster: every executor the package ships, including
#: non-default tunings that change scheduling behaviour
EXECUTORS = [
    pytest.param(lambda: SerialExecutor(), id="serial"),
    # compile-store variants: off entirely, and LRU-thrashed down to a
    # single retained design — per-worker stores must never leak across
    # the boundary or move a verdict
    pytest.param(lambda: SerialExecutor(compile_store=False),
                 id="serial-nostore"),
    pytest.param(lambda: SerialExecutor(store_options={"max_designs": 1}),
                 id="serial-tight-store"),
    # SAT-workspace variants: shared incremental solver sessions on,
    # and LRU-thrashed to one live session — warm solver state must
    # never move a verdict or reorder the stream
    pytest.param(lambda: SerialExecutor(share_sat=True),
                 id="serial-satspace"),
    pytest.param(lambda: SerialExecutor(
        share_sat=True, sat_options={"max_sessions": 1}),
        id="serial-satspace-thrash"),
    # the parallel fleet: the same contract over a TCP transport —
    # leases, heartbeats, and the portable job wire format — under
    # both scheduling policies and every warm-state valve
    pytest.param(lambda: FleetExecutor(workers=2),
                 id="fleet"),
    pytest.param(lambda: FleetExecutor(
        workers=2, scheduling=ModuleAffinityScheduling()),
        id="fleet-affinity"),
    pytest.param(lambda: FleetExecutor(
        workers=2, compile_store=False),
        id="fleet-nostore"),
    pytest.param(lambda: FleetExecutor(
        workers=2, scheduling=ModuleAffinityScheduling(),
        store_options={"max_designs": 1}),
        id="fleet-tight-store"),
    pytest.param(lambda: FleetExecutor(
        workers=2, store_options={"max_designs": 1}),
        id="fleet-fifo-tight-store"),
    pytest.param(lambda: FleetExecutor(
        workers=2, share_sat=True),
        id="fleet-warm"),
    pytest.param(lambda: FleetExecutor(
        workers=2, share_sat=True, sat_options={"cluster_limit": 1}),
        id="fleet-satspace-cluster1"),
    pytest.param(lambda: FleetExecutor(
        workers=2, scheduling=ModuleAffinityScheduling(),
        share_sat=True),
        id="fleet-affinity-satspace"),
    pytest.param(lambda: FleetExecutor(
        workers=2, share_sat=True, sat_options={"max_sessions": 1}),
        id="fleet-satspace-thrash"),
    # more workers than CPUs, and heartbeats dense enough to interleave
    # with every result frame: neither may disturb the stream
    pytest.param(lambda: FleetExecutor(workers=3),
                 id="fleet-3"),
    pytest.param(lambda: FleetExecutor(
        workers=2, heartbeat_interval=0.02),
        id="fleet-chatty"),
]

parametrized = pytest.mark.parametrize("make_executor", EXECUTORS)


@pytest.fixture(scope="module")
def tiny_blocks():
    """Two modules, one seeded defect — 17 jobs, PASS and FAIL mixed,
    so counterexample traces cross every execution boundary."""
    chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
    return [("C", chip.blocks[0][1][:2])]


@pytest.fixture(scope="module")
def tiny_plan(tiny_blocks):
    return plan_campaign(tiny_blocks, _engines())


def _outcome(job_result):
    return (job_result.index, job_result.qualified_name,
            job_result.result.status, job_result.result.engine,
            job_result.result.depth)


@pytest.fixture(scope="module")
def serial_outcomes(tiny_plan):
    """The reference stream every executor must reproduce."""
    return [_outcome(r) for r in SerialExecutor().map(tiny_plan.jobs)]


@parametrized
class TestStreamingContract:
    def test_streams_every_result_in_plan_order(self, make_executor,
                                                tiny_plan,
                                                serial_outcomes):
        executor = make_executor()
        results = list(executor.map(tiny_plan.jobs))
        assert [r.index for r in results] == \
            [job.index for job in tiny_plan.jobs]
        assert [_outcome(r) for r in results] == serial_outcomes

    def test_counterexamples_survive_the_boundary(self, make_executor,
                                                  tiny_plan):
        executor = make_executor()
        failures = [r for r in executor.map(tiny_plan.jobs)
                    if r.result.status == "fail"]
        assert failures, "fixture must produce at least one FAIL"
        for job_result in failures:
            assert job_result.result.trace is not None
            assert job_result.result.trace.replay()

    def test_zero_jobs(self, make_executor):
        assert list(make_executor().map([])) == []

    def test_single_job(self, make_executor, tiny_plan, serial_outcomes):
        executor = make_executor()
        results = list(executor.map(tiny_plan.jobs[:1]))
        assert [_outcome(r) for r in results] == serial_outcomes[:1]

    def test_effective_mode_naming(self, make_executor, tiny_plan):
        """A run too small to parallelise must not claim it did; a real
        multi-job run must not claim a fallback."""
        executor = make_executor()
        list(executor.map(tiny_plan.jobs[:1]))
        assert executor.name == "serial" or \
            "serial-fallback" in executor.name
        list(executor.map(tiny_plan.jobs))
        assert "serial-fallback" not in executor.name

    def test_close_mid_stream_then_reuse(self, make_executor, tiny_plan,
                                         serial_outcomes):
        """Abandoning the stream after one result must release workers
        promptly and leave the executor reusable."""
        executor = make_executor()
        stream = executor.map(tiny_plan.jobs)
        first = next(stream)
        assert _outcome(first) == serial_outcomes[0]
        close = getattr(stream, "close", None)
        assert close is not None, "map() must support close()"
        close()
        results = list(executor.map(tiny_plan.jobs))
        assert [_outcome(r) for r in results] == serial_outcomes

    def test_job_error_propagates(self, make_executor, tiny_blocks):
        """A job that blows up must surface in the consuming process,
        not vanish into a worker."""
        plan = plan_campaign(tiny_blocks, _engines(method="quantum"))
        executor = make_executor()
        with pytest.raises(ValueError, match="unknown method"):
            list(executor.map(plan.jobs))

    def test_error_surfaces_after_in_order_prefix(self, make_executor,
                                                  tiny_plan):
        """When the last job errors, whatever results stream out first
        must be a correct in-plan-order prefix — a late failure must
        not scramble or swallow earlier completions mid-flight."""
        bad_last = dataclasses.replace(
            tiny_plan.jobs[-1], engines=(EngineConfig(method="quantum"),)
        )
        mixed = list(tiny_plan.jobs[:-1]) + [bad_last]
        executor = make_executor()
        yielded = []
        with pytest.raises(ValueError, match="unknown method"):
            for job_result in executor.map(mixed):
                yielded.append(job_result.index)
        assert yielded == list(range(len(yielded)))

    def test_orchestrator_outcome_identical(self, make_executor,
                                            tiny_blocks):
        serial = CampaignOrchestrator(
            tiny_blocks, engines=_engines(), executor=SerialExecutor()
        ).run()
        other = CampaignOrchestrator(
            tiny_blocks, engines=_engines(), executor=make_executor()
        ).run()
        assert other.canonical_bytes() == serial.canonical_bytes()


#: cone-addressing variants: the `[coi]` knob changes job fingerprints,
#: so both of its settings must be certified report-compatible with the
#: legacy (knob absent) report on every executor family, exactly like a
#: new executor would be
COI_EXECUTORS = [
    pytest.param(lambda: SerialExecutor(), id="serial"),
    pytest.param(lambda: FleetExecutor(workers=2), id="fleet"),
    pytest.param(lambda: FleetExecutor(
        workers=2, scheduling=ModuleAffinityScheduling()),
        id="fleet-affinity"),
]

COI_CONFIGS = [
    pytest.param(CampaignConfig(coi_fingerprints="cone"), id="cone"),
    pytest.param(CampaignConfig(coi_fingerprints="module"), id="module"),
]


@pytest.fixture(scope="module")
def module_mode_bytes(tiny_blocks):
    """The legacy serial, module-fingerprint report — the reference
    bytes every cone-addressing variant must reproduce."""
    return CampaignOrchestrator(
        tiny_blocks, engines=_engines(), executor=SerialExecutor()
    ).run().canonical_bytes()


@pytest.mark.parametrize("coi_config", COI_CONFIGS)
@pytest.mark.parametrize("make_executor", COI_EXECUTORS)
class TestConeAddressingContract:
    """Cone fingerprints must be invisible in report bytes — on/off,
    on any executor.  The fixture's seeded defect guarantees a FAIL,
    so counterexamples cross every boundary too."""

    def test_report_identical_to_module_mode_serial(
            self, make_executor, coi_config, tiny_blocks,
            module_mode_bytes):
        report = CampaignOrchestrator(
            tiny_blocks, engines=_engines(), executor=make_executor(),
            config=coi_config,
        ).run()
        assert report.canonical_bytes() == module_mode_bytes


class TestFleetSpecifics:
    """Guarantees beyond the shared battery that the fleet's pull
    scheduling makes (an executor that ships jobs in chunks could lose
    results inside a failing chunk, so these are not part of the
    shared contract)."""

    def test_every_completed_result_streams_before_late_error(
            self, tiny_plan):
        """All 16 good results must reach the consumer — and thus the
        checkpoint journal — before the 17th job's error is raised."""
        bad_last = dataclasses.replace(
            tiny_plan.jobs[-1], engines=(EngineConfig(method="quantum"),)
        )
        mixed = list(tiny_plan.jobs[:-1]) + [bad_last]
        executor = FleetExecutor(workers=2)
        yielded = []
        with pytest.raises(ValueError, match="unknown method"):
            for job_result in executor.map(mixed):
                yielded.append(job_result.index)
        assert yielded == list(range(len(mixed) - 1))


class _DropLast:
    """Under-yielding adapter: silently loses the final result."""

    def __init__(self, inner):
        self.inner = inner
        self.name = "drop-last"

    def map(self, jobs):
        jobs = list(jobs)
        return self.inner.map(jobs[:-1])


class _DuplicateLast:
    """Over-yielding adapter: repeats the final result."""

    def __init__(self, inner):
        self.inner = inner
        self.name = "duplicate-last"

    def map(self, jobs):
        results = list(self.inner.map(jobs))
        return iter(results + results[-1:])


class _Reversed:
    """Reordering adapter: yields results back to front."""

    def __init__(self, inner):
        self.inner = inner
        self.name = "reversed"

    def map(self, jobs):
        return iter(list(self.inner.map(jobs))[::-1])


@parametrized
class TestContractBreachDetection:
    """The orchestrator must reject a misbehaving executor loudly —
    whatever well-behaved executor sits underneath the misbehaviour."""

    def test_under_yield_detected(self, make_executor, tiny_blocks):
        orchestrator = CampaignOrchestrator(
            tiny_blocks, engines=_engines(),
            executor=_DropLast(make_executor()),
        )
        with pytest.raises(RuntimeError, match="ran out of results"):
            orchestrator.run()

    def test_over_yield_detected(self, make_executor, tiny_blocks):
        orchestrator = CampaignOrchestrator(
            tiny_blocks, engines=_engines(),
            executor=_DuplicateLast(make_executor()),
        )
        with pytest.raises(RuntimeError, match="beyond the last job"):
            orchestrator.run()

    def test_reordering_detected(self, make_executor, tiny_blocks):
        orchestrator = CampaignOrchestrator(
            tiny_blocks, engines=_engines(),
            executor=_Reversed(make_executor()),
        )
        with pytest.raises(RuntimeError, match="ordering contract"):
            orchestrator.run()
