"""The shared incremental SAT workspace and its campaign wiring.

Covers the clustering layer (one shared-AIG multi-bad system per
(module, vunit) chunk, with per-assertion cone-of-influence views),
the workspace itself (session reuse, activation/retire soundness, the
LRU capacity, budget re-arming), the engine integration (warm
``bmc``/``kind`` results — verdicts, depths, *and* counterexample
bytes — identical to cold runs), and the campaign-level certification
bar: byte-identical ``CampaignReport.canonical_bytes`` with the
workspace on, off, clustering disabled, or LRU-thrashed, across every
executor.  The thrashed and unclustered variants patch the capacity
constants on the class; forked fleet workers inherit the patch.
"""

import pytest

from repro.chip import ComponentChip
from repro.formal.budget import BudgetExceeded, ResourceBudget
from repro.formal.engine import FAIL, PASS, EngineOptions, ModelChecker
from repro.formal.satspace import (
    MODE_BMC_INIT, MODE_STEP, SatSession, SatWorkspace,
)
from repro.orchestrate import (
    CampaignOrchestrator, EngineConfig, FleetExecutor, SerialExecutor,
    plan_campaign, portfolio,
)
from repro.psl.compile import compile_assertion, compile_cluster


def _engines(**overrides):
    overrides.setdefault("max_bound", 8)
    overrides.setdefault("max_k", 12)
    overrides.setdefault("sat_conflicts", 500_000)
    return portfolio("bmc", "kind", **overrides)


@pytest.fixture(scope="module")
def buggy_blocks():
    """Two block-C modules with the B2 defect seeded: 17 jobs, PASS and
    FAIL mixed, so counterexample traces cross the warm/cold boundary."""
    chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
    return [("C", chip.blocks[0][1][:2])]


@pytest.fixture(scope="module")
def buggy_plan(buggy_blocks):
    return plan_campaign(buggy_blocks, _engines())


@pytest.fixture(scope="module")
def a_module(buggy_blocks):
    return buggy_blocks[0][1][0]


@pytest.fixture(scope="module")
def a_vunit(a_module):
    from repro.core.stereotypes import stereotype_vunits
    return stereotype_vunits(a_module)[0]


# ----------------------------------------------------------------------
# clustering: one shared AIG, per-assertion views
# ----------------------------------------------------------------------

class TestClusterSystem:
    def test_views_match_solo_compiles(self, a_module, a_vunit):
        cluster = compile_cluster(a_module, a_vunit)
        for name, _ in a_vunit.asserted():
            view = cluster.view(name)
            solo = compile_assertion(a_module, a_vunit, name)
            assert len(view.latches) == len(solo.latches)
            assert len(view.inputs) == len(solo.inputs)

    def test_members_follow_directive_order(self, a_module, a_vunit):
        cluster = compile_cluster(a_module, a_vunit)
        assert cluster.members() == \
            [name for name, _ in a_vunit.asserted()]

    def test_subset_clusters(self, a_module, a_vunit):
        names = [name for name, _ in a_vunit.asserted()][:1]
        cluster = compile_cluster(a_module, a_vunit, names)
        assert cluster.members() == names

    def test_unknown_assertion_rejected(self, a_module, a_vunit):
        with pytest.raises(ValueError):
            compile_cluster(a_module, a_vunit, ["no_such_property"])


# ----------------------------------------------------------------------
# the workspace itself
# ----------------------------------------------------------------------

def _bind(workspace, module, vunit, name):
    return workspace.bind(module, vunit, name)


class TestWorkspace:
    def test_session_reuse_within_cluster(self, a_module, a_vunit):
        workspace = SatWorkspace()
        names = [name for name, _ in a_vunit.asserted()]
        first = _bind(workspace, a_module, a_vunit, names[0])
        session_a = first.lease(MODE_BMC_INIT)
        first.retire()
        second = _bind(workspace, a_module, a_vunit, names[-1])
        session_b = second.lease(MODE_BMC_INIT)
        second.retire()
        assert session_a is session_b
        stats = workspace.stats()
        assert stats["reuses"] >= 1
        assert stats["cluster_compiles"] == 1

    def test_modes_get_distinct_sessions(self, a_module, a_vunit):
        workspace = SatWorkspace()
        name = next(iter(a_vunit.asserted()))[0]
        binding = _bind(workspace, a_module, a_vunit, name)
        init = binding.lease(MODE_BMC_INIT)
        step = binding.lease(MODE_STEP)
        assert init is not step
        assert init.unroller.constrain_init
        assert not step.unroller.constrain_init
        binding.retire()

    def test_lru_eviction_at_one_session(self, a_module, a_vunit,
                                         monkeypatch):
        monkeypatch.setattr(SatWorkspace, "MAX_SESSIONS", 1)
        workspace = SatWorkspace()
        name = next(iter(a_vunit.asserted()))[0]
        binding = _bind(workspace, a_module, a_vunit, name)
        binding.lease(MODE_BMC_INIT)
        binding.lease(MODE_STEP)  # evicts the init session
        binding.retire()
        stats = workspace.stats()
        assert stats["sessions"] == 1
        assert stats["evictions"] >= 1

    def test_grown_session_is_kept(self, a_module, a_vunit):
        """No clause-count bound: a session keeps its whole clause
        database across leases, however far it grew."""
        workspace = SatWorkspace()
        name = next(iter(a_vunit.asserted()))[0]
        binding = _bind(workspace, a_module, a_vunit, name)
        session = binding.lease(MODE_BMC_INIT)
        session.frame(2)
        clauses = session.solver.num_clauses()
        binding.retire()
        again = _bind(workspace, a_module, a_vunit, name)
        assert again.lease(MODE_BMC_INIT) is session
        again.retire()
        assert session.solver.num_clauses() == clauses
        assert workspace.stats()["reuses"] == 1

    def test_one_assertion_per_cluster(self, a_module, a_vunit,
                                       monkeypatch):
        names = [name for name, _ in a_vunit.asserted()]
        if len(names) < 2:
            pytest.skip("vunit with a single assertion")
        monkeypatch.setattr(SatWorkspace, "CLUSTER_LIMIT", 1)
        workspace = SatWorkspace()
        first = _bind(workspace, a_module, a_vunit, names[0])
        second = _bind(workspace, a_module, a_vunit, names[1])
        session_a = first.lease(MODE_BMC_INIT)
        session_b = second.lease(MODE_BMC_INIT)
        first.retire()
        second.retire()
        assert session_a is not session_b
        assert workspace.stats()["cluster_compiles"] == 2

    def test_retire_then_recheck_same_verdict(self, a_module):
        """Check, retire, check again: every re-check of an assertion
        (a PASS in the first vunit, a FAIL in the soundness vunit)
        gives the cold k-induction verdict at the cold depth."""
        from repro.core.stereotypes import stereotype_vunits
        from repro.formal.induction import k_induction, k_induction_session
        workspace = SatWorkspace()
        statuses = set()
        for vunit in stereotype_vunits(a_module):
            name = next(iter(vunit.asserted()))[0]
            cold = k_induction(compile_assertion(a_module, vunit, name),
                               max_k=12)
            statuses.add(cold.status)
            for _ in range(3):
                binding = _bind(workspace, a_module, vunit, name)
                warm = k_induction_session(binding.lease(MODE_BMC_INIT),
                                           binding.lease(MODE_STEP),
                                           name, max_k=12)
                binding.retire()
                assert (warm.status, warm.k) == (cold.status, cold.k)
        assert statuses == {"proved", "failed"}

    def test_budget_exhaustion_leaves_session_reusable(self, a_module,
                                                       a_vunit):
        from repro.formal.induction import k_induction, k_induction_session
        workspace = SatWorkspace()
        name = next(iter(a_vunit.asserted()))[0]
        binding = _bind(workspace, a_module, a_vunit, name)
        starved = ResourceBudget(sat_conflicts=0)
        base = binding.lease(MODE_BMC_INIT, starved)
        step = binding.lease(MODE_STEP, starved)
        with pytest.raises(BudgetExceeded):
            k_induction_session(base, step, name, max_k=12)
        binding.retire()
        # re-lease with a generous budget: same sessions, sound answer
        binding = _bind(workspace, a_module, a_vunit, name)
        budget = ResourceBudget(sat_conflicts=500_000)
        rearmed_base = binding.lease(MODE_BMC_INIT, budget)
        rearmed_step = binding.lease(MODE_STEP, budget)
        assert rearmed_base is base and rearmed_step is step
        warm = k_induction_session(rearmed_base, rearmed_step, name,
                                   max_k=12)
        binding.retire()
        cold = k_induction(compile_assertion(a_module, a_vunit, name),
                           max_k=12)
        assert (warm.status, warm.k) == (cold.status, cold.k)

    def test_capacities_are_constants(self):
        """Capacities are class constants at the old defaults; the
        constructor takes no valve."""
        assert (SatWorkspace.MAX_SESSIONS, SatWorkspace.CLUSTER_LIMIT) \
            == (8, 16)
        for valve in ("max_sessions", "cluster_limit",
                      "max_session_clauses"):
            with pytest.raises(TypeError, match=valve):
                SatWorkspace(**{valve: 1})

    def test_stats_keys(self):
        stats = SatWorkspace().stats()
        assert "oversize_discards" not in stats
        for key in ("sessions", "clusters", "leases", "reuses",
                    "evictions", "activations",
                    "retirements", "frames_built", "frames_reused",
                    "clauses_retained", "cluster_compiles"):
            assert key in stats

    def test_discard_drops_sessions_keeps_counters(self, a_module,
                                                   a_vunit):
        workspace = SatWorkspace()
        name = next(iter(a_vunit.asserted()))[0]
        binding = _bind(workspace, a_module, a_vunit, name)
        binding.lease(MODE_BMC_INIT)
        binding.retire()
        leases = workspace.stats()["leases"]
        workspace.discard()
        stats = workspace.stats()
        assert stats["sessions"] == 0 and stats["clusters"] == 0
        assert stats["leases"] == leases


# ----------------------------------------------------------------------
# engine integration: warm == cold, byte for byte
# ----------------------------------------------------------------------

class TestEngineWarmCold:
    def _all_assertions(self, blocks):
        from repro.core.stereotypes import stereotype_vunits
        for _, modules in blocks:
            for module in modules:
                for vunit in stereotype_vunits(module):
                    for name, _ in vunit.asserted():
                        yield module, vunit, name

    @pytest.mark.parametrize("method", ["bmc", "kind"])
    def test_every_fixture_assertion_matches_cold(self, buggy_blocks,
                                                  method):
        workspace = SatWorkspace()
        budget_kwargs = dict(max_bound=8, max_k=12)
        saw_fail = False
        for module, vunit, name in self._all_assertions(buggy_blocks):
            ts = compile_assertion(module, vunit, name)
            cold = ModelChecker(ts).check(method, **budget_kwargs)
            binding = workspace.bind(module, vunit, name)
            options = EngineOptions(max_bound=8, max_k=12,
                                    sat_workspace=binding)
            warm = ModelChecker(ts).check(method, options=options)
            binding.retire()
            assert (warm.status, warm.depth) == (cold.status, cold.depth), \
                f"{ts.name}: warm {method} diverged"
            if cold.status == FAIL:
                saw_fail = True
                assert warm.trace.canonical_frames() == \
                    cold.trace.canonical_frames()
        assert saw_fail, "fixture must exercise the FAIL re-derivation"

    def test_warm_result_carries_solver_telemetry(self, a_module,
                                                  a_vunit):
        workspace = SatWorkspace()
        name = next(iter(a_vunit.asserted()))[0]
        ts = compile_assertion(a_module, a_vunit, name)
        binding = workspace.bind(a_module, a_vunit, name)
        options = EngineOptions(max_bound=6, max_k=8,
                                sat_workspace=binding)
        result = ModelChecker(ts).check("kind", options=options)
        binding.retire()
        sat = result.stats["sat"]
        for key in ("conflicts", "propagations", "restarts", "learned_db"):
            assert key in sat
        assert "base" in sat and "step" in sat

    def test_cold_results_carry_same_telemetry_shape(self, a_module,
                                                     a_vunit):
        name = next(iter(a_vunit.asserted()))[0]
        ts = compile_assertion(a_module, a_vunit, name)
        for method in ("bmc", "kind"):
            result = ModelChecker(ts).check(method, max_bound=6, max_k=8)
            sat = result.stats["sat"]
            for key in ("conflicts", "propagations", "restarts",
                        "learned_db"):
                assert key in sat


# ----------------------------------------------------------------------
# campaign byte-identity: the certification bar
# ----------------------------------------------------------------------

def _sat_variants():
    """``(executor kwargs, SatWorkspace constant shrunk to 1)``."""
    return [
        pytest.param((dict(share_sat=True), None), id="sat-on"),
        pytest.param((dict(share_sat=False), None), id="sat-off"),
        pytest.param((dict(share_sat=True), "CLUSTER_LIMIT"),
                     id="sat-nocluster"),
        pytest.param((dict(share_sat=True), "MAX_SESSIONS"),
                     id="sat-thrashed"),
    ]


class TestCampaignByteIdentity:
    @pytest.fixture(scope="class")
    def reference(self, buggy_blocks):
        return CampaignOrchestrator(
            buggy_blocks, engines=_engines(),
            executor=SerialExecutor(),
        ).run().canonical_bytes()

    @pytest.mark.parametrize("variant", _sat_variants())
    @pytest.mark.parametrize("executor_factory", [
        pytest.param(SerialExecutor, id="serial"),
        pytest.param(lambda **kw: FleetExecutor(workers=2, **kw),
                     id="fleet"),
    ])
    def test_outcome_invariant_across_executors(self, buggy_blocks,
                                                reference,
                                                executor_factory,
                                                variant, monkeypatch):
        sat_kwargs, capacity = variant
        if capacity is not None:
            monkeypatch.setattr(SatWorkspace, capacity, 1)
        report = CampaignOrchestrator(
            buggy_blocks, engines=_engines(),
            executor=executor_factory(**sat_kwargs),
        ).run()
        assert report.canonical_bytes() == reference

    def test_report_stats_surface_workspace_counters(self, buggy_blocks):
        report = CampaignOrchestrator(
            buggy_blocks, engines=_engines(),
            executor=SerialExecutor(share_sat=True),
        ).run()
        counters = report.stats["sat_workspace"]
        assert counters["leases"] > 0
        assert counters["reuses"] > 0
        assert counters["clauses_retained"] > 0
        assert counters["workers"] == 1

    def test_sharing_off_reports_empty_stats(self, buggy_blocks):
        report = CampaignOrchestrator(
            buggy_blocks, engines=_engines(),
            executor=SerialExecutor(share_sat=False),
        ).run()
        assert report.stats["sat_workspace"] == {}

    def test_workspace_warm_across_runs(self, buggy_blocks):
        """An explicit ``sat_workspace=`` keeps sessions alive across
        two campaigns: the second run reuses instead of recompiling."""
        workspace = SatWorkspace()
        executor = SerialExecutor(sat_workspace=workspace)
        first = CampaignOrchestrator(
            buggy_blocks, engines=_engines(), executor=executor,
        ).run()
        compiles_after_first = workspace.stats()["cluster_compiles"]
        second = CampaignOrchestrator(
            buggy_blocks, engines=_engines(), executor=executor,
        ).run()
        assert second.canonical_bytes() == first.canonical_bytes()
        assert workspace.stats()["cluster_compiles"] == \
            compiles_after_first

    def test_per_worker_counters_aggregate(self, buggy_blocks):
        executor = FleetExecutor(workers=2, share_sat=True)
        CampaignOrchestrator(
            buggy_blocks, engines=_engines(), executor=executor,
        ).run()
        stats = executor.sat_stats()
        assert stats["workers"] >= 1
        assert stats["leases"] > 0
