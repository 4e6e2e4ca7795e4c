"""BDD-family engines in campaigns: one fresh manager per check.

The BDD and POBDD engines are the paper's symbolic engines.  Every
check builds its own manager, charged against its own budget, so a
check's cost and verdict depend on nothing but its problem and its
budget: a repeat check pays for exactly the nodes the first one did, a
starved stage or job leaves nothing behind for the next one, and
BDD-engine campaigns are byte-identical on every executor.
"""

import pytest

from repro.chip import ComponentChip
from repro.formal.budget import ResourceBudget
from repro.formal.engine import (
    FAIL, PASS, TIMEOUT, EngineOptions, ModelChecker,
)
from repro.formal.reachability import SymbolicModel
from repro.orchestrate import (
    CampaignOrchestrator, EngineConfig, FleetExecutor,
    ModuleAffinityScheduling, SerialExecutor, compile_job,
    plan_campaign, run_check_job,
)

BDD_METHODS = ["bdd-forward", "bdd-backward", "bdd-combined", "pobdd"]


def _bdd_engines(**overrides):
    overrides.setdefault("method", "bdd-combined")
    overrides.setdefault("sat_conflicts", 500_000)
    overrides.setdefault("bdd_nodes", 5_000_000)
    return (EngineConfig(**overrides),)


def _budget():
    return ResourceBudget(sat_conflicts=500_000, bdd_nodes=5_000_000)


@pytest.fixture(scope="module")
def small_blocks():
    """Two modules of block C with one seeded defect: 17 jobs, PASS
    and FAIL mixed, so BDD-found counterexamples are concretised and
    cross every execution boundary."""
    chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
    return [("C", chip.blocks[0][1][:2])]


@pytest.fixture(scope="module")
def first_problem(small_blocks):
    plan = plan_campaign(small_blocks, _bdd_engines())
    return compile_job(plan.jobs[0])


# ----------------------------------------------------------------------
# one check, one manager
# ----------------------------------------------------------------------

class TestFreshManagers:
    @pytest.mark.parametrize("method", BDD_METHODS)
    def test_repeat_check_charges_identical_nodes(self, first_problem,
                                                  method):
        """Nothing carries over between checks: the second run of one
        problem builds, and pays for, exactly the nodes the first did."""
        first_budget, second_budget = _budget(), _budget()
        first = ModelChecker(first_problem, first_budget).check(
            method=method)
        second = ModelChecker(first_problem, second_budget).check(
            method=method)
        assert (first.status, first.depth) == (second.status, second.depth)
        assert first_budget.spent_nodes == second_budget.spent_nodes > 0

    @pytest.mark.parametrize("method", BDD_METHODS)
    def test_verdict_agrees_with_induction(self, first_problem, method):
        symbolic = ModelChecker(first_problem, _budget()).check(
            method=method)
        inductive = ModelChecker(first_problem, _budget()).check(
            method="kind")
        assert inductive.status in (PASS, FAIL)
        assert symbolic.status == inductive.status

    def test_models_never_share_a_manager(self, first_problem):
        budget = _budget()
        one = SymbolicModel(first_problem, budget=budget)
        two = SymbolicModel(first_problem, budget=budget)
        assert one.bdd is not two.bdd
        assert one.bdd.budget is budget

    def test_engine_options_carry_only_sat_wiring(self):
        """The SAT session binding is the only runtime wiring left on
        the engine options, and fingerprints never see it."""
        assert EngineConfig.RUNTIME_OPTION_FIELDS == {"sat_workspace"}
        config = EngineConfig(method="bdd-combined")
        assert "sat_workspace" not in config.describe()
        assert config.options().sat_workspace is None
        with pytest.raises(TypeError):
            EngineOptions(workspace=object())


# ----------------------------------------------------------------------
# budgets stay with their check
# ----------------------------------------------------------------------

class TestBudgetIsolation:
    def test_starved_stage_falls_through_to_fed_stage(self, small_blocks):
        """A TIMEOUT in a starved stage leaves nothing behind: the next
        stage's verdict matches a single fed stage run on its own."""
        starved_then_fed = (
            EngineConfig(method="bdd-combined", bdd_nodes=50),
            EngineConfig(method="bdd-combined", bdd_nodes=5_000_000),
        )
        job = plan_campaign(small_blocks, starved_then_fed).jobs[0]
        alone = plan_campaign(small_blocks, _bdd_engines()).jobs[0]
        result = run_check_job(job).result
        reference = run_check_job(alone).result
        attempts = [a["status"] for a in result.stats["portfolio"]]
        assert attempts == [TIMEOUT, reference.status]
        assert (result.status, result.depth) == \
            (reference.status, reference.depth)

    def test_starved_run_does_not_poison_the_next_run(self, small_blocks):
        """An executor that just ran a node-starved campaign produces
        the cold reference bytes on its next, fed campaign."""
        executor = SerialExecutor()
        starved = CampaignOrchestrator(
            small_blocks, engines=_bdd_engines(bdd_nodes=50),
            executor=executor).run()
        assert TIMEOUT in [r.result.status for r in starved.results]
        fed = CampaignOrchestrator(
            small_blocks, engines=_bdd_engines(), executor=executor).run()
        cold = CampaignOrchestrator(
            small_blocks, engines=_bdd_engines(),
            executor=SerialExecutor()).run()
        assert fed.canonical_bytes() == cold.canonical_bytes()


# ----------------------------------------------------------------------
# campaign-level contract
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def serial_bytes(small_blocks):
    """Serial reference report bytes, one per engine."""
    cache = {}

    def reference(method):
        if method not in cache:
            cache[method] = CampaignOrchestrator(
                small_blocks, engines=_bdd_engines(method=method),
                executor=SerialExecutor(),
            ).run().canonical_bytes()
        return cache[method]
    return reference


@pytest.mark.parametrize("make_executor", [
    pytest.param(lambda: FleetExecutor(workers=2), id="fleet"),
    pytest.param(lambda: FleetExecutor(
        workers=2, scheduling=ModuleAffinityScheduling()),
        id="fleet-affinity"),
])
@pytest.mark.parametrize("method", ["bdd-combined", "pobdd"])
def test_bdd_campaign_byte_identical_across_executors(
        small_blocks, serial_bytes, method, make_executor):
    report = CampaignOrchestrator(
        small_blocks, engines=_bdd_engines(method=method),
        executor=make_executor()).run()
    assert report.canonical_bytes() == serial_bytes(method)
