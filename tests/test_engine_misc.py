"""Engine front-end corners: auto fallback, never-assumptions,
campaign timeout accounting."""

import pytest

from repro.core.campaign import FormalCampaign
from repro.formal.budget import ResourceBudget
from repro.formal.engine import (
    FAIL, PASS, TIMEOUT, UNKNOWN, CheckResult, ModelChecker,
)
from repro.orchestrate import CampaignConfig
from repro.psl.compile import compile_assertion
from repro.psl.parser import parse_vunit
from repro.rtl.module import Module
from repro.rtl.signals import Const, const, mux


def modular_counter_problem():
    """bad = (r == 7) on a counter that skips 6 and 7: unreachable, but
    not 0-inductive (state 6 satisfies the hypothesis and steps to 7),
    so a k=0 induction attempt must give up."""
    m = Module("m")
    r = m.reg("r", 4, reset=0)
    r.next = mux(r.eq(const(5, 4)), const(8, 4), r + 1)
    m.output("BAD", r.eq(const(7, 4)))
    unit = parse_vunit(
        "vunit v (m) { property p = never ( BAD ); assert p; }"
    )
    return compile_assertion(m, unit, "p")


class TestAutoFallback:
    def test_auto_uses_bdd_when_induction_gives_up(self):
        """With max_k=0 induction cannot conclude; auto must fall back
        to the BDD traversal and still prove the property."""
        ts = modular_counter_problem()
        budget = ResourceBudget(sat_conflicts=100_000,
                                bdd_nodes=1_000_000)
        result = ModelChecker(ts, budget).check(method="auto", max_k=0)
        assert result.status == PASS
        assert result.engine == "auto:bdd-combined"

    def test_auto_reports_kind_when_it_succeeds(self):
        ts = modular_counter_problem()
        result = ModelChecker(ts).check(method="auto", max_k=20)
        assert result.status == PASS
        assert result.engine == "auto:kind"


class TestCheckResult:
    def test_flags(self):
        passed = CheckResult("p", PASS, "kind")
        assert passed.passed and not passed.failed
        failed = CheckResult("p", FAIL, "bmc")
        assert failed.failed and not failed.timed_out
        timed = CheckResult("p", TIMEOUT, "bdd-forward")
        assert timed.timed_out
        assert "PASS" in repr(passed)


class TestNeverAssumption:
    def test_never_as_assume(self):
        m = Module("m")
        go = m.input("GO", 1)
        r = m.reg("r", 2, reset=0)
        r.next = mux(go, r + 1, r)
        m.output("BAD", r.eq(Const(2, 2)))
        unit = parse_vunit("""
        vunit v (m) {
            property pStay = never ( GO );
            assume pStay;
            property p = never ( BAD );
            assert p;
        }
        """)
        ts = compile_assertion(m, unit, "p")
        assert ModelChecker(ts).check(method="bdd-forward").status == PASS


class TestCampaignTimeouts:
    def test_timeout_recorded_not_crashed(self):
        """A campaign with an absurdly tight budget records TIMEOUTs and
        keeps going."""
        from repro.chip.library import canonical_leaf
        from repro.rtl.inject import make_verifiable
        module = make_verifiable(canonical_leaf())
        campaign = FormalCampaign(
            [("X", [module])],
            config=CampaignConfig(sat_conflicts=0, bdd_nodes=50),
        )
        report = campaign.run()
        assert report.total_properties == 5
        assert not report.all_passed
        assert len(report.by_status(TIMEOUT)) > 0
        # Table-2 accounting still counts the attempted properties
        assert report.blocks["X"].total == 5

    def test_progress_callback(self):
        from repro.chip.library import canonical_leaf
        from repro.rtl.inject import make_verifiable
        module = make_verifiable(canonical_leaf())
        seen = []
        campaign = FormalCampaign([("X", [module])])
        campaign.run(progress=seen.append)
        assert len(seen) == 5
        assert all(":" in line for line in seen)
