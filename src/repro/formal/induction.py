"""k-induction: SAT-based unbounded safety proof.

Standard temporal induction (Sheeran et al.): the property holds if

- **base**: no counterexample of length <= k from the initial state, and
- **step**: no path of k+1 constraint-satisfying transitions where the
  property holds for the first k frames and fails at frame k+1, starting
  from *any* state.

``unique_states=True`` adds simple-path (pairwise state-distinctness)
constraints, making the method complete: k eventually reaches the
design's recurrence diameter.  The paper's leaf-module scoping is what
keeps that diameter small enough to be practical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .budget import ResourceBudget
from .bmc import Unroller
from .sat import STAT_COUNTERS, Solver, stats_delta
from .trace import Trace
from .transition import TransitionSystem


class InductionResult:
    """Outcome of a k-induction run."""

    def __init__(self, status: str, k: int, trace: Optional[Trace],
                 stats: Dict[str, int]) -> None:
        self.status = status      # 'proved' | 'failed' | 'unknown'
        self.k = k
        self.trace = trace
        self.stats = stats

    def __repr__(self) -> str:
        return f"InductionResult({self.status} @ k={self.k})"


def k_induction(ts: TransitionSystem, max_k: int = 30,
                budget: Optional[ResourceBudget] = None,
                unique_states: bool = True) -> InductionResult:
    """Run temporal induction with increasing k.

    Returns ``proved`` (property holds for all reachable states),
    ``failed`` (with a validated counterexample trace), or ``unknown``
    when ``max_k`` is exhausted.  Raises
    :class:`~repro.formal.budget.BudgetExceeded` on budget exhaustion.
    """
    base_solver = Solver(budget)
    base = Unroller(ts, base_solver, constrain_init=True)
    step_solver = Solver(budget)
    step = Unroller(ts, step_solver, constrain_init=False)
    uniq = _UniqueStates(ts, step, step_solver) if unique_states else None

    for k in range(0, max_k + 1):
        # ---- base case: counterexample of exactly length k?
        base.assert_constraint(k)
        bad_lit = base.bad_at(k)
        if base_solver.solve([bad_lit]):
            trace = Trace(ts, base.extract_inputs(k))
            return InductionResult("failed", k, trace,
                                   _merge(base_solver, step_solver))
        base_solver.add_clause([bad_lit ^ 1])

        # ---- inductive step: good for frames 0..k, bad at frame k+1?
        step.assert_constraint(k)
        step.assert_constraint(k + 1)
        step_solver.add_clause([step.bad_at(k) ^ 1])
        if uniq is not None:
            uniq.extend(k + 1)
        step_bad = step.bad_at(k + 1)
        if not step_solver.solve([step_bad]):
            return InductionResult("proved", k, None,
                                   _merge(base_solver, step_solver))

    return InductionResult("unknown", max_k, None,
                           _merge(base_solver, step_solver))


def k_induction_session(base_session, step_session, assert_name: str,
                        max_k: int = 30,
                        unique_states: bool = True) -> InductionResult:
    """Temporal induction over a pair of shared, already-armed SAT
    sessions (see :mod:`repro.formal.satspace`): one init-constrained
    session for the base leg, one free-initial-state session for the
    step leg.

    Both legs run under the assertion's activation literal: queries are
    ``solve([act, bad@k])`` and all per-assertion facts — base blocking
    units, the step leg's "property holds at frame k" units, and the
    simple-path distinctness disjunctions (which range over *this*
    assertion's cone-of-influence latches) — are guarded by ``¬act``.
    XOR difference definitions and frame encodings are pure definitions
    and stay shared.  The query sequence is equivalent to the cold
    :func:`k_induction` modulo retained learned clauses, so statuses and
    depths are identical.

    A ``failed`` result carries ``trace=None``; callers re-derive the
    canonical counterexample cold (the base leg's query sequence through
    a failure at depth k is exactly :func:`~repro.formal.bmc.bmc`'s).
    """
    base_solver = base_session.solver
    step_solver = step_session.solver
    before = (base_solver.stats_snapshot(), step_solver.stats_snapshot())
    base_act = base_session.activation(assert_name)
    step_act = step_session.activation(assert_name)
    bad_node = base_session.cluster.bads[assert_name]
    uniq = step_session.unique_states(assert_name) if unique_states else None

    for k in range(0, max_k + 1):
        # ---- base case: counterexample of exactly length k?
        base_session.assert_constraint(k)
        bad_lit = base_session.frame(k).lit(bad_node)
        if base_solver.solve([base_act, bad_lit]):
            return InductionResult(
                "failed", k, None,
                _session_stats(base_solver, step_solver, before))
        base_solver.add_clause([base_act ^ 1, bad_lit ^ 1])

        # ---- inductive step: good for frames 0..k, bad at frame k+1?
        step_session.assert_constraint(k)
        step_session.assert_constraint(k + 1)
        step_bad_k = step_session.frame(k).lit(bad_node)
        step_solver.add_clause([step_act ^ 1, step_bad_k ^ 1])
        if uniq is not None:
            uniq.extend(k + 1)
        step_bad = step_session.frame(k + 1).lit(bad_node)
        if not step_solver.solve([step_act, step_bad]):
            return InductionResult(
                "proved", k, None,
                _session_stats(base_solver, step_solver, before))

    return InductionResult("unknown", max_k, None,
                           _session_stats(base_solver, step_solver, before))


def _merge(base: Solver, step: Solver) -> Dict[str, int]:
    base_snap = base.stats_snapshot()
    step_snap = step.stats_snapshot()
    merged = {key: base_snap[key] + step_snap[key] for key in base_snap}
    merged["base"] = base_snap
    merged["step"] = step_snap
    return merged


def idle_stats() -> Dict[str, object]:
    """Solver telemetry of a check that ran no solve: the shape of a
    session run's, every counter zero."""
    zero = dict.fromkeys((*STAT_COUNTERS, "learned_db"), 0)
    return {**zero, "base": dict(zero), "step": dict(zero)}


def _session_stats(base: Solver, step: Solver,
                   before: Tuple[Dict[str, int], Dict[str, int]]) -> Dict[str, int]:
    base_delta = stats_delta(before[0], base.stats_snapshot())
    step_delta = stats_delta(before[1], step.stats_snapshot())
    merged = {key: base_delta[key] + step_delta[key] for key in base_delta}
    merged["base"] = base_delta
    merged["step"] = step_delta
    return merged


class _UniqueStates:
    """Pairwise state-distinctness clauses for the step unrolling.

    ``guard`` (an activation literal) scopes the distinctness
    *disjunctions* to one assertion of a shared session; the XOR
    difference definitions stay unguarded (they are pure definitions)
    and are memoized in ``xor_memo`` keyed by (frame, frame, latch) so
    successive assertions of a cluster share them.  ``latches``
    overrides the distinctness support — shared sessions pass the
    assertion's own cone-of-influence latch list, since distinctness
    over the union cone would weaken simple-path and change proved
    depths.
    """

    def __init__(self, ts: TransitionSystem, unroller: Unroller,
                 solver: Solver, guard: Optional[int] = None,
                 latches: Optional[List[int]] = None,
                 xor_memo: Optional[Dict] = None) -> None:
        self.ts = ts
        self.unroller = unroller
        self.solver = solver
        self.guard = guard
        self.latches = list(ts.latches if latches is None else latches)
        self._xor_memo = {} if xor_memo is None else xor_memo
        self._frames_done = 0

    def extend(self, up_to_frame: int) -> None:
        """Ensure distinctness constraints cover frames 0..up_to_frame."""
        for new in range(self._frames_done, up_to_frame + 1):
            for old in range(new):
                self._add_distinct(old, new)
        self._frames_done = max(self._frames_done, up_to_frame + 1)

    def _add_distinct(self, a: int, b: int) -> None:
        ctx_a = self.unroller.frame(a)
        ctx_b = self.unroller.frame(b)
        diff_lits: List[int] = []
        for latch in self.latches:
            key = (a, b, latch)
            x = self._xor_memo.get(key)
            if x is None:
                lit_a = ctx_a.lit(latch)
                lit_b = ctx_b.lit(latch)
                x = self.solver.new_var() << 1
                # x <-> (a xor b)
                self.solver.add_clause([x ^ 1, lit_a, lit_b])
                self.solver.add_clause([x ^ 1, lit_a ^ 1, lit_b ^ 1])
                self.solver.add_clause([x, lit_a ^ 1, lit_b])
                self.solver.add_clause([x, lit_a, lit_b ^ 1])
                self._xor_memo[key] = x
            diff_lits.append(x)
        if not diff_lits:
            return
        if self.guard is None:
            self.solver.add_clause(diff_lits)
        else:
            self.solver.add_clause([self.guard ^ 1] + diff_lits)
