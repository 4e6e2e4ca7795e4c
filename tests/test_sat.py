"""CDCL SAT solver: fuzz against brute force, assumptions, budget, and
the search itself pinned against the reference formulation."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.formal.budget import BudgetExceeded, ResourceBudget
from repro.formal.sat import Solver
from sat_reference import Solver as ReferenceSolver


def brute_force(num_vars, clauses):
    for bits in itertools.product([0, 1], repeat=num_vars):
        if all(any((bits[l >> 1] ^ (l & 1)) == 1 for l in clause)
               for clause in clauses):
            return True
    return False


def random_instance(rng, max_vars=8, max_clauses=35):
    n = rng.randint(1, max_vars)
    clauses = [
        [rng.randrange(2 * n) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, max_clauses))
    ]
    return n, clauses


def solve_instance(n, clauses):
    solver = Solver()
    for _ in range(n):
        solver.new_var()
    for clause in clauses:
        if not solver.add_clause(clause):
            return solver, False
    return solver, solver.solve()


class TestFuzz:
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed * 31 + 1)
        for _ in range(60):
            n, clauses = random_instance(rng)
            solver, got = solve_instance(n, clauses)
            assert got == brute_force(n, clauses)
            if got:
                for clause in clauses:
                    assert any(solver.value_of(lit) for lit in clause)

    @pytest.mark.parametrize("seed", range(6))
    def test_incremental_assumptions_agree(self, seed):
        """solve(assumptions) must equal solving with the assumptions
        added as unit clauses to a fresh solver."""
        rng = random.Random(seed * 17 + 3)
        for _ in range(30):
            n, clauses = random_instance(rng, max_vars=6)
            solver = Solver()
            for _ in range(n):
                solver.new_var()
            ok = all(solver.add_clause(c) for c in clauses)
            for trial in range(4):
                assumptions = [rng.randrange(2 * n)
                               for _ in range(rng.randint(0, 3))]
                got = solver.solve(assumptions) if ok else False
                want = brute_force(
                    n, clauses + [[lit] for lit in assumptions]
                ) if ok else False
                assert got == want, (n, clauses, assumptions)


class TestApi:
    def test_tautology_and_duplicates(self):
        s = Solver()
        a = s.new_var()
        assert s.add_clause([2 * a, 2 * a + 1])   # tautology dropped
        assert s.add_clause([2 * a, 2 * a])       # duplicate literal
        assert s.solve() is True

    def test_empty_clause_unsat(self):
        s = Solver()
        a = s.new_var()
        assert s.add_clause([2 * a])
        assert not s.add_clause([2 * a + 1])
        assert s.solve() is False

    def test_unknown_variable_rejected(self):
        s = Solver()
        with pytest.raises(ValueError):
            s.add_clause([0])
        s.new_var()
        # a negative literal must not index the variables from the end
        with pytest.raises(ValueError):
            s.add_clause([-2])
        with pytest.raises(ValueError):
            s.solve([-1])
        with pytest.raises(ValueError):
            s.solve([4])
        # the rejected calls asserted and assumed nothing
        assert s.solve([1]) is True
        assert s.solve([0]) is True
        assert s.stats_snapshot()["conflicts"] == 0

    def test_solve_repeatable(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([2 * a, 2 * b])
        assert s.solve() is True
        assert s.solve([2 * a + 1]) is True
        assert s.value_of(2 * b) == 1
        assert s.solve([2 * a + 1, 2 * b + 1]) is False
        assert s.solve() is True

    def test_budget_exhaustion_raises(self):
        """PHP(6,5) forces a non-trivial amount of search; a tiny
        conflict budget must trip."""
        pigeons, holes = 6, 5
        solver = Solver(ResourceBudget(sat_conflicts=3))
        var = [[solver.new_var() for _ in range(holes)]
               for _ in range(pigeons)]
        for p in range(pigeons):
            solver.add_clause([2 * var[p][h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([2 * var[p1][h] + 1,
                                       2 * var[p2][h] + 1])
        with pytest.raises(BudgetExceeded):
            solver.solve()

    def test_luby_prefix(self):
        want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [Solver._luby(i) for i in range(15)] == want


class TestStructuredInstances:
    def test_pigeonhole_3_into_2_unsat(self):
        """PHP(3,2): three pigeons, two holes — classically UNSAT."""
        s = Solver()
        var = [[s.new_var() for _ in range(2)] for _ in range(3)]
        for pigeon in range(3):
            s.add_clause([2 * var[pigeon][h] for h in range(2)])
        for hole in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    s.add_clause([2 * var[p1][hole] + 1,
                                  2 * var[p2][hole] + 1])
        assert s.solve() is False

    def test_xor_chain_sat(self):
        """x0 ^ x1 ^ ... ^ x7 = 1 encoded clausally."""
        s = Solver()
        xs = [s.new_var() for _ in range(8)]
        # pairwise chain with auxiliaries
        acc = xs[0]
        for x in xs[1:]:
            out = s.new_var()
            a, b, y = 2 * acc, 2 * x, 2 * out
            s.add_clause([y ^ 1, a, b])
            s.add_clause([y ^ 1, a ^ 1, b ^ 1])
            s.add_clause([y, a ^ 1, b])
            s.add_clause([y, a, b ^ 1])
            acc = out
        s.add_clause([2 * acc])
        assert s.solve() is True
        model_parity = sum(s.value_of(2 * x) for x in xs) % 2
        assert model_parity == 1


class TestIncrementalFuzz:
    """Randomized incremental workloads — the access pattern shared SAT
    sessions lean on: interleaved ``add_clause``/``solve`` with
    assumptions, verdicts *and* models checked against brute force at
    every step, up to 12 variables."""

    @pytest.mark.parametrize("seed", range(10))
    def test_interleaved_adds_and_solves(self, seed):
        rng = random.Random(seed * 101 + 7)
        for _ in range(12):
            n = rng.randint(2, 12)
            solver = Solver()
            for _ in range(n):
                solver.new_var()
            clauses, ok = [], True
            for _round in range(rng.randint(2, 6)):
                for _ in range(rng.randint(1, 8)):
                    clause = [rng.randrange(2 * n)
                              for _ in range(rng.randint(1, 4))]
                    clauses.append(clause)
                    if not solver.add_clause(clause):
                        ok = False
                assumptions = [rng.randrange(2 * n)
                               for _ in range(rng.randint(0, 3))]
                got = solver.solve(assumptions) if ok else False
                want = brute_force(
                    n, clauses + [[lit] for lit in assumptions]
                ) if ok else False
                assert got == want, (n, clauses, assumptions)
                if got:
                    # the model must satisfy every clause AND every
                    # assumption, not just report the right verdict
                    for clause in clauses:
                        assert any(solver.value_of(lit)
                                   for lit in clause)
                    for lit in assumptions:
                        assert solver.value_of(lit) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_learned_clauses_never_change_verdicts(self, seed):
        """Solving the same instance repeatedly (the learned DB grows
        between calls) must keep agreeing with a fresh solver."""
        rng = random.Random(seed * 13 + 5)
        for _ in range(10):
            n, clauses = random_instance(rng, max_vars=10,
                                         max_clauses=45)
            solver, first = solve_instance(n, clauses)
            want = brute_force(n, clauses)
            assert first == want
            for _ in range(3):
                assert solver.solve() == want


class TestWarmStateApi:
    def test_rearm_swaps_budget(self):
        """A session-style solver: exhaust a tiny budget, ``rearm``
        with a generous one, and the same instance completes."""
        pigeons, holes = 6, 5
        solver = Solver(ResourceBudget(sat_conflicts=3))
        var = [[solver.new_var() for _ in range(holes)]
               for _ in range(pigeons)]
        for p in range(pigeons):
            solver.add_clause([2 * var[p][h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([2 * var[p1][h] + 1,
                                       2 * var[p2][h] + 1])
        with pytest.raises(BudgetExceeded):
            solver.solve()
        solver.rearm(ResourceBudget(sat_conflicts=500_000))
        assert solver.solve() is False

    def test_stats_snapshot_and_delta(self):
        from repro.formal.sat import stats_delta
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([2 * a, 2 * b])
        before = solver.stats_snapshot()
        assert solver.solve([2 * a + 1]) is True
        after = solver.stats_snapshot()
        delta = stats_delta(before, after)
        for key in ("conflicts", "decisions", "propagations",
                    "restarts", "learned"):
            assert key in delta and delta[key] >= 0
        # learned_db is a gauge, not a counter: carried absolute
        assert delta["learned_db"] == after["learned_db"]

    def test_num_clauses_counts_stored_and_learned(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([2 * a, 2 * b])  # stored
        solver.add_clause([2 * a])         # unit: assigned, not stored
        assert solver.num_clauses() == 1


class TestSearchPinned:
    """The hot paths of :class:`Solver` are written for speed, but the
    search must stay exactly that of the plain reference formulation
    (``tests/sat_reference.py``): every decision, propagation, learned
    clause, restart and database reduction.  Each test drives both
    solvers through one call sequence and, after every ``solve``,
    compares the verdict, the model and every search counter, so any
    change in decision or propagation order fails here."""

    @staticmethod
    def _new_vars(fast, ref, count):
        new = [fast.new_var() for _ in range(count)]
        assert [ref.new_var() for _ in range(count)] == new
        return new

    @staticmethod
    def _add(fast, ref, clause):
        assert fast.add_clause(clause) == ref.add_clause(clause)

    @staticmethod
    def _solve(fast, ref, assumptions):
        verdict = fast.solve(assumptions)
        assert verdict == ref.solve(assumptions)
        assert fast.stats_snapshot() == ref.stats_snapshot()
        assert fast.model() == ref.model()
        return verdict

    @staticmethod
    def _clause(rng, num_vars):
        return [2 * v + rng.randrange(2)
                for v in rng.sample(range(num_vars), 3)]

    @pytest.mark.parametrize("seed", range(8))
    def test_incremental_sequence(self, seed):
        """The unrolling pattern of BMC and k-induction: fresh gate
        variables with their Tseitin definitions, solves under
        assumptions, and clauses added between solves (the blocking
        clause of an UNSAT query, or clauses the last model satisfies),
        interleaved.  AND gates go through ``add_and_definition`` on
        the fast solver and through ``new_var`` plus three
        ``add_clause`` calls on the reference.  The pool holds literals
        fixed at the root in both polarities (as the constant,
        init-bound latches and constraint units are), some gates take
        both fanins from one variable, and some follow a SAT answer
        directly, with the solver still at its last decision level."""
        rng = random.Random(seed * 7919 + 11)
        fast, ref = Solver(), ReferenceSolver()
        lits = [2 * var for var in
                self._new_vars(fast, ref, rng.randint(16, 24))]
        for lit in rng.sample(lits, 4):
            self._add(fast, ref, [lit ^ rng.randrange(2)])
        verdicts = []
        for _ in range(30):
            for _ in range(rng.randint(4, 12)):
                a, b = (lit ^ rng.randrange(2)
                        for lit in rng.sample(lits, 2))
                if rng.random() < 0.1:
                    b = a ^ rng.randrange(2)
                if rng.random() < 0.4:      # y <-> a & b
                    y = fast.add_and_definition(a, b)
                    assert 2 * ref.new_var() == y
                    for clause in ([y ^ 1, a], [y ^ 1, b],
                                   [y, a ^ 1, b ^ 1]):
                        ref.add_clause(clause)
                    assert fast.stats_snapshot() == ref.stats_snapshot()
                    assert fast.num_clauses() == ref.num_clauses()
                else:                       # y <-> a ^ b
                    y = 2 * self._new_vars(fast, ref, 1)[0]
                    for clause in ([y ^ 1, a, b], [y ^ 1, a ^ 1, b ^ 1],
                                   [y, a ^ 1, b], [y, a, b ^ 1]):
                        self._add(fast, ref, clause)
                lits.append(y)
            assumptions = [lit ^ rng.randrange(2)
                           for lit in rng.sample(lits, rng.randint(2, 5))]
            verdict = self._solve(fast, ref, assumptions)
            verdicts.append(verdict)
            if not verdict:
                self._add(fast, ref, [lit ^ 1 for lit in assumptions])
                continue
            if rng.random() < 0.3:
                continue
            model = fast.model()
            for _ in range(6):
                clause = [lit ^ rng.randrange(2)
                          for lit in rng.sample(lits, 3)]
                if not any(model[lit >> 1] ^ (lit & 1) for lit in clause):
                    clause[0] ^= 1
                self._add(fast, ref, clause)
        assert True in verdicts and False in verdicts
        assert fast.stats["conflicts"] > 0

    def test_restarting_search(self):
        """A random 3-SAT instance past the threshold: over a thousand
        conflicts, so the Luby schedule restarts several times."""
        rng = random.Random(1)
        fast, ref = Solver(), ReferenceSolver()
        num_vars = 120
        self._new_vars(fast, ref, num_vars)
        for _ in range(int(4.26 * num_vars)):
            self._add(fast, ref, self._clause(rng, num_vars))
        self._solve(fast, ref, [])
        assert fast.stats["restarts"] >= 3

    def test_learned_database_reduction(self):
        """Activation-literal rounds (the shared-session pattern): each
        round guards a fresh random 3-SAT instance over the same
        variables by a new activation literal and solves under it.  The
        learned clauses pile up past the reduction threshold, and the
        searches after the reduction must still agree."""
        rng = random.Random(2)
        fast, ref = Solver(), ReferenceSolver()
        num_vars = 100
        self._new_vars(fast, ref, num_vars)
        for _ in range(14):
            act = self._new_vars(fast, ref, 1)[0]
            for _ in range(int(4.6 * num_vars)):
                self._add(fast, ref,
                          [2 * act + 1] + self._clause(rng, num_vars))
            self._solve(fast, ref, [2 * act])
        snapshot = fast.stats_snapshot()
        assert snapshot["learned_db"] < snapshot["learned"]
