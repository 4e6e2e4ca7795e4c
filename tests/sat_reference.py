"""Reference CDCL solver for the differential tests (test-only).

This is the earlier formulation of :class:`repro.formal.sat.Solver`:
helper calls per literal in clause addition, conflict analysis and
backtracking, a fresh ``seen`` array per conflict, the VSIDS heap
behind its own methods.  ``tests/test_sat.py`` drives both solvers
through the same call sequence and requires the same results, models
and search counters, so the fast solver must take exactly this search.
Do not optimise this file.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.formal.budget import ResourceBudget

UNASSIGNED = -1


def lit_var(lit: int) -> int:
    return lit >> 1

def lit_sign(lit: int) -> int:
    """1 for a negated literal, 0 for positive."""
    return lit & 1


def lit_neg(lit: int) -> int:
    return lit ^ 1


class _Clause:
    """Clause with activity for database reduction."""

    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: List[int], learned: bool) -> None:
        self.lits = lits
        self.learned = learned
        self.activity = 0.0


class _VarOrder:
    """Indexed max-heap over variable activity (VSIDS order)."""

    __slots__ = ("activity", "heap", "position")

    def __init__(self, activity: List[float]) -> None:
        self.activity = activity
        self.heap: List[int] = []
        self.position: List[int] = []

    def insert(self, var: int) -> None:
        while len(self.position) <= var:
            self.position.append(-1)
        if self.position[var] >= 0:
            return
        self.position[var] = len(self.heap)
        self.heap.append(var)
        self._sift_up(self.position[var])

    def bump(self, var: int) -> None:
        if var < len(self.position) and self.position[var] >= 0:
            self._sift_up(self.position[var])

    def pop(self) -> Optional[int]:
        if not self.heap:
            return None
        top = self.heap[0]
        last = self.heap.pop()
        self.position[top] = -1
        if self.heap:
            self.heap[0] = last
            self.position[last] = 0
            self._sift_down(0)
        return top

    def _sift_up(self, index: int) -> None:
        heap, pos, act = self.heap, self.position, self.activity
        var = heap[index]
        score = act[var]
        while index > 0:
            parent = (index - 1) >> 1
            if act[heap[parent]] >= score:
                break
            heap[index] = heap[parent]
            pos[heap[index]] = index
            index = parent
        heap[index] = var
        pos[var] = index

    def _sift_down(self, index: int) -> None:
        heap, pos, act = self.heap, self.position, self.activity
        size = len(heap)
        var = heap[index]
        score = act[var]
        while True:
            left = 2 * index + 1
            if left >= size:
                break
            best = left
            right = left + 1
            if right < size and act[heap[right]] > act[heap[left]]:
                best = right
            if act[heap[best]] <= score:
                break
            heap[index] = heap[best]
            pos[heap[index]] = index
            index = best
        heap[index] = var
        pos[var] = index


class Solver:
    """CDCL SAT solver with incremental assumptions.

    Usage::

        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([2 * a, 2 * b])        # a | b
        assert s.solve() is True
        assert s.solve([2 * a + 1, 2 * b + 1]) is False   # under ~a, ~b

    :meth:`solve` returns ``True`` (SAT), ``False`` (UNSAT), or raises
    :class:`BudgetExceeded` when the conflict budget runs out.
    """

    def __init__(self, budget: Optional[ResourceBudget] = None) -> None:
        self.budget = budget
        self._num_vars = 0
        self._clauses: List[_Clause] = []
        self._learned: List[_Clause] = []
        self._watches: List[List[_Clause]] = []
        self._assign: List[int] = []
        self._level: List[int] = []
        self._reason: List[Optional[_Clause]] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: List[float] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._phase: List[int] = []
        self._order = _VarOrder(self._activity)
        self._ok = True
        self.stats: Dict[str, int] = {
            "conflicts": 0, "decisions": 0, "propagations": 0,
            "restarts": 0, "learned": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle for long-lived (workspace-shared) solvers
    # ------------------------------------------------------------------
    def rearm(self, budget: Optional[ResourceBudget] = None) -> None:
        """Swap in the next check's budget.  A solver retained across
        checks (see :mod:`repro.formal.satspace`) keeps its clauses,
        learned database, and activities — only the budget is
        per-check.  A :class:`BudgetExceeded` raised mid-solve leaves
        the solver consistent (the next ``solve`` cancels to the root
        level first), so re-arming is all a new lease needs."""
        self.budget = budget

    def stats_snapshot(self) -> Dict[str, int]:
        """The monotonic solve counters plus the current learned-clause
        database size — the uniform telemetry block every SAT-family
        engine reports."""
        return {**self.stats, "learned_db": len(self._learned)}

    def num_clauses(self) -> int:
        """Problem plus learned clauses currently attached."""
        return len(self._clauses) + len(self._learned)

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable; returns its 0-based index."""
        index = self._num_vars
        self._num_vars += 1
        self._watches.append([])
        self._watches.append([])
        self._assign.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(0)  # default polarity: assign false first
        self._order.insert(index)
        return index

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially
        unsatisfiable."""
        if not self._ok:
            return False
        self._cancel_until(0)   # clause addition happens at the root level
        seen = set()
        out: List[int] = []
        for lit in lits:
            if lit_var(lit) >= self._num_vars:
                raise ValueError(f"literal {lit} references unknown variable")
            if lit in seen:
                continue
            if lit_neg(lit) in seen:
                return True  # tautology
            value = self._value(lit)
            if value == 1:
                return True  # already satisfied at level 0
            if value == 0:
                continue     # falsified at level 0; drop literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        clause = _Clause(out, learned=False)
        self._clauses.append(clause)
        self._attach(clause)
        return True

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[int] = ()) -> bool:
        """Solve under assumptions.  True = SAT, False = UNSAT."""
        if not self._ok:
            return False
        self._cancel_until(0)
        assumptions = list(assumptions)
        restart_index = 0
        conflict_limit = self._luby(restart_index) * 100

        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats["conflicts"] += 1
                conflicts_here += 1
                if self.budget is not None:
                    self.budget.charge_conflicts()
                if self._decision_level() == 0:
                    self._ok = False
                    return False
                learned, backtrack = self._analyze(conflict)
                self._cancel_until(backtrack)
                self._record_learned(learned)
                self._decay_activities()
                continue

            if conflicts_here >= conflict_limit:
                self.stats["restarts"] += 1
                restart_index += 1
                conflict_limit = self._luby(restart_index) * 100
                conflicts_here = 0
                self._cancel_until(0)
                if len(self._learned) > 4000 + 8 * self._num_vars:
                    self._reduce_db()
                continue

            # place assumptions, one decision level each
            if self._decision_level() < len(assumptions):
                lit = assumptions[self._decision_level()]
                value = self._value(lit)
                if value == 1:
                    self._new_decision_level()
                    continue
                if value == 0:
                    self._cancel_until(0)
                    return False
                self._new_decision_level()
                self._enqueue(lit, None)
                continue

            decision = self._pick_branch()
            if decision is None:
                return True  # full assignment
            self.stats["decisions"] += 1
            self._new_decision_level()
            self._enqueue(decision, None)

    def model(self) -> List[int]:
        """Values (0/1) per variable after a SAT answer."""
        return [1 if v == 1 else 0 for v in self._assign]

    def value_of(self, lit: int) -> int:
        """Model value of a literal after a SAT answer."""
        value = self._assign[lit_var(lit)]
        if value == UNASSIGNED:
            return 0
        return value ^ lit_sign(lit)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> int:
        assigned = self._assign[lit_var(lit)]
        if assigned == UNASSIGNED:
            return UNASSIGNED
        return assigned ^ lit_sign(lit)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        value = self._value(lit)
        if value != UNASSIGNED:
            return value == 1
        var = lit_var(lit)
        self._assign[var] = 1 ^ lit_sign(lit)
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._phase[var] = self._assign[var]
        self._trail.append(lit)
        return True

    def _attach(self, clause: _Clause) -> None:
        self._watches[lit_neg(clause.lits[0])].append(clause)
        self._watches[lit_neg(clause.lits[1])].append(clause)

    def _propagate(self) -> Optional[_Clause]:
        # The hot loop: attributes are hoisted into locals and
        # ``_value``/``_enqueue`` are inlined.  ``assign ^ sign`` is -1
        # or -2 for an unassigned variable, never 0 or 1, so it stands
        # in for ``_value`` in the comparisons below.  Watch order, and
        # with it the whole search, is unchanged.
        trail = self._trail
        watches = self._watches
        assign = self._assign
        level = self._level
        reason = self._reason
        phase = self._phase
        depth = len(self._trail_lim)
        qhead = self._qhead
        propagated = 0
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            propagated += 1
            false_lit = lit ^ 1
            watch_list = watches[lit]
            kept: List[_Clause] = []
            index = 0
            while index < len(watch_list):
                clause = watch_list[index]
                index += 1
                lits = clause.lits
                # make sure the falsified watch is lits[1]
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if assign[first >> 1] ^ (first & 1) == 1:
                    kept.append(clause)
                    continue
                # search a new watch
                for k in range(2, len(lits)):
                    other = lits[k]
                    if assign[other >> 1] ^ (other & 1) != 0:
                        lits[1], lits[k] = other, lits[1]
                        watches[other ^ 1].append(clause)
                        break
                else:
                    kept.append(clause)
                    var = first >> 1
                    if assign[var] != UNASSIGNED:
                        # first is false: conflict — keep the remaining
                        # watches and report
                        kept.extend(watch_list[index:])
                        watch_list[:] = kept
                        self._qhead = len(trail)
                        self.stats["propagations"] += propagated
                        return clause
                    value = 1 ^ (first & 1)
                    assign[var] = value
                    level[var] = depth
                    reason[var] = clause
                    phase[var] = value
                    trail.append(first)
            watch_list[:] = kept
        self._qhead = qhead
        self.stats["propagations"] += propagated
        return None

    def _analyze(self, conflict: _Clause) -> "tuple[List[int], int]":
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * self._num_vars
        counter = 0
        lit = None
        clause = conflict
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()

        while True:
            self._bump_clause(clause)
            start = 0 if lit is None else 1
            for reason_lit in clause.lits[start:]:
                var = lit_var(reason_lit)
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump_var(var)
                if self._level[var] >= current_level:
                    counter += 1
                else:
                    learned.append(reason_lit)
            # pick next literal from trail
            while not seen[lit_var(self._trail[trail_index])]:
                trail_index -= 1
            lit = self._trail[trail_index]
            trail_index -= 1
            var = lit_var(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                learned[0] = lit_neg(lit)
                break
            clause = self._reason[var]
            assert clause is not None
            if clause.lits[0] != lit:
                # normalise: reason clause's first literal is the implied one
                idx = clause.lits.index(lit)
                clause.lits[0], clause.lits[idx] = clause.lits[idx], clause.lits[0]

        # clause minimisation: drop literals implied by the rest
        minimized = [learned[0]]
        for candidate in learned[1:]:
            if not self._redundant(candidate, seen, learned):
                minimized.append(candidate)

        if len(minimized) == 1:
            backtrack = 0
        else:
            # second-highest decision level
            levels = sorted(
                (self._level[lit_var(l)] for l in minimized[1:]), reverse=True
            )
            backtrack = levels[0]
            # move a literal of the backtrack level into watch position 1
            for k in range(1, len(minimized)):
                if self._level[lit_var(minimized[k])] == backtrack:
                    minimized[1], minimized[k] = minimized[k], minimized[1]
                    break
        return minimized, backtrack

    def _redundant(self, lit: int, seen: List[bool],
                   learned: List[int]) -> bool:
        """Cheap non-recursive redundancy check: a literal is dropped if
        its reason clause consists only of other learned literals or
        level-0 assignments."""
        reason = self._reason[lit_var(lit)]
        if reason is None:
            return False
        learned_vars = {lit_var(l) for l in learned}
        for other in reason.lits:
            var = lit_var(other)
            if var == lit_var(lit):
                continue
            if self._level[var] != 0 and var not in learned_vars:
                return False
        return True

    def _record_learned(self, lits: List[int]) -> None:
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return
        clause = _Clause(lits, learned=True)
        clause.activity = self._cla_inc
        self._learned.append(clause)
        self.stats["learned"] += 1
        self._attach(clause)
        self._enqueue(lits[0], clause)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        boundary = self._trail_lim[level]
        for lit in reversed(self._trail[boundary:]):
            var = lit_var(lit)
            self._assign[var] = UNASSIGNED
            self._reason[var] = None
            self._order.insert(var)
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _pick_branch(self) -> Optional[int]:
        while True:
            var = self._order.pop()
            if var is None:
                return None
            if self._assign[var] == UNASSIGNED:
                # phase saving
                return (var << 1) | (1 ^ self._phase[var])

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            # rescaling preserves relative order, so the heap stays valid
            for v in range(self._num_vars):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        self._order.bump(var)

    def _bump_clause(self, clause: _Clause) -> None:
        if not clause.learned:
            return
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay

    def _reduce_db(self) -> None:
        """Drop the less active half of the learned clauses (those not
        currently acting as reasons)."""
        self._learned.sort(key=lambda c: c.activity)
        locked = {id(self._reason[lit_var(lit)]) for lit in self._trail
                  if self._reason[lit_var(lit)] is not None}
        keep: List[_Clause] = []
        drop: List[_Clause] = []
        half = len(self._learned) // 2
        for index, clause in enumerate(self._learned):
            if index < half and id(clause) not in locked and len(clause.lits) > 2:
                drop.append(clause)
            else:
                keep.append(clause)
        for clause in drop:
            self._detach(clause)
        self._learned = keep

    def _detach(self, clause: _Clause) -> None:
        for watch_lit in (lit_neg(clause.lits[0]), lit_neg(clause.lits[1])):
            watchers = self._watches[watch_lit]
            for index, watched in enumerate(watchers):
                if watched is clause:
                    watchers[index] = watchers[-1]
                    watchers.pop()
                    break

    @staticmethod
    def _luby(index: int) -> int:
        """Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        (MiniSat's iterative formulation)."""
        size, sequence = 1, 0
        while size < index + 1:
            sequence += 1
            size = 2 * size + 1
        while size - 1 != index:
            size = (size - 1) // 2
            sequence -= 1
            index %= size
        return 1 << sequence

