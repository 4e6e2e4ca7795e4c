"""CDCL SAT solver.

A from-scratch conflict-driven clause-learning solver in the MiniSat
lineage: two-literal watches, first-UIP learning with clause
minimisation, VSIDS variable activity, phase saving, Luby restarts and
learned-clause database reduction.  It backs the BMC and k-induction
engines and the counterexample trace extraction.

Literal encoding: variable ``v`` (0-based) has positive literal ``2 v``
and negative literal ``2 v + 1``; ``lit ^ 1`` negates.  The assignment
is kept per literal: ``_value[lit]`` is 1 (true), 0 (false) or
``UNASSIGNED``, and assigning or cancelling a variable writes both of
its literals, so the hot loops read a literal's value in one lookup.

The search is a fixed function of the call sequence, and the hot paths
are written for the interpreter: attributes are hoisted into locals, the
VSIDS heap's sift-up and pop are inlined where they are used, and watch
lists are compacted in place.  :meth:`Solver.add_and_definition` adds a
gate's three Tseitin clauses in one call and leaves the solver as the
plain calls would.  None of that changes a decision or a propagation;
``tests/sat_reference.py`` keeps the plain formulation and
``tests/test_sat.py`` checks that both take identical searches.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .budget import BudgetExceeded, ResourceBudget

UNASSIGNED = -1


class _Clause:
    """Clause with activity for database reduction."""

    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: List[int], learned: bool) -> None:
        self.lits = lits
        self.learned = learned
        self.activity = 0.0


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
        self._value: List[int] = []
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
        # per-variable mark of conflict analysis, all False between calls
        self._seen: List[bool] = []
        # VSIDS order: indexed max-heap of variables by activity
        self._heap: List[int] = []
        self._heap_pos: List[int] = []   # var -> heap index, -1 if absent
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
        self._value.append(UNASSIGNED)
        self._value.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(0)  # default polarity: assign false first
        self._seen.append(False)
        # activity 0.0 is the minimum, so the heap slot at the end is final
        self._heap_pos.append(len(self._heap))
        self._heap.append(index)
        return index

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially
        unsatisfiable.  Raises :class:`ValueError` for a literal that
        names no variable of this solver."""
        if not self._ok:
            return False
        if self._trail_lim:
            self._cancel_until(0)   # clause addition happens at the root
        val = self._value
        limit = self._num_vars << 1
        seen = set()
        out: List[int] = []
        for lit in lits:
            if not 0 <= lit < limit:
                raise ValueError(
                    f"literal {lit} names no variable of a "
                    f"{self._num_vars}-variable solver")
            if lit in seen:
                continue
            if (lit ^ 1) in seen:
                return True  # tautology
            value = val[lit]
            if value != UNASSIGNED:
                if value:
                    return True  # already satisfied at level 0
                continue         # falsified at level 0; drop literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            lit = out[0]
            var = lit >> 1
            val[lit] = 1
            val[lit ^ 1] = 0
            self._level[var] = 0
            self._reason[var] = None
            self._phase[var] = 1 ^ (lit & 1)
            self._trail.append(lit)
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        clause = _Clause(out, learned=False)
        self._clauses.append(clause)
        self._watches[out[0] ^ 1].append(clause)
        self._watches[out[1] ^ 1].append(clause)
        return True

    def add_and_definition(self, a: int, b: int) -> int:
        """Allocate a variable ``y`` defined as ``a & b`` (the Tseitin
        AND encoding); returns its positive literal.

        The solver is left exactly as ``y = new_var() << 1`` followed by
        ``add_clause([y ^ 1, a])``, ``add_clause([y ^ 1, b])`` and
        ``add_clause([y, a ^ 1, b ^ 1])`` would leave it: the same
        clauses in the same order, the same watch appends, and the same
        root-level simplification (a fanin true at the root satisfies
        its clause, a false one is dropped, a unit is assigned and
        propagated).  At the root, with the fanins on two distinct
        variables, the clauses are built here; otherwise it makes those
        four calls."""
        limit = self._num_vars << 1
        if (not self._ok or self._trail_lim or not 0 <= a < limit
                or not 0 <= b < limit or (a ^ b) < 2):   # one variable
            y = self.new_var() << 1
            self.add_clause([y ^ 1, a])
            self.add_clause([y ^ 1, b])
            self.add_clause([y, a ^ 1, b ^ 1])
            return y
        y = self.new_var() << 1
        val = self._value
        watches = self._watches
        value_a = val[a]
        value_b = val[b]
        if value_a == UNASSIGNED and value_b == UNASSIGNED:
            first = _Clause([y ^ 1, a], False)
            second = _Clause([y ^ 1, b], False)
            third = _Clause([y, a ^ 1, b ^ 1], False)
            self._clauses += (first, second, third)
            watches[y] += (first, second)
            watches[a ^ 1].append(first)
            watches[b ^ 1].append(second)
            watches[y ^ 1].append(third)
            watches[a].append(third)
            return y
        if value_a == 0:
            unit = y ^ 1                # y is false
        elif value_a == 1:
            if value_b != UNASSIGNED:   # y takes b's value
                unit = y ^ (value_b ^ 1)
            else:                       # y <-> b
                second = _Clause([y ^ 1, b], False)
                third = _Clause([y, b ^ 1], False)
                self._clauses += (second, third)
                watches[y].append(second)
                watches[b ^ 1].append(second)
                watches[y ^ 1].append(third)
                watches[b].append(third)
                return y
        else:
            first = _Clause([y ^ 1, a], False)
            self._clauses.append(first)
            watches[y].append(first)
            watches[a ^ 1].append(first)
            if value_b == 0:
                unit = y ^ 1
            else:                       # y <-> a
                third = _Clause([y, a ^ 1], False)
                self._clauses.append(third)
                watches[y ^ 1].append(third)
                watches[a].append(third)
                return y
        # a unit clause fixes y at the root, as add_clause does
        val[unit] = 1
        val[unit ^ 1] = 0
        self._phase[y >> 1] = 1 ^ (unit & 1)
        self._trail.append(unit)
        if self._propagate() is not None:
            self._ok = False
        return y

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[int] = ()) -> bool:
        """Solve under assumptions.  True = SAT, False = UNSAT.  Raises
        :class:`ValueError` for an assumption that names no variable of
        this solver."""
        if not self._ok:
            return False
        assumptions = list(assumptions)
        limit = self._num_vars << 1
        for lit in assumptions:
            if not 0 <= lit < limit:
                raise ValueError(
                    f"assumption {lit} names no variable of a "
                    f"{self._num_vars}-variable solver")
        self._cancel_until(0)
        stats = self.stats
        budget = self.budget
        trail = self._trail
        trail_lim = self._trail_lim
        val = self._value
        level = self._level
        reason = self._reason
        phase = self._phase
        watches = self._watches
        propagate = self._propagate
        restart_index = 0
        conflict_limit = self._luby(restart_index) * 100

        conflicts_here = 0
        while True:
            conflict = propagate()
            if conflict is not None:
                stats["conflicts"] += 1
                conflicts_here += 1
                if budget is not None:
                    budget.charge_conflicts()
                if not trail_lim:
                    self._ok = False
                    return False
                learned, backtrack = self._analyze(conflict)
                self._cancel_until(backtrack)
                # assert the learned clause's first literal at the
                # backtrack level, the clause itself as its reason
                first = learned[0]
                if len(learned) == 1:
                    why = None
                else:
                    why = _Clause(learned, learned=True)
                    why.activity = self._cla_inc
                    self._learned.append(why)
                    stats["learned"] += 1
                    watches[first ^ 1].append(why)
                    watches[learned[1] ^ 1].append(why)
                var = first >> 1
                val[first] = 1
                val[first ^ 1] = 0
                level[var] = len(trail_lim)
                reason[var] = why
                phase[var] = 1 ^ (first & 1)
                trail.append(first)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                continue

            if conflicts_here >= conflict_limit:
                stats["restarts"] += 1
                restart_index += 1
                conflict_limit = self._luby(restart_index) * 100
                conflicts_here = 0
                self._cancel_until(0)
                if len(self._learned) > 4000 + 8 * self._num_vars:
                    self._reduce_db()
                continue

            # place assumptions, one decision level each
            depth = len(trail_lim)
            if depth < len(assumptions):
                lit = assumptions[depth]
                value = val[lit]
                if value == UNASSIGNED:
                    trail_lim.append(len(trail))
                elif value:
                    trail_lim.append(len(trail))   # already true
                    continue
                else:
                    self._cancel_until(0)
                    return False
            else:
                lit = self._pick_branch()
                if lit is None:
                    return True  # full assignment
                stats["decisions"] += 1
                trail_lim.append(len(trail))
            var = lit >> 1
            val[lit] = 1
            val[lit ^ 1] = 0
            level[var] = depth + 1
            reason[var] = None
            phase[var] = 1 ^ (lit & 1)
            trail.append(lit)

    def model(self) -> List[int]:
        """Values (0/1) per variable after a SAT answer."""
        return [1 if v == 1 else 0 for v in self._value[::2]]

    def value_of(self, lit: int) -> int:
        """Model value of a literal after a SAT answer."""
        value = self._value[lit]
        if value == UNASSIGNED:
            return 0
        return value

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[_Clause]:
        # Each watch list is compacted in place: ``kept`` is the write
        # index, and ``kept + moved`` clauses have been read.  A clause
        # only moves to the watches of a literal that is not false, never
        # to this list, so the list does not grow while it is iterated.
        trail = self._trail
        watches = self._watches
        val = self._value
        level = self._level
        reason = self._reason
        phase = self._phase
        depth = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = lit ^ 1
            watch_list = watches[lit]
            kept = moved = 0
            for clause in watch_list:
                lits = clause.lits
                # make sure the falsified watch is lits[1]
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                if val[first] == 1:
                    watch_list[kept] = clause
                    kept += 1
                    continue
                # search a new watch; a binary clause has none
                width = len(lits)
                if width > 2:
                    for k in range(2, width):
                        if val[lits[k]] != 0:
                            break
                    else:
                        k = 0           # none: unit or conflict
                    if k:
                        other = lits[k]
                        lits[1] = other
                        lits[k] = false_lit
                        watches[other ^ 1].append(clause)
                        moved += 1
                        continue
                watch_list[kept] = clause
                kept += 1
                if val[first] != UNASSIGNED:
                    # first is false: conflict — keep the remaining
                    # watches and report
                    del watch_list[kept:kept + moved]
                    self._qhead = len(trail)
                    self.stats["propagations"] += qhead - start
                    return clause
                var = first >> 1
                val[first] = 1
                val[first ^ 1] = 0
                level[var] = depth
                reason[var] = clause
                phase[var] = 1 ^ (first & 1)
                trail.append(first)
            del watch_list[kept:]
        self._qhead = qhead
        self.stats["propagations"] += qhead - start
        return None

    def _analyze(self, conflict: _Clause) -> "tuple[List[int], int]":
        """First-UIP learning: the learned clause (asserting literal
        first, a literal of the backtrack level second) and the
        backtrack level."""
        seen = self._seen
        level = self._level
        trail = self._trail
        activity = self._activity
        heap = self._heap
        heap_pos = self._heap_pos
        var_inc = self._var_inc
        learned: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        clause = conflict
        lits = clause.lits
        start = 0
        trail_index = len(trail) - 1
        current_level = len(self._trail_lim)

        while True:
            if clause.learned:
                clause.activity += self._cla_inc
                if clause.activity > 1e20:
                    for c in self._learned:
                        c.activity *= 1e-20
                    self._cla_inc *= 1e-20
            for reason_lit in lits[start:]:
                var = reason_lit >> 1
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                # VSIDS bump, then sift the variable up the heap
                score = activity[var] + var_inc
                activity[var] = score
                if score > 1e100:
                    # rescaling preserves relative order, so the heap
                    # stays valid
                    for v in range(self._num_vars):
                        activity[v] *= 1e-100
                    self._var_inc *= 1e-100
                    var_inc = self._var_inc
                    score = activity[var]
                index = heap_pos[var]
                if index >= 0:
                    while index > 0:
                        parent = (index - 1) >> 1
                        above = heap[parent]
                        if activity[above] >= score:
                            break
                        heap[index] = above
                        heap_pos[above] = index
                        index = parent
                    heap[index] = var
                    heap_pos[var] = index
                if level[var] >= current_level:
                    counter += 1
                else:
                    learned.append(reason_lit)
            # pick next literal from trail
            while not seen[trail[trail_index] >> 1]:
                trail_index -= 1
            lit = trail[trail_index]
            trail_index -= 1
            var = lit >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                learned[0] = lit ^ 1
                break
            clause = self._reason[var]
            lits = clause.lits
            if lits[0] != lit:
                # normalise: reason clause's first literal is the implied one
                idx = lits.index(lit)
                lits[0], lits[idx] = lits[idx], lits[0]
            start = 1

        # clause minimisation: drop a literal whose reason consists only
        # of other learned literals and level-0 assignments.  The learned
        # variables are the ones still ``seen``: the current level's marks
        # are cleared by now, and a reason holds no literal of a higher
        # level than the one it implies, so never the asserting literal.
        reason = self._reason
        minimized = [learned[0]]
        for candidate in learned[1:]:
            why = reason[candidate >> 1]
            if why is not None:
                for other in why.lits:
                    other_var = other >> 1
                    if not seen[other_var] and level[other_var] != 0:
                        break
                else:
                    continue    # redundant
            minimized.append(candidate)
        for candidate in learned[1:]:
            seen[candidate >> 1] = False   # clear for the next call

        if len(minimized) == 1:
            return minimized, 0
        # backtrack to the highest level among the rest; its first
        # literal moves into watch position 1
        best = 1
        backtrack = level[minimized[1] >> 1]
        for k in range(2, len(minimized)):
            here = level[minimized[k] >> 1]
            if here > backtrack:
                backtrack = here
                best = k
        minimized[1], minimized[best] = minimized[best], minimized[1]
        return minimized, backtrack

    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        val = self._value
        reason = self._reason
        activity = self._activity
        heap = self._heap
        heap_pos = self._heap_pos
        boundary = trail_lim[level]
        for lit in reversed(trail[boundary:]):
            var = lit >> 1
            val[lit] = UNASSIGNED
            val[lit ^ 1] = UNASSIGNED
            reason[var] = None
            if heap_pos[var] < 0:
                # back into the VSIDS heap: append, then sift up
                index = len(heap)
                heap.append(var)
                score = activity[var]
                while index > 0:
                    parent = (index - 1) >> 1
                    above = heap[parent]
                    if activity[above] >= score:
                        break
                    heap[index] = above
                    heap_pos[above] = index
                    index = parent
                heap[index] = var
                heap_pos[var] = index
        del trail[boundary:]
        del trail_lim[level:]
        self._qhead = len(trail)

    def _pick_branch(self) -> Optional[int]:
        """Pop the most active unassigned variable off the VSIDS heap;
        its literal takes the saved phase."""
        heap = self._heap
        heap_pos = self._heap_pos
        activity = self._activity
        val = self._value
        while heap:
            top = heap[0]
            last = heap.pop()
            heap_pos[top] = -1
            if heap:
                # sift ``last`` down from the root
                size = len(heap)
                score = activity[last]
                index = 0
                while True:
                    left = 2 * index + 1
                    if left >= size:
                        break
                    best = left
                    right = left + 1
                    if (right < size
                            and activity[heap[right]] > activity[heap[left]]):
                        best = right
                    below = heap[best]
                    if activity[below] <= score:
                        break
                    heap[index] = below
                    heap_pos[below] = index
                    index = best
                heap[index] = last
                heap_pos[last] = index
            if val[top << 1] == UNASSIGNED:
                return (top << 1) | (1 ^ self._phase[top])
        return None

    def _reduce_db(self) -> None:
        """Drop the less active half of the learned clauses (those not
        currently acting as reasons)."""
        self._learned.sort(key=lambda c: c.activity)
        reason = self._reason
        locked = {id(reason[lit >> 1]) for lit in self._trail
                  if reason[lit >> 1] is not None}
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
        for watch_lit in (clause.lits[0] ^ 1, clause.lits[1] ^ 1):
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


def stats_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Per-check counters of a shared solver: the monotonic counters are
    differenced between two :meth:`Solver.stats_snapshot` calls, while
    ``learned_db`` (a gauge) keeps its current value."""
    delta = {key: after[key] - before[key]
             for key in after if key != "learned_db"}
    delta["learned_db"] = after["learned_db"]
    return delta
