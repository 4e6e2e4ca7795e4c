"""Reduced Ordered Binary Decision Diagrams (ROBDDs).

A from-scratch BDD package in the style of the in-house engine the paper
credits (Jain & Stangier's POBDD work builds on exactly this machinery):
hash-consed nodes, memoised ``ite``/``apply``, existential
quantification, the combined AndExists relational product, and an
order-preserving variable rename for current/next-state swapping.

Node ids: ``0`` is the FALSE terminal, ``1`` the TRUE terminal.  The
manager charges every created node against an optional
:class:`~repro.formal.budget.ResourceBudget`, giving deterministic
"time-outs" for the divide-and-conquer experiment.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .budget import ResourceBudget

FALSE = 0
TRUE = 1

_TERMINAL_VAR = 1 << 30  # sorts after every real variable


class Bdd:
    """A BDD manager with a fixed (construction-order) variable order."""

    def __init__(self, budget: Optional[ResourceBudget] = None) -> None:
        self.budget = budget
        self._var: List[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._lo: List[int] = [0, 1]
        self._hi: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_memo: Dict[Tuple[int, int, int], int] = {}
        self._exists_memo: Dict[Tuple[int, FrozenSet[int]], int] = {}
        self._andex_memo: Dict[Tuple[int, int, FrozenSet[int]], int] = {}
        self._rename_memo: Dict[Tuple[int, int], int] = {}
        self._rename_maps: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------
    def mk(self, var: int, lo: int, hi: int) -> int:
        """Hash-consed node constructor (the only node creator)."""
        if lo == hi:
            return lo
        key = (var, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found
        node = len(self._var)
        self._var.append(var)
        self._lo.append(lo)
        self._hi.append(hi)
        self._unique[key] = node
        if self.budget is not None:
            self.budget.charge_nodes()
        return node

    def var_node(self, var: int) -> int:
        """The BDD of a single variable."""
        return self.mk(var, FALSE, TRUE)

    def var_of(self, node: int) -> int:
        return self._var[node]

    def cofactors(self, node: int, var: int) -> Tuple[int, int]:
        """(low, high) cofactors of ``node`` with respect to ``var``."""
        if self._var[node] == var:
            return self._lo[node], self._hi[node]
        return node, node

    def num_nodes(self) -> int:
        """Size of the node table (terminals included).  Nodes are
        never freed, so this is also the count of nodes ever created
        by this manager, plus the two terminals."""
        return len(self._var)

    # ------------------------------------------------------------------
    # boolean operations
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: the universal connective every boolean
        operation below reduces to (memoised)."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        found = self._ite_memo.get(key)
        if found is not None:
            return found
        var = min(self._var[f], self._var[g], self._var[h])
        f_lo, f_hi = self.cofactors(f, var)
        g_lo, g_hi = self.cofactors(g, var)
        h_lo, h_hi = self.cofactors(h, var)
        result = self.mk(
            var,
            self.ite(f_lo, g_lo, h_lo),
            self.ite(f_hi, g_hi, h_hi),
        )
        self._ite_memo[key] = result
        return result

    def not_(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def xor_(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def xnor_(self, f: int, g: int) -> int:
        return self.ite(f, g, self.not_(g))

    def implies(self, f: int, g: int) -> int:
        return self.ite(f, g, TRUE)

    def and_many(self, nodes: Iterable[int]) -> int:
        acc = TRUE
        for node in nodes:
            acc = self.and_(acc, node)
            if acc == FALSE:
                return FALSE
        return acc

    def or_many(self, nodes: Iterable[int]) -> int:
        acc = FALSE
        for node in nodes:
            acc = self.or_(acc, node)
            if acc == TRUE:
                return TRUE
        return acc

    def cube(self, assignment: Dict[int, int]) -> int:
        """Conjunction of literals: ``{var: bit}``."""
        node = TRUE
        for var in sorted(assignment, reverse=True):
            bit = assignment[var]
            node = self.mk(var, FALSE, node) if bit else self.mk(var, node, FALSE)
        return node

    # ------------------------------------------------------------------
    # quantification
    # ------------------------------------------------------------------
    def exists(self, f: int, variables: FrozenSet[int]) -> int:
        """Existentially quantify ``variables`` out of ``f``."""
        if f in (FALSE, TRUE) or not variables:
            return f
        key = (f, variables)
        found = self._exists_memo.get(key)
        if found is not None:
            return found
        var = self._var[f]
        lo, hi = self._lo[f], self._hi[f]
        if var in variables:
            result = self.or_(
                self.exists(lo, variables), self.exists(hi, variables)
            )
        else:
            result = self.mk(
                var, self.exists(lo, variables), self.exists(hi, variables)
            )
        self._exists_memo[key] = result
        return result

    def and_exists(self, f: int, g: int, variables: FrozenSet[int]) -> int:
        """Relational product: ``exists variables . f & g`` without
        building the full conjunction first."""
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE:
            return self.exists(g, variables)
        if g == TRUE:
            return self.exists(f, variables)
        if f == g:
            return self.exists(f, variables)
        if f > g:
            f, g = g, f
        key = (f, g, variables)
        found = self._andex_memo.get(key)
        if found is not None:
            return found
        var = min(self._var[f], self._var[g])
        f_lo, f_hi = self.cofactors(f, var)
        g_lo, g_hi = self.cofactors(g, var)
        if var in variables:
            lo = self.and_exists(f_lo, g_lo, variables)
            if lo == TRUE:
                result = TRUE
            else:
                result = self.or_(lo, self.and_exists(f_hi, g_hi, variables))
        else:
            result = self.mk(
                var,
                self.and_exists(f_lo, g_lo, variables),
                self.and_exists(f_hi, g_hi, variables),
            )
        self._andex_memo[key] = result
        return result

    # ------------------------------------------------------------------
    # renaming (current <-> next state)
    # ------------------------------------------------------------------
    def rename(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variables per ``mapping``.

        The mapping must be order-preserving (monotonic on the variable
        order), which holds for the interleaved current/next convention
        used by :mod:`repro.formal.reachability`.
        """
        items = sorted(mapping.items())
        targets = [target for _, target in items]
        if targets != sorted(targets):
            raise ValueError("rename mapping must preserve the variable order")
        map_key = id(mapping)
        self._rename_maps[map_key] = mapping
        return self._rename_rec(f, mapping, map_key)

    def _rename_rec(self, f: int, mapping: Dict[int, int], map_key: int) -> int:
        if f in (FALSE, TRUE):
            return f
        key = (f, map_key)
        found = self._rename_memo.get(key)
        if found is not None:
            return found
        var = self._var[f]
        new_var = mapping.get(var, var)
        result = self.mk(
            new_var,
            self._rename_rec(self._lo[f], mapping, map_key),
            self._rename_rec(self._hi[f], mapping, map_key),
        )
        self._rename_memo[key] = result
        return result

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def support(self, f: int) -> FrozenSet[int]:
        """Variables a function actually depends on."""
        seen = set()
        variables = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in (FALSE, TRUE) or node in seen:
                continue
            seen.add(node)
            variables.add(self._var[node])
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return frozenset(variables)

    def size(self, f: int) -> int:
        """Number of nodes in the graph rooted at ``f``."""
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in (FALSE, TRUE) or node in seen:
                continue
            seen.add(node)
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return len(seen) + 2

    def any_sat(self, f: int) -> Dict[int, int]:
        """One satisfying assignment (over the support on the 1-path)."""
        if f == FALSE:
            raise ValueError("FALSE has no satisfying assignment")
        assignment: Dict[int, int] = {}
        node = f
        while node != TRUE:
            if self._hi[node] != FALSE:
                assignment[self._var[node]] = 1
                node = self._hi[node]
            else:
                assignment[self._var[node]] = 0
                node = self._lo[node]
        return assignment

    def sat_count(self, f: int, num_vars: int) -> int:
        """Number of satisfying assignments over ``num_vars`` variables
        (variables are assumed to be 0..num_vars-1)."""
        memo: Dict[int, int] = {}

        def count(node: int) -> Tuple[int, int]:
            # returns (count below this node, var level of node)
            if node == FALSE:
                return 0, num_vars
            if node == TRUE:
                return 1, num_vars
            if node in memo:
                return memo[node], self._var[node]
            var = self._var[node]
            lo_count, lo_level = count(self._lo[node])
            hi_count, hi_level = count(self._hi[node])
            total = (lo_count << (lo_level - var - 1)) + \
                    (hi_count << (hi_level - var - 1))
            memo[node] = total
            return total, var

        total, level = count(f)
        return total << level

    def eval(self, f: int, assignment: Dict[int, int]) -> int:
        """Evaluate under a complete assignment of the support."""
        node = f
        while node not in (FALSE, TRUE):
            var = self._var[node]
            node = self._hi[node] if assignment.get(var, 0) else self._lo[node]
        return node
