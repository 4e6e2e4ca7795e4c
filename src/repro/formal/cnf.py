"""Tseitin CNF encoding of AIG cones into a CDCL solver.

One :class:`CnfContext` owns the mapping from AIG literals to solver
literals for one combinational copy (one time-frame of an unrolling, or
a single combinational check).  AND nodes get the standard three-clause
Tseitin encoding, one :meth:`Solver.add_and_definition` call each.
"""

from __future__ import annotations

from typing import Dict

from ..rtl.netlist import Aig
from .sat import Solver


class CnfContext:
    """Maps one combinational copy of an AIG into a solver.

    Leaves (inputs and latches) are allocated fresh solver variables on
    first use unless the caller pre-binds them via :meth:`bind`.

    The encoded node set is closed under fanin: a cone is encoded whole,
    and a bound leaf has no fanin.  So encoding a new cone only has to
    walk down to the nodes already encoded, and the walk meets the new
    nodes in the same order as a walk over the whole cone would.
    """

    def __init__(self, aig: Aig, solver: Solver) -> None:
        self.aig = aig
        self.solver = solver
        var = solver.new_var()
        solver.add_clause([var << 1])
        # AIG node index -> solver literal of its positive AIG literal;
        # the constant node 0 (AIG literal FALSE) is the negated true var
        self._map: Dict[int, int] = {0: (var << 1) ^ 1}

    def bind(self, aig_lit: int, solver_lit: int) -> None:
        """Pre-bind a leaf (input/latch) node to an existing solver
        literal; ``aig_lit`` must be positive."""
        assert aig_lit & 1 == 0, "bind positive literals only"
        # a bound AND node would break the fanin closure _encode_cone
        # relies on
        assert self.aig.kind(aig_lit) in ("input", "latch"), \
            "bind leaves only"
        self._map[aig_lit >> 1] = solver_lit

    # ------------------------------------------------------------------
    def lit(self, aig_lit: int) -> int:
        """Solver literal computing ``aig_lit``; encodes the cone on
        demand."""
        solver_lit = self._map.get(aig_lit >> 1)
        if solver_lit is None:
            self._encode_cone(aig_lit)
            solver_lit = self._map[aig_lit >> 1]
        return solver_lit ^ (aig_lit & 1)

    def _encode_cone(self, root: int) -> None:
        # The walk of Aig.cone_nodes, stopping at encoded nodes: a leaf
        # is encoded when the walk reaches it, an AND node when its
        # marker ``~index`` comes off the stack, after its fanins.  A
        # DAG walk cannot reach a node again before its marker, so the
        # map alone marks what is done.
        mapping = self._map
        fanins = self.aig.fanins()
        solver = self.solver
        new_var = solver.new_var
        add_and = solver.add_and_definition
        stack = [root >> 1]
        while stack:
            index = stack.pop()
            if index < 0:
                index = ~index
                a, b = fanins[index]
                mapping[index] = add_and(mapping[a >> 1] ^ (a & 1),
                                         mapping[b >> 1] ^ (b & 1))
            elif index not in mapping:
                pair = fanins[index]
                if pair is None:                # input or latch
                    mapping[index] = new_var() << 1
                    continue
                stack.append(~index)
                a, b = pair[0] >> 1, pair[1] >> 1
                if a not in mapping:
                    stack.append(a)
                if b not in mapping:
                    stack.append(b)

    def value_of(self, aig_lit: int) -> int:
        """Model value of an AIG literal after SAT; leaves that never
        entered the encoding default to 0."""
        solver_lit = self._map.get(aig_lit >> 1)
        if solver_lit is None:
            return aig_lit & 1  # free leaf: any value works; pick 0
        return self.solver.value_of(solver_lit) ^ (aig_lit & 1)
