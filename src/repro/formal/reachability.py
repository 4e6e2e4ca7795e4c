"""BDD-based unbounded model checking: forward, backward and combined
reachability over a partitioned transition relation.

This reproduces the role of the paper's in-house engine: "a powerful
solver for properties with UMC ... as well as combined forward and
backward traversal for OBDD-based invariant checking".

Variable order: latch ``i`` gets current-state variable ``2 i`` and
next-state variable ``2 i + 1`` (interleaved, so renaming between the
two is order-preserving); primary inputs follow after all state
variables.  The transition relation is kept *partitioned* — one
conjunct ``next_i <-> f_i(s, x)`` per latch — and images are computed
with early quantification over a static schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..rtl.netlist import Aig
from ..rtl.netlist import FALSE as AIG_FALSE
from ..rtl.netlist import TRUE as AIG_TRUE
from .bdd import FALSE, TRUE, Bdd
from .budget import ResourceBudget
from .transition import TransitionSystem


class SymbolicModel:
    """BDD encoding of a transition system, on a fresh manager charged
    against ``budget``."""

    def __init__(self, ts: TransitionSystem,
                 budget: Optional[ResourceBudget] = None,
                 cluster_limit: int = 1) -> None:
        self.ts = ts
        self.bdd = Bdd(budget)
        num_latches = len(ts.latches)
        self.curr_vars: Dict[int, int] = {}   # latch lit -> bdd var
        self.next_vars: Dict[int, int] = {}
        for index, latch in enumerate(ts.latches):
            self.curr_vars[latch] = 2 * index
            self.next_vars[latch] = 2 * index + 1
        self.input_vars: Dict[int, int] = {
            lit: 2 * num_latches + j for j, lit in enumerate(ts.inputs)
        }
        self._node_cache: Dict[int, int] = {}
        self.constraint = self._build(ts.constraint)
        self.bad = self._build(ts.bad)
        self.partitions: List[Tuple[int, int]] = []  # (next var, T_i bdd)
        for latch in ts.latches:
            f_next = self._build(ts.next_fn[latch])
            relation = self.bdd.xnor_(
                self.bdd.var_node(self.next_vars[latch]), f_next
            )
            self.partitions.append((self.next_vars[latch], relation))
        if cluster_limit > 1:
            self._cluster(cluster_limit)
        self.init = self.bdd.cube({
            self.curr_vars[latch]: ts.init[latch] for latch in ts.latches
        })
        self._curr_set = frozenset(self.curr_vars.values())
        self._input_set = frozenset(self.input_vars.values())
        self._next_set = frozenset(self.next_vars.values())
        self._fwd_schedule = self._quantify_schedule(forward=True)
        self._bwd_schedule = self._quantify_schedule(forward=False)
        self._curr_to_next = {
            self.curr_vars[l]: self.next_vars[l] for l in ts.latches
        }
        self._next_to_curr = {
            self.next_vars[l]: self.curr_vars[l] for l in ts.latches
        }

    # ------------------------------------------------------------------
    def _build(self, aig_lit: int) -> int:
        """BDD over current-state and input variables of an AIG literal."""
        aig = self.ts.aig
        bdd = self.bdd
        cache = self._node_cache
        if aig_lit == AIG_FALSE:
            return FALSE
        if aig_lit == AIG_TRUE:
            return TRUE
        for index in aig.cone_nodes([aig_lit]):
            if index in cache or index == 0:
                continue
            lit = index << 1
            kind = aig.kind(lit)
            if kind == "input":
                cache[index] = bdd.var_node(self.input_vars[lit])
            elif kind == "latch":
                cache[index] = bdd.var_node(self.curr_vars[lit])
            else:
                a, b = aig.fanin(lit)
                node_a = self._cached(a)
                node_b = self._cached(b)
                cache[index] = bdd.and_(node_a, node_b)
        return self._cached(aig_lit)

    def _cached(self, aig_lit: int) -> int:
        if aig_lit == AIG_FALSE:
            return FALSE
        if aig_lit == AIG_TRUE:
            return TRUE
        node = self._node_cache[aig_lit >> 1]
        return self.bdd.not_(node) if aig_lit & 1 else node

    def _cluster(self, limit: int) -> None:
        """Greedily merge adjacent partitions into clusters of up to
        ``limit`` relations (ablation knob: limit=1 keeps the relation
        fully partitioned; a huge limit makes it monolithic)."""
        clustered: List[Tuple[FrozenSet[int], int]] = []
        group_vars: set = set()
        group_rel = TRUE
        count = 0
        merged: List[Tuple[int, int]] = []
        for next_var, relation in self.partitions:
            group_vars.add(next_var)
            group_rel = self.bdd.and_(group_rel, relation)
            count += 1
            if count >= limit:
                merged.append((min(group_vars), group_rel))
                group_vars = set()
                group_rel = TRUE
                count = 0
        if count:
            merged.append((min(group_vars), group_rel))
        self.partitions = merged

    # ------------------------------------------------------------------
    def _quantify_schedule(self, forward: bool) -> List[FrozenSet[int]]:
        """Early-quantification schedule: after conjoining partition i,
        quantify the variables that appear in no later partition.

        Forward images quantify current-state and input variables;
        backward images quantify next-state and input variables.
        """
        bdd = self.bdd
        to_quantify = (
            self._curr_set | self._input_set if forward
            else self._next_set | self._input_set
        )
        remaining_support: List[FrozenSet[int]] = []
        suffix: FrozenSet[int] = frozenset()
        for _, relation in reversed(self.partitions):
            remaining_support.append(suffix)
            suffix = suffix | bdd.support(relation)
        remaining_support.reverse()
        schedule: List[FrozenSet[int]] = []
        for index in range(len(self.partitions)):
            later = remaining_support[index]
            ready = frozenset(
                v for v in to_quantify
                if v not in later
            )
            schedule.append(ready)
            to_quantify = to_quantify - ready
        return schedule

    # ------------------------------------------------------------------
    def image(self, states: int) -> int:
        """Forward image: states reachable in one constrained step."""
        bdd = self.bdd
        current = bdd.and_(states, self.constraint)
        quantified: set = set()
        for index, (_, relation) in enumerate(self.partitions):
            ready = self._fwd_schedule[index]
            current = bdd.and_exists(current, relation, ready)
            quantified.update(ready)
        leftovers = (self._curr_set | self._input_set) - quantified
        if leftovers:
            current = bdd.exists(current, frozenset(leftovers))
        return bdd.rename(current, self._next_to_curr)

    def preimage(self, states: int) -> int:
        """Backward image: states that can reach ``states`` in one
        constrained step."""
        bdd = self.bdd
        target = bdd.and_(
            bdd.rename(states, self._curr_to_next), self.constraint
        )
        quantified: set = set()
        for index, (_, relation) in enumerate(self.partitions):
            ready = self._bwd_schedule[index]
            target = bdd.and_exists(target, relation, ready)
            quantified.update(ready)
        leftovers = (self._next_set | self._input_set) - quantified
        if leftovers:
            target = bdd.exists(target, frozenset(leftovers))
        return target

    def bad_states(self) -> int:
        """States from which some constrained input makes ``bad`` fire."""
        return self.bdd.and_exists(self.constraint, self.bad,
                                   self._input_set)

    def exists_inputs(self, f: int) -> int:
        return self.bdd.exists(f, self._input_set)

    def violates(self, states: int) -> int:
        """Subset of ``states`` from which bad fires immediately."""
        return self.bdd.and_(states, self.bad_states())


@dataclass
class ReachResult:
    """Outcome of a reachability analysis."""

    proved: bool
    cex_depth: Optional[int]
    iterations: int
    peak_live_nodes: int
    engine: str
    reached_states: Optional[int] = None  # BDD node (diagnostics)

    @property
    def failed(self) -> bool:
        return self.cex_depth is not None


def forward_reach(model: SymbolicModel,
                  max_iterations: Optional[int] = None) -> ReachResult:
    """Classic forward least-fixpoint traversal."""
    bdd = model.bdd
    bad = model.bad_states()
    reached = model.init
    frontier = model.init
    depth = 0
    peak = bdd.num_nodes()
    while True:
        if bdd.and_(frontier, bad) != FALSE:
            return ReachResult(False, depth, depth, peak, "bdd-forward",
                               reached)
        if max_iterations is not None and depth >= max_iterations:
            return ReachResult(False, None, depth, peak, "bdd-forward",
                               reached)
        image = model.image(frontier)
        frontier = bdd.and_(image, bdd.not_(reached))
        peak = max(peak, bdd.num_nodes())
        if frontier == FALSE:
            return ReachResult(True, None, depth, peak, "bdd-forward",
                               reached)
        reached = bdd.or_(reached, frontier)
        depth += 1


def backward_reach(model: SymbolicModel,
                   max_iterations: Optional[int] = None) -> ReachResult:
    """Backward traversal from the bad states toward the initial state."""
    bdd = model.bdd
    reached = model.bad_states()
    frontier = reached
    depth = 0
    peak = bdd.num_nodes()
    while True:
        if bdd.and_(model.init, reached) != FALSE:
            return ReachResult(False, depth, depth, peak, "bdd-backward",
                               reached)
        if max_iterations is not None and depth >= max_iterations:
            return ReachResult(False, None, depth, peak, "bdd-backward",
                               reached)
        pre = model.preimage(frontier)
        frontier = bdd.and_(pre, bdd.not_(reached))
        peak = max(peak, bdd.num_nodes())
        if frontier == FALSE:
            return ReachResult(True, None, depth, peak, "bdd-backward",
                               reached)
        reached = bdd.or_(reached, frontier)
        depth += 1


def combined_reach(model: SymbolicModel,
                   max_iterations: Optional[int] = None) -> ReachResult:
    """Combined forward and backward traversal (the in-house engine's
    invariant-checking mode): both frontiers advance in lockstep and the
    search stops as soon as they meet, which typically halves the
    traversal depth on deep counterexamples."""
    bdd = model.bdd
    bad = model.bad_states()
    fwd_reached = model.init
    fwd_frontier = model.init
    bwd_reached = bad
    bwd_frontier = bad
    fwd_done = bwd_done = False
    depth = 0
    peak = bdd.num_nodes()
    while True:
        if bdd.and_(fwd_reached, bwd_reached) != FALSE:
            # met: a real counterexample exists whose length is at most
            # the sum of the two traversal depths
            return ReachResult(False, 2 * depth, depth, peak,
                               "bdd-combined")
        if fwd_done or bwd_done:
            return ReachResult(True, None, depth, peak, "bdd-combined")
        if max_iterations is not None and depth >= max_iterations:
            return ReachResult(False, None, depth, peak, "bdd-combined")
        depth += 1
        image = model.image(fwd_frontier)
        fwd_frontier = bdd.and_(image, bdd.not_(fwd_reached))
        fwd_reached = bdd.or_(fwd_reached, fwd_frontier)
        fwd_done = fwd_frontier == FALSE
        pre = model.preimage(bwd_frontier)
        bwd_frontier = bdd.and_(pre, bdd.not_(bwd_reached))
        bwd_reached = bdd.or_(bwd_reached, bwd_frontier)
        bwd_done = bwd_frontier == FALSE
        peak = max(peak, bdd.num_nodes())
