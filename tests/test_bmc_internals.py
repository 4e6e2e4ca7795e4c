"""Unroller and BMC internals: frame linkage, constraint timing,
minimal-depth search, and the pruned cone walks against full-walk
references."""

import random

import pytest

from repro.formal.bmc import BmcResult, Unroller, bmc
from repro.formal.budget import ResourceBudget
from repro.formal.cnf import CnfContext
from repro.formal.sat import Solver
from repro.formal.transition import TransitionSystem
from repro.psl.compile import compile_assertion
from repro.psl.parser import parse_vunit
from repro.rtl.module import Module
from repro.rtl.netlist import Aig, FALSE, TRUE
from repro.rtl.signals import const, mux


def toggle_problem():
    """A toggler: BAD exactly on odd cycles unless frozen."""
    m = Module("t")
    freeze = m.input("FRZ", 1)
    r = m.reg("r", 1, reset=0)
    r.next = mux(freeze, r, ~r)
    m.output("BAD", r)
    unit = parse_vunit(
        "vunit v (t) { property p = never ( BAD ); assert p; }"
    )
    return compile_assertion(m, unit, "p")


class TestUnroller:
    def test_frame_zero_pins_init(self):
        ts = toggle_problem()
        solver = Solver()
        unroller = Unroller(ts, solver, constrain_init=True)
        bad0 = unroller.bad_at(0)
        # initial state is r=0, so BAD cannot hold at frame 0
        assert solver.solve([bad0]) is False

    def test_free_init_leaves_frame_zero_open(self):
        ts = toggle_problem()
        solver = Solver()
        unroller = Unroller(ts, solver, constrain_init=False)
        assert solver.solve([unroller.bad_at(0)]) is True

    def test_latch_linkage_across_frames(self):
        ts = toggle_problem()
        solver = Solver()
        unroller = Unroller(ts, solver, constrain_init=True)
        bad1 = unroller.bad_at(1)
        frz0 = unroller.frame(0).lit(ts.inputs[0])
        # with freeze low the toggler must be 1 at frame 1
        assert solver.solve([bad1 ^ 1, frz0 ^ 1]) is False
        # with freeze high it stays 0
        assert solver.solve([bad1, frz0]) is False

    def test_extract_inputs_covers_all_frames(self):
        ts = toggle_problem()
        solver = Solver()
        unroller = Unroller(ts, solver, constrain_init=True)
        assert solver.solve([unroller.bad_at(1)])
        frames = unroller.extract_inputs(1)
        assert len(frames) == 2
        assert all(ts.inputs[0] in frame for frame in frames)


class TestBmcSearch:
    def test_finds_minimal_depth(self):
        result = bmc(toggle_problem(), max_bound=6)
        assert result.failed and result.bound == 1
        assert result.trace.length == 2
        assert result.trace.replay()

    def test_start_bound_skips_shallow(self):
        result = bmc(toggle_problem(), max_bound=8, start_bound=4)
        assert result.failed
        assert result.bound >= 4
        assert result.trace.replay()

    def test_repr(self):
        result = bmc(toggle_problem(), max_bound=3)
        assert "FAIL" in repr(result)


def random_sequential_aig(rng, inputs=6, latches=10, ands=80):
    """A random AIG with latches; returns it and every literal built
    (constants included: ``and2`` folds some gates away)."""
    aig = Aig()
    pool = [aig.add_input(f"i{k}") for k in range(inputs)]
    latch_lits = [aig.add_latch(f"l{k}", rng.randrange(2))
                  for k in range(latches)]
    pool += latch_lits
    for _ in range(ands):
        a, b = rng.sample(pool, 2)
        pool.append(aig.and2(a ^ rng.randrange(2), b ^ rng.randrange(2)))
    for latch in latch_lits:
        # next-state functions over a prefix of the pool leave some
        # latches and inputs outside most cones
        aig.set_latch_next(latch,
                           rng.choice(pool[:rng.randint(1, len(pool))])
                           ^ rng.randrange(2))
    return aig, pool


class FullConeEncoder:
    """Reference for :class:`CnfContext`: the earlier encoder, which
    walked the whole ``cone_nodes`` list on every literal request."""

    def __init__(self, aig, solver):
        self.aig = aig
        self.solver = solver
        self.map = {}
        self.true_lit = solver.new_var() << 1
        solver.add_clause([self.true_lit])

    def bind(self, aig_lit, solver_lit):
        self.map[aig_lit >> 1] = solver_lit

    def lit(self, aig_lit):
        if aig_lit not in (FALSE, TRUE) and (aig_lit >> 1) not in self.map:
            for index in self.aig.cone_nodes([aig_lit]):
                if index in self.map or index == 0:
                    continue
                if self.aig.kind(index << 1) in ("input", "latch"):
                    self.map[index] = self.solver.new_var() << 1
                    continue
                a, b = self.aig.fanin(index << 1)
                lit_a, lit_b = self._resolved(a), self._resolved(b)
                y = self.solver.new_var() << 1
                self.solver.add_clause([y ^ 1, lit_a])
                self.solver.add_clause([y ^ 1, lit_b])
                self.solver.add_clause([y, lit_a ^ 1, lit_b ^ 1])
                self.map[index] = y
        return self._resolved(aig_lit)

    def _resolved(self, aig_lit):
        if aig_lit in (FALSE, TRUE):
            return self.true_lit ^ (aig_lit ^ 1)
        return self.map[aig_lit >> 1] ^ (aig_lit & 1)


def reference_coi(ts, extra_roots=()):
    """Reference for :meth:`TransitionSystem.coi_reduce`: the earlier
    fixpoint, one combinational support walk per round."""
    def support(roots):
        ins, lats = [], []
        for index in ts.aig.cone_nodes(roots):
            kind = ts.aig.kind(index << 1)
            if kind == "input":
                ins.append(index << 1)
            elif kind == "latch":
                lats.append(index << 1)
        return ins, lats

    relevant = set()
    frontier = [ts.bad, ts.constraint, *extra_roots]
    while frontier:
        _, latch_lits = support(frontier)
        new = [lit for lit in latch_lits if lit not in relevant]
        if not new:
            break
        relevant.update(new)
        frontier = [ts.next_fn[lit] for lit in new]
    latches = [lit for lit in ts.latches if lit in relevant]
    roots = [ts.bad, ts.constraint, *extra_roots]
    roots.extend(ts.next_fn[lit] for lit in latches)
    input_set = set(support(roots)[0])
    inputs = [lit for lit in ts.inputs if lit in input_set]
    return latches, inputs, {lit: ts.next_fn[lit] for lit in latches}


class TestPrunedWalks:
    """The CNF encoder walks only the part of a cone not yet encoded,
    and COI reduction finds the sequential cone in one walk; both must
    give exactly what the full walks gave."""

    @pytest.mark.parametrize("seed", range(10))
    def test_cnf_numbering_matches_full_cone_encoder(self, seed):
        """Also when frame 0's latches are bound to literals fixed at
        the root (even seeds, as an init-constrained ``Unroller`` binds
        them), when a unit clause lands between two requests, and when
        encoding goes on after a SAT answer left the solver at a
        decision level."""
        rng = random.Random(seed)
        aig, pool = random_sequential_aig(rng)
        fast_solver, ref_solver = Solver(), Solver()
        fast, ref = [], []

        def add_unit(lit):
            assert fast_solver.add_clause([lit]) == \
                ref_solver.add_clause([lit])

        def solve_both():
            assert fast_solver.solve() and ref_solver.solve()
            assert fast_solver.model() == ref_solver.model()

        for frame in range(4):
            fast.append(CnfContext(aig, fast_solver))
            ref.append(FullConeEncoder(aig, ref_solver))
            if frame:
                # latch linkage as the unroller does it
                for latch in aig.latches:
                    next_lit = aig.latch_next[latch]
                    fast[frame].bind(latch, fast[frame - 1].lit(next_lit))
                    ref[frame].bind(latch, ref[frame - 1].lit(next_lit))
            elif seed % 2 == 0:
                # initial values as a constrain_init unroller binds them
                for latch in aig.latches:
                    lit = fast_solver.new_var() << 1
                    assert ref_solver.new_var() << 1 == lit
                    fast[0].bind(latch, lit)
                    ref[0].bind(latch, lit)
                    add_unit(lit ^ (aig.latch_init[latch] ^ 1))
            if frame == 1:
                # this frame's requests encode from a decision level
                solve_both()
            for step in range(12):
                at = rng.randrange(frame + 1)
                aig_lit = rng.choice(pool) ^ rng.randrange(2)
                solver_lit = fast[at].lit(aig_lit)
                assert solver_lit == ref[at].lit(aig_lit)
                assert fast_solver.num_clauses() == ref_solver.num_clauses()
                assert fast_solver.stats_snapshot() == \
                    ref_solver.stats_snapshot()
                if step == 6 and frame >= 2:
                    # fix a gate the later requests may read, to the
                    # value it takes in a model, so the formula stays
                    # satisfiable
                    solve_both()
                    add_unit(solver_lit
                             ^ (fast_solver.value_of(solver_lit) ^ 1))
        # same variables, same clauses in the same order: same search
        assert fast_solver.solve([fast[-1].lit(pool[-1])]) == \
            ref_solver.solve([ref[-1].lit(pool[-1])])
        assert fast_solver.model() == ref_solver.model()
        assert fast_solver.stats_snapshot() == ref_solver.stats_snapshot()

    @pytest.mark.parametrize("seed", range(10))
    def test_coi_reduce_matches_support_fixpoint(self, seed):
        rng = random.Random(1000 + seed)
        aig, pool = random_sequential_aig(rng)
        ts = TransitionSystem(
            aig=aig, inputs=list(aig.inputs), latches=list(aig.latches),
            init=dict(aig.latch_init), next_fn=dict(aig.latch_next),
            bad=rng.choice(pool) ^ rng.randrange(2),
            constraint=rng.choice([TRUE, rng.choice(pool)]))
        extra = tuple(rng.sample(pool, rng.randint(0, 2)))
        for roots in ((), extra):
            reduced = ts.coi_reduce(extra_roots=roots)
            latches, inputs, next_fn = reference_coi(ts, roots)
            assert reduced.latches == latches
            assert reduced.inputs == inputs
            assert reduced.next_fn == next_fn
            assert reduced.init == {lit: ts.init[lit] for lit in latches}
