"""Bit-blasting: the AIG must agree with word-level evaluation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtl.elaborate import FlatDesign, elaborate
from repro.rtl.module import Module
from repro.rtl.netlist import Aig, FALSE, TRUE, bitblast
from repro.rtl.signals import Input, cat, const, evaluate, mask, mux


class TestAigPrimitives:
    def test_constant_folding(self):
        aig = Aig()
        a = aig.add_input("a")
        assert aig.and2(a, FALSE) == FALSE
        assert aig.and2(a, TRUE) == a
        assert aig.and2(a, a) == a
        assert aig.and2(a, aig.neg(a)) == FALSE

    def test_structural_hashing(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        assert aig.and2(a, b) == aig.and2(b, a)
        n = aig.num_nodes()
        aig.and2(a, b)
        assert aig.num_nodes() == n

    def test_evaluate(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        x = aig.xor2(a, b)
        for va in (0, 1):
            for vb in (0, 1):
                assert aig.evaluate([x], {a: va, b: vb})[0] == va ^ vb

    def test_support(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        latch = aig.add_latch("l")
        cone = aig.and2(a, latch)
        ins, lats = aig.sequential_support([cone], {latch: a})
        assert ins == {a}
        assert lats == {latch}
        assert b not in ins
        # the walk continues through the latch's next-state function
        ins, lats = aig.sequential_support([cone], {latch: b})
        assert ins == {a, b}


def _random_expr(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(leaves)
    op = rng.choice(["and", "or", "xor", "add", "sub", "not", "mux",
                     "eq", "lt", "redxor", "slice", "cat"])
    a = _random_expr(rng, leaves, depth - 1)
    if op == "not":
        return ~a
    if op == "redxor":
        return a.reduce_xor()
    if op == "slice":
        lo = rng.randrange(a.width)
        hi = rng.randrange(lo, a.width)
        return a[lo:hi + 1]
    b = _random_expr(rng, leaves, depth - 1)
    if op == "cat":
        return cat(a, b)
    if b.width != a.width:
        return a  # width mismatch: skip combining
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "eq":
        return a.eq(b)
    if op == "lt":
        return a.lt(b)
    if op == "mux":
        sel = a if a.width == 1 else a[0]
        other = _random_expr(rng, leaves, depth - 1)
        if other.width != b.width:
            return b
        return mux(sel, b, other)
    raise AssertionError(op)


class TestBitBlastEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_combinational_designs(self, seed):
        rng = random.Random(seed)
        m = Module(f"rand{seed}")
        ports = [m.input(f"I{k}", rng.choice([1, 3, 8]))
                 for k in range(3)]
        expr = _random_expr(rng, ports, 4)
        m.output("Y", expr)
        flat = elaborate(m)
        blaster = bitblast(flat)
        bits = blaster.output_bits["Y"]
        for _ in range(16):
            values = {p.name: rng.randrange(1 << p.width) for p in ports}
            env = {flat.inputs[name]: v for name, v in values.items()}
            want = evaluate(flat.outputs["Y"], env)
            aig_values = {}
            for name, value in values.items():
                for pos, lit in enumerate(blaster.input_bits[name]):
                    aig_values[lit] = (value >> pos) & 1
            got_bits = blaster.aig.evaluate(bits, aig_values)
            got = sum(bit << pos for pos, bit in enumerate(got_bits))
            assert got == want

    def test_latches_round_trip(self):
        m = Module("seq")
        inc = m.input("GO", 1)
        r = m.reg("r", 4, reset=5)
        r.next = mux(inc, r + 1, r)
        m.output("Y", r)
        flat = elaborate(m)
        blaster = bitblast(flat)
        aig = blaster.aig
        # initial values match the reset encoding
        state = {lit: aig.latch_init[lit] for lit in aig.latches}
        value = sum(bit << pos for pos, bit in
                    enumerate(state[lit] for lit in
                              blaster.reg_bits["r"]))
        assert value == 5
        # one step with GO=1: r -> 6
        values = dict(state)
        values[blaster.input_bits["GO"][0]] = 1
        next_bits = aig.evaluate(
            [aig.latch_next[lit] for lit in blaster.reg_bits["r"]], values
        )
        assert sum(b << p for p, b in enumerate(next_bits)) == 6

    def test_bits_of_lookup(self, verifiable_leaf):
        flat = elaborate(verifiable_leaf)
        blaster = bitblast(flat)
        assert len(blaster.bits_of("I")) == 9
        assert len(blaster.bits_of("A")) == 4
        assert len(blaster.bits_of("O")) == 9
        with pytest.raises(KeyError):
            blaster.bits_of("missing")
