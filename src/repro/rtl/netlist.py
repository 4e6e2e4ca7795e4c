"""Bit-level netlist: an And-Inverter Graph (AIG) with latches.

The AIG is the exchange format between the RTL substrate and the formal
engines: SAT-based model checking Tseitin-encodes it, and the BDD engines
build node functions over it.  Literals follow the AIGER convention:

- literal ``0`` is constant false, ``1`` constant true;
- node ``i`` has positive literal ``2 i`` and negative ``2 i + 1``;
- AND nodes are structurally hashed and constant-propagated on the fly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .elaborate import FlatDesign
from .signals import Const, Expr, Input, Op, Reg, mask

FALSE = 0
TRUE = 1


class Aig:
    """And-Inverter Graph with latches (sequential AIG)."""

    def __init__(self) -> None:
        # _kind[i]: 'const' | 'input' | 'latch' | 'and'
        self._kind: List[str] = ["const"]
        self._fanin: List[Optional[Tuple[int, int]]] = [None]
        self._name: List[Optional[str]] = [None]
        self.inputs: List[int] = []          # positive literals
        self.latches: List[int] = []         # positive literals
        self.latch_next: Dict[int, int] = {}  # latch lit -> next-state lit
        self.latch_init: Dict[int, int] = {}  # latch lit -> 0/1
        self._strash: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> int:
        lit = self._new_node("input", None, name)
        self.inputs.append(lit)
        return lit

    def add_latch(self, name: str, init: int = 0) -> int:
        lit = self._new_node("latch", None, name)
        self.latches.append(lit)
        self.latch_init[lit] = init & 1
        return lit

    def set_latch_next(self, latch_lit: int, next_lit: int) -> None:
        if latch_lit not in self.latch_init:
            raise ValueError(f"literal {latch_lit} is not a latch")
        self.latch_next[latch_lit] = next_lit

    def _new_node(self, kind: str, fanin, name: Optional[str]) -> int:
        index = len(self._kind)
        self._kind.append(kind)
        self._fanin.append(fanin)
        self._name.append(name)
        return index << 1

    # ------------------------------------------------------------------
    # logic operators (literal level)
    # ------------------------------------------------------------------
    @staticmethod
    def neg(lit: int) -> int:
        return lit ^ 1

    def and2(self, a: int, b: int) -> int:
        if a == FALSE or b == FALSE or a == b ^ 1:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        key = (a, b) if a < b else (b, a)
        found = self._strash.get(key)
        if found is not None:
            return found
        lit = self._new_node("and", key, None)
        self._strash[key] = lit
        return lit

    # The derived gates negate with ``^ 1`` (see :meth:`neg`); their
    # and2 calls run in the order that fixes the node numbering.
    def or2(self, a: int, b: int) -> int:
        return self.and2(a ^ 1, b ^ 1) ^ 1

    def xor2(self, a: int, b: int) -> int:
        and2 = self.and2
        return and2(and2(a, b ^ 1) ^ 1, and2(a ^ 1, b) ^ 1) ^ 1

    def xnor2(self, a: int, b: int) -> int:
        return self.xor2(a, b) ^ 1

    def mux(self, sel: int, if_true: int, if_false: int) -> int:
        and2 = self.and2
        return and2(and2(sel, if_true) ^ 1, and2(sel ^ 1, if_false) ^ 1) ^ 1

    def and_many(self, lits: Iterable[int]) -> int:
        acc = TRUE
        for lit in lits:
            acc = self.and2(acc, lit)
        return acc

    def or_many(self, lits: Iterable[int]) -> int:
        acc = FALSE
        for lit in lits:
            acc = self.or2(acc, lit)
        return acc

    def xor_many(self, lits: Iterable[int]) -> int:
        acc = FALSE
        for lit in lits:
            acc = self.xor2(acc, lit)
        return acc

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def kind(self, lit: int) -> str:
        return self._kind[lit >> 1]

    def fanin(self, lit: int) -> Tuple[int, int]:
        pair = self._fanin[lit >> 1]
        if pair is None:
            raise ValueError(f"literal {lit} has no fanin")
        return pair

    def name_of(self, lit: int) -> Optional[str]:
        return self._name[lit >> 1]

    def num_nodes(self) -> int:
        return len(self._kind)

    def num_ands(self) -> int:
        return sum(1 for k in self._kind if k == "and")

    def fanins(self) -> List[Optional[Tuple[int, int]]]:
        """The fanin pair of every node by index, ``None`` for the
        constant, inputs and latches: the AIG's own list, for walks that
        read it in a hot loop (do not change it)."""
        return self._fanin

    def cone_nodes(self, roots: Sequence[int]) -> List[int]:
        """Indices of all nodes in the transitive fanin of ``roots``,
        in topological (fanin-first) order: the post-order of a
        depth-first walk that visits a node's second fanin first."""
        fanins = self._fanin
        seen = set()
        order: List[int] = []
        stack = [lit >> 1 for lit in roots]
        while stack:
            index = stack.pop()
            if index < 0:           # ~index: its fanins are all listed
                order.append(~index)
            elif index not in seen:
                seen.add(index)
                pair = fanins[index]
                if pair is None:
                    order.append(index)
                    continue
                stack.append(~index)
                a, b = pair[0] >> 1, pair[1] >> 1
                if a not in seen:
                    stack.append(a)
                if b not in seen:
                    stack.append(b)
        return order

    def sequential_support(self, roots: Sequence[int],
                           next_fn: Dict[int, int]
                           ) -> Tuple[Set[int], Set[int]]:
        """(input literals, latch literals) that can influence
        ``roots`` over any number of cycles: the combinational cone,
        continued through ``next_fn[latch]`` at every latch it reaches.
        One walk, each node visited once."""
        fanins = self._fanin
        kinds = self._kind
        inputs: Set[int] = set()
        latches: Set[int] = set()
        seen = set()
        stack = [lit >> 1 for lit in roots]
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            pair = fanins[index]
            if pair is not None:
                stack.append(pair[0] >> 1)
                stack.append(pair[1] >> 1)
                continue
            kind = kinds[index]
            if kind == "input":
                inputs.add(index << 1)
            elif kind == "latch":
                latches.add(index << 1)
                stack.append(next_fn[index << 1] >> 1)
        return inputs, latches

    # ------------------------------------------------------------------
    # evaluation (used for simulator cross-checks and trace replay)
    # ------------------------------------------------------------------
    def evaluate(self, roots: Sequence[int], values: Dict[int, int]) -> List[int]:
        """Evaluate root literals given input/latch values keyed by
        positive literal."""
        val: Dict[int, int] = {0: 0}
        for lit, v in values.items():
            val[lit >> 1] = v & 1
        for index in self.cone_nodes(roots):
            if index in val:
                continue
            kind = self._kind[index]
            if kind == "and":
                a, b = self._fanin[index]
                va = val[a >> 1] ^ (a & 1)
                vb = val[b >> 1] ^ (b & 1)
                val[index] = va & vb
            elif kind in ("input", "latch"):
                raise KeyError(
                    f"no value for {kind} literal {index << 1} "
                    f"({self._name[index]!r})"
                )
        return [val[lit >> 1] ^ (lit & 1) for lit in roots]


class BitBlaster:
    """Lowers a :class:`FlatDesign` to an :class:`Aig`.

    Keeps a word-to-bit mapping: each design input, register and output
    maps to a list of AIG literals, LSB first.
    """

    def __init__(self, design: FlatDesign) -> None:
        self.design = design
        self.aig = Aig()
        self.input_bits: Dict[str, List[int]] = {}
        self.reg_bits: Dict[str, List[int]] = {}
        self.output_bits: Dict[str, List[int]] = {}
        self._memo: Dict[int, List[int]] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        aig = self.aig
        for name, port in self.design.inputs.items():
            bits = [aig.add_input(f"{name}[{i}]") for i in range(port.width)]
            self.input_bits[name] = bits
            self._memo[id(port)] = bits
        for reg in self.design.regs:
            bits = [
                aig.add_latch(f"{reg.name}[{i}]", (reg.reset >> i) & 1)
                for i in range(reg.width)
            ]
            self.reg_bits[reg.name] = bits
            self._memo[id(reg)] = bits
        for reg in self.design.regs:
            next_bits = self.blast(reg.next)
            for latch_lit, next_lit in zip(self.reg_bits[reg.name], next_bits):
                aig.set_latch_next(latch_lit, next_lit)
        for name, expr in self.design.outputs.items():
            self.output_bits[name] = self.blast(expr)

    # ------------------------------------------------------------------
    def blast(self, expr: Expr) -> List[int]:
        """Literals (LSB first) computing ``expr``."""
        stack: List[Expr] = [expr]
        memo = self._memo
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            if isinstance(node, Const):
                memo[id(node)] = [
                    TRUE if (node.value >> i) & 1 else FALSE
                    for i in range(node.width)
                ]
                stack.pop()
                continue
            if isinstance(node, (Input, Reg)):
                raise KeyError(
                    f"leaf {node!r} does not belong to design "
                    f"{self.design.name!r}"
                )
            assert isinstance(node, Op), f"unexpected node {node!r}"
            pending = [op for op in node.operands if id(op) not in memo]
            if pending:
                stack.extend(pending)
                continue
            operands = [memo[id(op)] for op in node.operands]
            memo[id(node)] = self._blast_op(node, operands)
            stack.pop()
        return memo[id(expr)]

    def _blast_op(self, node: Op, ops: List[List[int]]) -> List[int]:
        aig = self.aig
        kind = node.kind
        if kind == "NOT":
            return [aig.neg(b) for b in ops[0]]
        if kind == "AND":
            return [aig.and2(a, b) for a, b in zip(ops[0], ops[1])]
        if kind == "OR":
            return [aig.or2(a, b) for a, b in zip(ops[0], ops[1])]
        if kind == "XOR":
            return [aig.xor2(a, b) for a, b in zip(ops[0], ops[1])]
        if kind == "ADD":
            return self._adder(ops[0], ops[1], carry_in=FALSE)
        if kind == "SUB":
            return self._adder(ops[0], [aig.neg(b) for b in ops[1]],
                               carry_in=TRUE)
        if kind == "EQ":
            return [aig.and_many(aig.xnor2(a, b)
                                 for a, b in zip(ops[0], ops[1]))]
        if kind == "LT":
            return [self._less_than(ops[0], ops[1])]
        if kind == "MUX":
            sel = ops[0][0]
            return [aig.mux(sel, t, f) for t, f in zip(ops[1], ops[2])]
        if kind == "CONCAT":
            bits: List[int] = []
            # CONCAT lists MSB part first; LSB-first bit order means the
            # last operand contributes the lowest bits.
            for part in reversed(ops):
                bits.extend(part)
            return bits
        if kind == "SLICE":
            lo = node.param
            return ops[0][lo:lo + node.width]
        if kind == "REDXOR":
            return [aig.xor_many(ops[0])]
        if kind == "REDOR":
            return [aig.or_many(ops[0])]
        if kind == "REDAND":
            return [aig.and_many(ops[0])]
        raise AssertionError(f"unhandled op kind {kind}")

    def _adder(self, a: List[int], b: List[int], carry_in: int) -> List[int]:
        aig = self.aig
        carry = carry_in
        out: List[int] = []
        for bit_a, bit_b in zip(a, b):
            axb = aig.xor2(bit_a, bit_b)
            out.append(aig.xor2(axb, carry))
            carry = aig.or2(aig.and2(bit_a, bit_b), aig.and2(axb, carry))
        return out

    def _less_than(self, a: List[int], b: List[int]) -> int:
        aig = self.aig
        lt = FALSE
        for bit_a, bit_b in zip(a, b):  # LSB to MSB
            eq = aig.xnor2(bit_a, bit_b)
            lt_here = aig.and2(aig.neg(bit_a), bit_b)
            lt = aig.or2(lt_here, aig.and2(eq, lt))
        return lt

    # ------------------------------------------------------------------
    def bits_of(self, name: str) -> List[int]:
        """Literals of a named design signal (input, register, output)."""
        if name in self.input_bits:
            return self.input_bits[name]
        if name in self.reg_bits:
            return self.reg_bits[name]
        if name in self.output_bits:
            return self.output_bits[name]
        raise KeyError(f"no blasted signal named {name!r}")


def bitblast(design: FlatDesign) -> BitBlaster:
    """Convenience wrapper: lower a flat design to an AIG."""
    return BitBlaster(design)
