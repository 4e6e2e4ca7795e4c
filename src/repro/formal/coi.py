"""Structural cone-of-influence analysis and content addressing.

The paper's methodology is property-centric: every assertion is checked
against only the logic that can affect it.  This module makes that
structure *addressable*.  For one asserted property of a vunit it
computes, over the elaborated :class:`~repro.rtl.elaborate.FlatDesign`:

- the **support**: every design signal the property (and every assumed
  property of the same vunit) references by name;
- the **cone**: the word-level fanin closure of the support — every
  register reachable from a support expression, iterated through
  register next-state functions to a fixpoint;
- the **cone digest**: a canonical content hash of exactly the cone's
  logic (support expressions, cone registers with their next-state
  functions, and the module's full input signature) and nothing else.

Two designs with structurally identical cones get identical digests,
whatever else differs about them — which is what turns a mutation sweep
from O(mutants x assertions) solves into O(cone-touching jobs): a
one-site mutant shares the golden module's digest for every assertion
whose cone the defect does not intersect, so a cone-fingerprinted
:class:`~repro.orchestrate.job.CheckJob` becomes a cache hit
by construction (see ``[coi] fingerprints = "cone"`` in
``docs/configuration.md``).

The cone also *compiles*: :meth:`ConeIndex.slice` builds a sliced
``FlatDesign`` containing only the cone — the substrate for the
divide-and-conquer partitioner's slice compilation
(``partition_property(compile_slice=True)``).  The slice deliberately
keeps the **full input signature** of the original design: the
bit-blaster numbers all inputs first (in declaration order), so a
slice compile and a full compile of the same module assign identical
literals to every input bit, and counterexample input frames replay
against either compile.

Digest contract (``COI_SCHEMA``): per-node structural hashes (constants
by value/width, inputs and registers by name/width/reset, operators by
kind/width/param and operand hashes) — registers are referenced as
leaves and their next-state functions are tied in by the cone's
register table, closing the recursion the way a ``letrec`` would.  The
module *name* is excluded on purpose: a mutant clone shares its base
module's name, and two same-shaped modules sharing a verdict is sound
(identical cone logic has identical verdicts).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..psl.ast import (
    Always, AndB, Implication, Literal, Name, Never, Next, NotB, OrB,
    PslError, RedXor, VUnit, XorB,
)
from ..rtl.elaborate import FlatDesign, elaborate
from ..rtl.module import Module
from ..rtl.signals import Const, Expr, Input, Op, Reg

#: digest payload version; bump on any change to the serialization so
#: stale cone-addressed cache entries can never alias fresh ones
COI_SCHEMA = "coi-cone/v1"


def property_support(vunit: VUnit, assert_name: str) -> List[str]:
    """Signal names referenced by one asserted property *and* every
    assumed property of the vunit, in first-reference order.

    The assumes belong in the support because they compile into the
    problem's constraint output: a change to an assumed signal's logic
    changes the checked problem even when the asserted property itself
    is untouched.
    """
    prop = vunit.property_named(assert_name)
    if prop is None:
        raise PslError(
            f"vunit {vunit.name!r} has no property {assert_name!r}"
        )
    asserted = {name for name, _ in vunit.asserted()}
    if assert_name not in asserted:
        raise PslError(
            f"property {assert_name!r} of vunit {vunit.name!r} "
            f"is not asserted"
        )
    roots = [prop] + [p for _, p in vunit.assumed()]
    names: Dict[str, None] = {}
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            names.setdefault(node.ident, None)
        elif isinstance(node, Literal):
            pass
        elif isinstance(node, (NotB, RedXor, Next)):
            stack.append(node.operand)
        elif isinstance(node, (AndB, OrB, XorB)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Implication):
            stack.append(node.consequent)
            stack.append(node.antecedent)
        elif isinstance(node, (Always, Never)):
            stack.append(node.inner)
        else:
            raise PslError(
                f"cannot collect support of node {node!r}"
            )
    return list(names)


@dataclass(frozen=True)
class ConeInfo:
    """One assertion's cone over one elaborated design."""

    #: canonical content hash of the cone (the fingerprint component)
    digest: str
    #: property-referenced signal names, first-reference order
    support: Tuple[str, ...]
    #: cone register names, in design declaration order
    regs: Tuple[str, ...]
    #: support names that resolve to design outputs (the slice's
    #: output map)
    outputs: Tuple[str, ...]


class ConeIndex:
    """Cone analysis over one elaborated design, with shared memos.

    One index serves every assertion of a module: per-node structural
    digests are memoized across :meth:`info` calls (the assertions of
    one module share most of their logic), and per-assertion infos are
    memoized by ``(vunit name, assert name)`` — sound because the
    stereotype generator derives one deterministic vunit set per
    module.
    """

    def __init__(self, design: FlatDesign) -> None:
        self.design = design
        self._node_digests: Dict[int, str] = {}
        self._infos: Dict[Tuple[str, str], ConeInfo] = {}

    # -- analysis ------------------------------------------------------
    def info(self, vunit: VUnit, assert_name: str) -> ConeInfo:
        key = (vunit.name, assert_name)
        found = self._infos.get(key)
        if found is not None:
            return found
        design = self.design
        support = property_support(vunit, assert_name)
        roots = [design.signal(name) for name in support]
        cone_regs = self._closure(roots)
        payload = {
            "schema": COI_SCHEMA,
            # the full input signature pins the slice's literal
            # numbering (inputs are blasted first, in this order), so
            # cone-equal designs replay each other's input frames
            "inputs": [[name, port.width]
                       for name, port in design.inputs.items()],
            "support": [[name, self._digest(root)]
                        for name, root in zip(support, roots)],
            "regs": [[reg.name, reg.width, reg.reset,
                      self._digest(reg.next)]
                     for reg in cone_regs],
        }
        info = ConeInfo(
            digest=_canonical_hash(payload),
            support=tuple(support),
            regs=tuple(reg.name for reg in cone_regs),
            outputs=tuple(name for name in support
                          if name in design.outputs),
        )
        self._infos[key] = info
        return info

    def _closure(self, roots: List[Expr]) -> List[Reg]:
        """Registers in the fanin closure of ``roots`` (through
        next-state functions, to a fixpoint), in design order."""
        visited: set = set()
        found: Dict[int, Reg] = {}
        stack = list(roots)
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            if isinstance(node, Reg):
                found[id(node)] = node
                if node.has_next:
                    stack.append(node.next)
            elif isinstance(node, Op):
                stack.extend(node.operands)
        return [reg for reg in self.design.regs if id(reg) in found]

    def _digest(self, expr: Expr) -> str:
        """Structural hash of one expression (registers as leaves)."""
        memo = self._node_digests
        stack: List[Expr] = [expr]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            if isinstance(node, Const):
                memo[id(node)] = _canonical_hash(
                    ["const", node.width, node.value])
                stack.pop()
                continue
            if isinstance(node, Input):
                memo[id(node)] = _canonical_hash(
                    ["input", node.name, node.width])
                stack.pop()
                continue
            if isinstance(node, Reg):
                # leaf reference only; the next-state function is tied
                # in by the cone's register table
                memo[id(node)] = _canonical_hash(
                    ["reg", node.name, node.width, node.reset])
                stack.pop()
                continue
            if not isinstance(node, Op):
                raise PslError(
                    f"cannot digest design node {node!r} — is the "
                    f"design elaborated?"
                )
            pending = [op for op in node.operands if id(op) not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[id(node)] = _canonical_hash(
                ["op", node.kind, node.width, node.param,
                 [memo[id(op)] for op in node.operands]])
            stack.pop()
        return memo[id(expr)]

    # -- slicing -------------------------------------------------------
    def slice(self, info: ConeInfo) -> FlatDesign:
        """A fresh ``FlatDesign`` containing exactly the cone.

        Shares the original expression objects (the closure guarantees
        every reachable leaf is carried along); keeps the **full**
        input map in original order, so the slice's input literals
        match a full compile's; keeps only the cone's registers (in
        declaration order — a slice compile and a full compile list
        the shared latches in the same relative order) and only the
        property-referenced outputs.  A compile against the slice adds
        its monitors for that compile only, as against any shared
        design; the original is never mutated.
        """
        design = self.design
        sliced = FlatDesign(design.name)
        sliced.inputs = dict(design.inputs)
        keep = set(info.regs)
        for reg in design.regs:
            if reg.name in keep:
                sliced.add_reg(reg)
        for name in info.outputs:
            sliced.outputs[name] = design.outputs[name]
        return sliced


def index_module(module: Module) -> ConeIndex:
    """Elaborate ``module`` (fresh, monitor-free) and index it — the
    planner's path to cone digests."""
    return ConeIndex(elaborate(module))


def cone_digest(module: Module, vunit: VUnit, assert_name: str) -> str:
    """One-shot cone digest of one assertion (test/tool convenience;
    batch callers should share a :class:`ConeIndex`)."""
    return index_module(module).info(vunit, assert_name).digest


def _canonical_hash(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True,
                   separators=(",", ":")).encode("utf-8")
    ).hexdigest()
