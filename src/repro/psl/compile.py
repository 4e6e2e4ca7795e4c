"""Compilation of PSL vunits into safety-checking problems.

Every supported property becomes a *monitor*: extra combinational logic
(plus at most one pipeline register for ``next``) over the design's
signals, producing

- a 1-bit ``bad`` flag for the asserted property (1 = violated now), and
- a 1-bit ``constraint`` flag conjoining all assumed properties (a
  counterexample must keep it 1 on every cycle).

The monitored design is bit-blasted and handed to the engines as a
:class:`~repro.formal.transition.TransitionSystem`.  One vunit with
several ``assert`` directives yields one problem per assert — matching
the paper's property counting, where each assertion is verified (and
counted) individually.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from ..formal.problems import note_compilation, note_elaboration
from ..formal.transition import ClusterSystem, TransitionSystem
from ..rtl.elaborate import FlatDesign, elaborate
from ..rtl.module import Module
from ..rtl.netlist import bitblast
from ..rtl.signals import Const, Expr, Reg
from .ast import (
    Always, AndB, BoolExpr, Implication, Literal, Name, Never, Next, NotB,
    OrB, Property, PslError, RedXor, VUnit, XorB,
)

BAD_OUTPUT = "__bad__"
CONSTRAINT_OUTPUT = "__constraint__"


#: process-wide counter so monitor registers never collide, even when
#: several compilers touch the same design
_MONITOR_IDS = itertools.count()


class PropertyCompiler:
    """Compiles properties of one vunit against one design."""

    def __init__(self, design: FlatDesign) -> None:
        self.design = design
        self._monitor_count = _MONITOR_IDS

    # ------------------------------------------------------------------
    # boolean layer
    # ------------------------------------------------------------------
    def bool_expr(self, expr: BoolExpr) -> Expr:
        """Lower a boolean-layer expression to a 1-bit RTL expression."""
        if isinstance(expr, Name):
            return self._name(expr)
        if isinstance(expr, Literal):
            return Const(expr.value & 1, 1)
        if isinstance(expr, NotB):
            return ~self.bool_expr(expr.operand)
        if isinstance(expr, RedXor):
            return self._operand_word(expr.operand).reduce_xor()
        if isinstance(expr, AndB):
            return self.bool_expr(expr.left) & self.bool_expr(expr.right)
        if isinstance(expr, OrB):
            return self.bool_expr(expr.left) | self.bool_expr(expr.right)
        if isinstance(expr, XorB):
            return self.bool_expr(expr.left) ^ self.bool_expr(expr.right)
        raise PslError(f"unsupported boolean expression {expr!r}")

    def _name(self, name: Name) -> Expr:
        word = self._resolve(name)
        if word.width == 1:
            return word
        # multi-bit signal in boolean context: PSL treats any nonzero
        # value as true
        return word.reduce_or()

    def _operand_word(self, expr: BoolExpr) -> Expr:
        """Resolve the operand of a reduction without booleanising it."""
        if isinstance(expr, Name):
            return self._resolve(expr)
        return self.bool_expr(expr)

    def _resolve(self, name: Name) -> Expr:
        try:
            word = self.design.signal(name.ident)
        except KeyError:
            raise PslError(
                f"property references unknown signal {name.ident!r} in "
                f"design {self.design.name!r}"
            ) from None
        if name.msb is None:
            return word
        lsb = name.lsb if name.lsb is not None else name.msb
        if not 0 <= lsb <= name.msb < word.width:
            raise PslError(
                f"select {name.emit()} out of range for {word.width}-bit "
                f"signal"
            )
        return word[lsb:name.msb + 1]

    # ------------------------------------------------------------------
    # temporal layer
    # ------------------------------------------------------------------
    def violation(self, prop: Property) -> Expr:
        """1-bit flag that is 1 exactly when the property is violated in
        the current cycle (given the monitor state)."""
        return ~self.holds(prop)

    def holds(self, prop: Property) -> Expr:
        """1-bit flag: the property's per-cycle obligation holds now."""
        if isinstance(prop, Always):
            inner = prop.inner
            if isinstance(inner, BoolExpr):
                return self.bool_expr(inner)
            if isinstance(inner, Implication):
                return self._implication(inner)
            raise PslError(f"unsupported body under always: {inner!r}")
        if isinstance(prop, Never):
            return ~self.bool_expr(prop.inner)
        if isinstance(prop, Implication):
            return self._implication(prop)
        raise PslError(f"unsupported property {prop!r}")

    def _implication(self, imp: Implication) -> Expr:
        antecedent = self.bool_expr(imp.antecedent)
        if isinstance(imp.consequent, Next):
            delayed = self._delay(antecedent)
            consequent = self.bool_expr(imp.consequent.operand)
            return ~(delayed & ~consequent)
        if isinstance(imp.consequent, BoolExpr):
            consequent = self.bool_expr(imp.consequent)
            return ~(antecedent & ~consequent)
        raise PslError(f"unsupported consequent {imp.consequent!r}")

    def _delay(self, expr: Expr) -> Expr:
        """One-cycle pipeline register (initially 0) — the monitor state
        for ``next``."""
        index = next(self._monitor_count)
        monitor = Reg(f"__psl_delay_{index}", 1, reset=0)
        monitor.next = expr
        self.design.add_reg(monitor)
        return monitor


@contextmanager
def _monitored(design: FlatDesign) -> Iterator[PropertyCompiler]:
    """A compiler over ``design`` whose monitors last one compile: the
    ``bad``/``constraint`` outputs and ``next`` registers it adds are
    removed again on exit, raise or not, so every compile against a
    shared design bit-blasts what a fresh design would."""
    outputs, regs = dict(design.outputs), len(design.regs)
    try:
        yield PropertyCompiler(design)
    finally:
        design.outputs.clear()
        design.outputs.update(outputs)
        del design.regs[regs:]


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------

def asserted_property(vunit: VUnit, assert_name: str) -> Property:
    """The property ``vunit`` asserts as ``assert_name``; raises
    :class:`PslError` when the vunit asserts no such property."""
    prop = vunit.property_named(assert_name)
    if prop is None:
        raise PslError(f"vunit {vunit.name!r} has no property "
                       f"{assert_name!r}")
    if (("assert", assert_name)) not in vunit.directives:
        raise PslError(f"property {assert_name!r} is not asserted in "
                       f"vunit {vunit.name!r}")
    return prop


def problem_name(vunit: VUnit, assert_name: str) -> str:
    """The name of one assertion's safety problem and of its check
    results: ``"<vunit>.<assert>"``."""
    return f"{vunit.name}.{assert_name}"


def compile_assertion(module: Module, vunit: VUnit, assert_name: str,
                      design: Optional[FlatDesign] = None) -> TransitionSystem:
    """Build the safety problem for one ``assert`` of a vunit.

    All ``assume`` directives of the vunit constrain the problem.  The
    returned transition system is cone-of-influence reduced.

    ``design`` lets callers check against a transformed design (e.g. a
    cut-point abstraction) or share one elaboration between compiles:
    the monitor logic is added to it for the bit-blast only and
    removed again afterwards, so the design is left as it was found.
    """
    if design is None:
        note_elaboration()
        design = elaborate(module)
    note_compilation()
    prop = asserted_property(vunit, assert_name)
    with _monitored(design) as compiler:
        bad = compiler.violation(prop)
        constraint: Expr = Const(1, 1)
        for _, assumed in vunit.assumed():
            constraint = constraint & compiler.holds(assumed)
        design.outputs[BAD_OUTPUT] = bad
        design.outputs[CONSTRAINT_OUTPUT] = constraint
        blaster = bitblast(design)
    return TransitionSystem.from_blaster(
        blaster, BAD_OUTPUT, CONSTRAINT_OUTPUT,
        name=problem_name(vunit, assert_name),
    )


def compile_sliced_assertion(module: Module, vunit: VUnit,
                             assert_name: str) -> TransitionSystem:
    """Build the safety problem for one ``assert`` from its COI slice.

    Elaborates the module fresh, computes the assertion's structural
    cone (:mod:`repro.formal.coi`), and compiles against the sliced
    design — only the cone's registers, the full input signature (so
    input literal numbering matches a full compile and cached
    counterexample frames replay either way), and the
    property-referenced outputs.
    """
    # deferred import: formal.coi sits above this front-end layer
    from ..formal.coi import ConeIndex

    note_elaboration()
    index = ConeIndex(elaborate(module))
    info = index.info(vunit, assert_name)
    return compile_assertion(module, vunit, assert_name,
                             design=index.slice(info))


def compile_cluster(module: Module, vunit: VUnit,
                    assert_names: Optional[List[str]] = None,
                    design: Optional[FlatDesign] = None) -> ClusterSystem:
    """Compile several assertions of one vunit into a single shared-AIG
    multi-bad problem (the paper's property clustering).

    All named assertions (default: every asserted property, in directive
    order) get their own 1-bit ``bad`` output; the vunit's assumptions
    conjoin into one shared constraint; one bit-blast produces one AIG
    serving every member.  The returned
    :class:`~repro.formal.transition.ClusterSystem` exposes a union-cone
    *spine* for shared unrolling plus per-assertion COI-reduced views
    that match each member's solo compilation up to AIG literal
    numbering.
    """
    if design is None:
        note_elaboration()
        design = elaborate(module)
    note_compilation()

    if assert_names is None:
        assert_names = [name for name, _ in vunit.asserted()]
    bad_outputs: Dict[str, str] = {}
    with _monitored(design) as compiler:
        for index, assert_name in enumerate(assert_names):
            prop = asserted_property(vunit, assert_name)
            output = f"{BAD_OUTPUT}{index}"
            design.outputs[output] = compiler.violation(prop)
            bad_outputs[assert_name] = output

        constraint: Expr = Const(1, 1)
        for _, assumed in vunit.assumed():
            constraint = constraint & compiler.holds(assumed)
        design.outputs[CONSTRAINT_OUTPUT] = constraint
        blaster = bitblast(design)
    return ClusterSystem.from_blaster(
        blaster, bad_outputs, CONSTRAINT_OUTPUT,
        name=f"{vunit.name}[{len(assert_names)}]",
    )


def compile_vunit(module: Module, vunit: VUnit,
                  store=None) -> List[TransitionSystem]:
    """One safety problem per asserted property, in directive order.

    ``store`` (a :class:`~repro.formal.problems.CompiledProblemStore`,
    duck-typed to keep this front-end layer free of upward imports)
    routes every compilation through the shared content-addressed
    layer: the vunit's assertions — and every other compilation of the
    same module content anywhere in the process — share one elaborated
    design.  Without a store each assertion elaborates and compiles
    cold, as before.
    """
    problems = []
    for assert_name, _ in vunit.asserted():
        if store is not None:
            problems.append(store.problem(module, vunit, assert_name))
        else:
            problems.append(compile_assertion(module, vunit, assert_name))
    return problems
