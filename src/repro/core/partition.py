"""Divide-and-conquer property partitioning (paper section 4.2, Fig. 7).

When model checking a property exhausts the engine's resources, the
verification engineer manually divides it at internal parity
checkpoints.  For an output-integrity property over a wide merge
datapath D = f(A, B, C):

1. prove, for each internal checkpoint word (A', B', C'), that its
   integrity follows from the integrity of the primary inputs;
2. prove the output's integrity on an *abstracted* design where each
   internal checkpoint register is cut — replaced by a free primary
   input — and assumed to carry odd parity.

Soundness: step 1 discharges exactly the assumptions introduced in
step 2, and cutting a register only ever *adds* behaviours, so the
composition over-approximates the original design.  Each piece's cone
of influence is a fraction of the original, which is what turns the
timeout into a set of quick checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..formal.problems import note_elaboration
from ..formal.transition import TransitionSystem
from ..psl.ast import Always, Name, PslError, RedXor, VUnit
from ..psl.compile import compile_assertion, compile_sliced_assertion
from ..rtl.elaborate import FlatDesign, elaborate
from ..rtl.module import Module
from ..rtl.signals import Expr, Input, Reg, substitute

CUT_SUFFIX = "__cut"


@dataclass
class SubProblem:
    """One piece of a divided property."""

    name: str
    description: str
    ts: TransitionSystem


@dataclass
class PartitionPlan:
    """The division of one property at internal checkpoints."""

    module_name: str
    assert_name: str
    cut_regs: List[str]
    checkpoint_problems: List[SubProblem] = field(default_factory=list)
    abstract_problem: Optional[SubProblem] = None

    @property
    def pieces(self) -> List[SubProblem]:
        pieces = list(self.checkpoint_problems)
        if self.abstract_problem is not None:
            pieces.append(self.abstract_problem)
        return pieces


def cut_registers(design: FlatDesign,
                  cut_regs: List[str]) -> Tuple[FlatDesign, Dict[str, str]]:
    """Replace each named register with a fresh free primary input.

    Returns the abstracted design plus the register-name -> input-name
    mapping.  Registers feeding only the cut points disappear later via
    cone-of-influence reduction.
    """
    by_name = {reg.name: reg for reg in design.regs}
    missing = [name for name in cut_regs if name not in by_name]
    if missing:
        raise PslError(f"cut points reference unknown registers {missing}")

    abstracted = FlatDesign(f"{design.name}__cut")
    abstracted.inputs = dict(design.inputs)
    mapping: Dict[Expr, Expr] = {}
    cut_names: Dict[str, str] = {}
    for name in cut_regs:
        reg = by_name[name]
        cut_input = Input(name + CUT_SUFFIX, reg.width)
        abstracted.inputs[cut_input.name] = cut_input
        mapping[reg] = cut_input
        cut_names[name] = cut_input.name

    memo: Dict[int, Expr] = {}
    for reg in design.regs:
        if reg.name in cut_names:
            continue
        fresh = Reg(reg.name, reg.width, reg.reset)
        mapping[reg] = fresh
    for reg in design.regs:
        if reg.name in cut_names:
            continue
        fresh = mapping[reg]
        fresh.next = substitute(reg.next, mapping, memo)
        abstracted.add_reg(fresh)
    abstracted.outputs = {
        name: substitute(expr, mapping, memo)
        for name, expr in design.outputs.items()
    }
    return abstracted, cut_names


def partition_property(module: Module, vunit: VUnit, assert_name: str,
                       cut_regs: List[str],
                       store=None,
                       compile_slice: bool = False) -> PartitionPlan:
    """Divide one asserted property of ``vunit`` at ``cut_regs``.

    The returned plan carries one checkpoint sub-problem per cut
    register (its stored word keeps odd parity, under the vunit's
    original assumptions) and the abstracted main problem (the original
    assertion with every cut register freed and assumed parity-clean).

    ``store`` (a :class:`~repro.formal.problems.CompiledProblemStore`)
    compiles the checkpoint sub-problems through the shared
    content-addressed layer: every piece of the division — and any
    other check of the same module in the same worker — reuses one
    elaborated design instead of re-flattening per piece.  The
    abstracted main problem necessarily compiles outside the store
    (its cut design is a derived artifact, not module content) and
    always starts from a private fresh elaboration, so the cut design
    never inherits another problem's monitor registers.

    ``compile_slice`` compiles each checkpoint sub-problem from its
    cone-of-influence slice (:mod:`repro.formal.coi`) — the natural fit
    for the division, whose whole point is that each checkpoint's cone
    is a fraction of the module.  Slices are derived from a private
    elaboration, so ``store`` serves full compiles only.  The
    abstracted main problem always compiles whole: it lives on the cut
    design, which is not module content a cone digest could address.
    """
    plan = PartitionPlan(module.name, assert_name, list(cut_regs))

    # --- step 1: integrity of each internal checkpoint from the inputs
    for reg_name in cut_regs:
        sub_unit = VUnit(f"{vunit.name}_cut_{_sanitise(reg_name)}",
                         vunit.module_name,
                         comment=f"checkpoint integrity of {reg_name}")
        sub_unit.category = vunit.category
        _copy_assumes(vunit, sub_unit)
        prop_name = f"pIntegrity_{_sanitise(reg_name)}"
        sub_unit.declare(prop_name, Always(RedXor(Name(reg_name))),
                         comment=f"{reg_name} should keep odd parity")
        sub_unit.assert_(prop_name)
        if compile_slice:
            ts = compile_sliced_assertion(module, sub_unit, prop_name)
        elif store is not None:
            ts = store.problem(module, sub_unit, prop_name)
        else:
            ts = compile_assertion(module, sub_unit, prop_name)
        plan.checkpoint_problems.append(SubProblem(
            name=f"{assert_name}/{reg_name}",
            description=f"integrity of {reg_name} holds as long as the "
                        f"integrity of the primary inputs holds",
            ts=ts,
        ))

    # --- step 2: the original property on the cut design
    note_elaboration()
    design = elaborate(module)
    abstracted, cut_names = cut_registers(design, cut_regs)
    main_unit = VUnit(f"{vunit.name}_divided", vunit.module_name,
                      comment="main property over cut points")
    main_unit.category = vunit.category
    _copy_assumes(vunit, main_unit)
    for reg_name, input_name in cut_names.items():
        assume_name = f"pIntegrity_{_sanitise(reg_name)}_cut"
        main_unit.declare(assume_name, Always(RedXor(Name(input_name))),
                          comment=f"discharged by the {reg_name} piece")
        main_unit.assume(assume_name)
    prop = vunit.property_named(assert_name)
    if prop is None:
        raise PslError(f"vunit {vunit.name!r} has no property "
                       f"{assert_name!r}")
    main_unit.declare(assert_name, prop)
    main_unit.assert_(assert_name)
    ts = compile_assertion(module, main_unit, assert_name,
                           design=abstracted)
    plan.abstract_problem = SubProblem(
        name=f"{assert_name}/divided",
        description="original assertion with internal checkpoints cut "
                    "and assumed clean",
        ts=ts,
    )
    return plan


def _copy_assumes(source: VUnit, target: VUnit) -> None:
    for name, prop in source.assumed():
        if target.property_named(name) is None:
            target.declare(name, prop)
        target.assume(name)


def _sanitise(name: str) -> str:
    return name.replace(".", "_")
