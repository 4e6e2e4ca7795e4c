"""Symbolic transition systems extracted from bit-blasted designs.

A :class:`TransitionSystem` is the common input of every formal engine:

- ``latches`` with initial values and next-state functions (AIG literals),
- ``inputs`` (free variables each cycle),
- ``constraint`` — the conjunction of all *assumed* properties, evaluated
  over (state, input) every cycle; counterexamples must satisfy it at
  every step, including the violating one,
- ``bad`` — the *asserted* property's violation flag over (state, input).

Cone-of-influence reduction trims latches and inputs that cannot affect
``bad`` or ``constraint``; the paper's leaf modules are small, but COI is
what makes the divide-and-conquer partitioning measurable (Figure 7).
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..rtl.netlist import Aig, BitBlaster, FALSE, TRUE


@dataclass
class TransitionSystem:
    """A bit-level safety-checking problem."""

    aig: Aig
    inputs: List[int]                 # input literals (positive)
    latches: List[int]                # latch literals (positive)
    init: Dict[int, int]              # latch lit -> initial bit
    next_fn: Dict[int, int]           # latch lit -> next-state literal
    bad: int                          # violation literal
    constraint: int = TRUE            # assumption literal
    name: str = ""
    blaster: Optional[BitBlaster] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_blaster(cls, blaster: BitBlaster, bad_output: str,
                     constraint_output: Optional[str] = None,
                     name: str = "") -> "TransitionSystem":
        """Build from a bit-blasted design with 1-bit ``bad`` (and
        optionally ``constraint``) outputs."""
        aig = blaster.aig
        bad_bits = blaster.output_bits[bad_output]
        if len(bad_bits) != 1:
            raise ValueError(f"bad output {bad_output!r} must be 1 bit")
        constraint = TRUE
        if constraint_output is not None:
            cons_bits = blaster.output_bits[constraint_output]
            if len(cons_bits) != 1:
                raise ValueError(
                    f"constraint output {constraint_output!r} must be 1 bit"
                )
            constraint = cons_bits[0]
        ts = cls(
            aig=aig,
            inputs=list(aig.inputs),
            latches=list(aig.latches),
            init=dict(aig.latch_init),
            next_fn=dict(aig.latch_next),
            bad=bad_bits[0],
            constraint=constraint,
            name=name or blaster.design.name,
            blaster=blaster,
        )
        return ts.coi_reduce()

    # ------------------------------------------------------------------
    def coi_reduce(self, extra_roots: Tuple[int, ...] = ()) -> "TransitionSystem":
        """Restrict to the cone of influence of ``bad`` and
        ``constraint`` (fixpoint through next-state functions).

        ``extra_roots`` widens the cone to additional AIG literals —
        used by :class:`ClusterSystem` to build the union cone over all
        of a cluster's ``bad`` flags."""
        input_set, latch_set = self.aig.sequential_support(
            [self.bad, self.constraint, *extra_roots], self.next_fn)
        latches = [lit for lit in self.latches if lit in latch_set]
        inputs = [lit for lit in self.inputs if lit in input_set]
        return TransitionSystem(
            aig=self.aig,
            inputs=inputs,
            latches=latches,
            init={lit: self.init[lit] for lit in latches},
            next_fn={lit: self.next_fn[lit] for lit in latches},
            bad=self.bad,
            constraint=self.constraint,
            name=self.name,
            blaster=self.blaster,
        )

    # ------------------------------------------------------------------
    def size_stats(self) -> Dict[str, int]:
        """Problem-size metrics (reported alongside check results)."""
        return self.structure()[0]

    def structure(self) -> Tuple[Dict[str, int], str]:
        """Problem-size metrics and a canonical structural digest, from
        one walk of the cone.

        The digest is the SHA-256 of a serialization free of names and
        of AIG numbering.  Canonical id 0 is the constant and ids
        ``1..L`` are the latches by position in ``latches``, each with
        its init bit.  Every other node gets the next id in the order
        :meth:`Aig.cone_nodes` lists it from the roots ``bad``,
        ``constraint`` and ``next_fn[latch]`` (latches in order): a
        leaf is written as an input (a leaf outside ``latches`` is a
        free variable of every frame, as it is to the unroller), an
        AND node as its two fanins in stored order, each
        ``(canonical id << 1) | complement``.  The root literals close
        it.  The serialization can be parsed back into the problem, so
        equal digests mean isomorphic problems."""
        latches = self.latches
        roots = [self.bad, self.constraint]
        roots.extend(self.next_fn[lit] for lit in latches)
        fanins = self.aig.fanins()
        # node index -> canonical id << 1, -1 while unnumbered
        canon = [-1] * len(fanins)
        canon[0] = 0
        for position, lit in enumerate(latches, 1):
            canon[lit >> 1] = position << 1
        next_lit = (len(latches) + 1) << 1
        words = [len(latches)]
        words.extend(self.init[lit] for lit in latches)
        ands = 0
        for index in self.aig.cone_nodes(roots):
            pair = fanins[index]
            if pair is not None:
                a, b = pair
                words.append(canon[a >> 1] | (a & 1))
                words.append(canon[b >> 1] | (b & 1))
                ands += 1
            elif canon[index] < 0:
                words.append(-1)    # an input
            else:
                continue            # the constant or a latch
            canon[index] = next_lit
            next_lit += 2
        words.extend(canon[lit >> 1] | (lit & 1) for lit in roots)
        stats = {
            "latches": len(latches),
            "inputs": len(self.inputs),
            "ands": ands,
        }
        digest = hashlib.sha256(array("q", words).tobytes()).hexdigest()
        return stats, digest

    def latch_name(self, lit: int) -> str:
        return self.aig.name_of(lit) or f"latch{lit}"

    def input_name(self, lit: int) -> str:
        return self.aig.name_of(lit) or f"input{lit}"

    # ------------------------------------------------------------------
    def evaluate_step(self, state: Dict[int, int],
                      inputs: Dict[int, int]) -> Tuple[Dict[int, int], int, int]:
        """Concrete one-step evaluation: returns (next state, bad bit,
        constraint bit).  Used to replay and validate counterexample
        traces."""
        values = dict(state)
        values.update(inputs)
        # default any un-driven input to 0
        for lit in self.inputs:
            values.setdefault(lit, 0)
        roots = [self.bad, self.constraint]
        roots.extend(self.next_fn[lit] for lit in self.latches)
        results = self.aig.evaluate(roots, values)
        bad_bit, cons_bit = results[0], results[1]
        next_state = {
            lit: results[2 + index] for index, lit in enumerate(self.latches)
        }
        return next_state, bad_bit, cons_bit

    def initial_state(self) -> Dict[int, int]:
        return dict(self.init)


@dataclass
class ClusterSystem:
    """Several assertions of one (module, vunit) compiled into a single
    shared AIG — the paper's property clustering, in transition-system
    form.

    The *spine* is a transition system whose latch/input lists cover the
    union cone of every member's ``bad`` flag plus the shared
    constraint, with ``bad`` pinned to ``FALSE``: it is what a shared
    :class:`~repro.formal.bmc.Unroller` unrolls, so one frame encoding
    serves every member.  ``bads`` maps each assertion name to its AIG
    literal; engines query a member's violation at frame *k* via
    ``frame(k).lit(bads[name])``.

    ``view(name)`` recovers the member's own cone-of-influence-reduced
    problem over the *same* AIG — semantically the member's solo
    compilation, differing only in AIG literal numbering.  Views are
    what per-assertion structure (e.g. induction's unique-states latch
    list) must be computed from: using the union cone instead would
    weaken simple-path constraints and change proved depths.
    """

    aig: Aig
    spine: TransitionSystem
    bads: Dict[str, int]              # assert name -> violation literal
    constraint: int = TRUE
    name: str = ""
    blaster: Optional[BitBlaster] = None
    _views: Dict[str, TransitionSystem] = field(default_factory=dict,
                                                repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_blaster(cls, blaster: BitBlaster,
                     bad_outputs: Dict[str, str],
                     constraint_output: Optional[str] = None,
                     name: str = "") -> "ClusterSystem":
        """Build from a bit-blasted design carrying one 1-bit ``bad``
        output per member assertion (and optionally a shared 1-bit
        ``constraint`` output)."""
        aig = blaster.aig
        bads: Dict[str, int] = {}
        for assert_name, output in bad_outputs.items():
            bits = blaster.output_bits[output]
            if len(bits) != 1:
                raise ValueError(f"bad output {output!r} must be 1 bit")
            bads[assert_name] = bits[0]
        constraint = TRUE
        if constraint_output is not None:
            cons_bits = blaster.output_bits[constraint_output]
            if len(cons_bits) != 1:
                raise ValueError(
                    f"constraint output {constraint_output!r} must be 1 bit"
                )
            constraint = cons_bits[0]
        full = TransitionSystem(
            aig=aig,
            inputs=list(aig.inputs),
            latches=list(aig.latches),
            init=dict(aig.latch_init),
            next_fn=dict(aig.latch_next),
            bad=FALSE,
            constraint=constraint,
            name=name or blaster.design.name,
            blaster=blaster,
        )
        spine = full.coi_reduce(extra_roots=tuple(bads.values()))
        return cls(aig=aig, spine=spine, bads=bads, constraint=constraint,
                   name=spine.name, blaster=blaster)

    # ------------------------------------------------------------------
    def members(self) -> List[str]:
        return list(self.bads)

    def view(self, assert_name: str) -> TransitionSystem:
        """The member's own COI-reduced problem over the shared AIG."""
        view = self._views.get(assert_name)
        if view is None:
            view = TransitionSystem(
                aig=self.aig,
                inputs=self.spine.inputs,
                latches=self.spine.latches,
                init=dict(self.spine.init),
                next_fn=dict(self.spine.next_fn),
                bad=self.bads[assert_name],
                constraint=self.constraint,
                name=f"{self.name}.{assert_name}",
                blaster=self.blaster,
            ).coi_reduce()
            self._views[assert_name] = view
        return view
