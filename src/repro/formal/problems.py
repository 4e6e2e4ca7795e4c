"""Content-addressed compiled-problem store — one elaboration per
module content.

The methodology checks many assertions per leaf module, and every one
of them used to pay the full psl → rtl → transition-system pipeline
from scratch: elaboration hid behind a fragile one-entry design cache
in the job runner, while the partitioner and the vunit compiler reused
nothing at all.  A :class:`CompiledProblemStore` replaces those
scattered compile paths with one **content-addressed, LRU-bounded**
store of elaborated designs: the
:class:`~repro.rtl.elaborate.FlatDesign` of a module, keyed by the
module's RTL digest (SHA-256 of its emitted Verilog).  Every assertion
of a module compiles against the same flattened design, so a campaign
pays one elaboration per *distinct module content* instead of one per
job.  Compiled transition systems are not retained: a campaign
compiles each assertion at most once per store, so a retained problem
would never be read again; ``problem()`` compiles afresh against the
retained design every time.

Digest keying is what makes the store safe **by construction** where
the old one-entry cache needed an object-identity hack: two distinct
modules may share a name (a golden and a patched variant planned in one
campaign), but they can never share an RTL digest — so a store hit can
only ever return the elaboration of byte-identical RTL, never the
other variant's.

Sharing a :class:`FlatDesign` is sound because every compile leaves
it as it found it: the ``bad``/``constraint`` outputs and ``next``
monitor registers a compile adds are removed again when it ends, raise
or not (:func:`~repro.psl.compile.compile_assertion`,
:func:`~repro.psl.compile.compile_cluster`), so a compile against a
store-served design bit-blasts exactly what a fresh elaboration would.

Stores are deliberately **not** shared across processes: each executor
worker owns its own, which keeps reuse lock-free.  A fleet leases one
job at a time, so a module's jobs spread over its workers and each
worker elaborates the module for itself.

:attr:`CompiledProblemStore.MAX_DESIGNS` bounds the store (least
recently used evicted first); it is a class constant, not a knob, since
the default campaign reaches it and no workload measured a better
value.  Lifetime hit/miss/eviction counters surface in
``CampaignReport.stats["compile_store"]``.

The module also keeps process-wide totals —
:func:`elaborations_total` / :func:`compilations_total` — that
benchmarks diff around a campaign to measure how many pipeline runs the
store actually avoided.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from ..rtl.elaborate import FlatDesign, elaborate
from ..rtl.module import Module
from ..rtl.verilog import emit_module
from .transition import TransitionSystem

#: process-wide pipeline counters (monotonic; diff around a run)
_ELABORATIONS = 0
_COMPILATIONS = 0


def elaborations_total() -> int:
    """Process-wide count of module elaborations performed through the
    compile layer (store misses and store-less compiles alike)."""
    return _ELABORATIONS


def compilations_total() -> int:
    """Process-wide count of assertion-to-transition-system
    compilations performed through the compile layer."""
    return _COMPILATIONS


def note_elaboration() -> None:
    """Count one elaboration.  The primitives themselves call these —
    :func:`~repro.psl.compile.compile_assertion` counts its compile
    (and its elaboration when it elaborates), the store counts the
    elaborations it performs directly — so every compile path, with or
    without a store, is counted once and store-on/off runs are
    directly comparable."""
    global _ELABORATIONS
    _ELABORATIONS += 1


def note_compilation() -> None:
    """Count one assertion compilation (see :func:`note_elaboration`)."""
    global _COMPILATIONS
    _COMPILATIONS += 1


def content_digest(text: str) -> str:
    """SHA-256 hex digest of one content key component (module RTL,
    vunit PSL) — the same digest the campaign planner stamps into
    :class:`~repro.orchestrate.job.CheckJob`."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CompiledProblemStore:
    """LRU store of elaborated designs, keyed by module content.

    ``design(module)`` returns the module's elaborated
    :class:`FlatDesign`, served from the store when its content digest
    matches a retained entry, elaborated (and retained) otherwise;
    ``problem(module, vunit, assert_name)`` compiles the assertion's
    :class:`TransitionSystem` against that design.  Callers that
    already know the digests (the campaign planner computes them once
    per module) pass them in; otherwise the store derives them from
    the emitted sources.
    """

    #: elaborated designs retained (least recently used evicted first)
    MAX_DESIGNS = 8

    def __init__(self) -> None:
        #: module digest -> elaborated design, LRU order (oldest first)
        self._designs: Dict[str, FlatDesign] = {}
        self._design_hits = 0
        self._design_misses = 0
        self._design_evictions = 0

    # ------------------------------------------------------------------
    def design(self, module: Module,
               module_digest: Optional[str] = None) -> FlatDesign:
        """The elaborated design for ``module``, served by content.

        A hit refreshes the entry's recency; a miss elaborates, retains
        (evicting the least recently used design past
        :attr:`MAX_DESIGNS`), and returns the fresh design.
        """
        key = module_digest or content_digest(emit_module(module))
        design = self._designs.pop(key, None)
        if design is not None:
            self._design_hits += 1
        else:
            self._design_misses += 1
            note_elaboration()
            design = elaborate(module)
            while len(self._designs) >= self.MAX_DESIGNS:
                self._designs.pop(next(iter(self._designs)))
                self._design_evictions += 1
        self._designs[key] = design  # (re)insert at most-recent end
        return design

    def problem(self, module: Module, vunit, assert_name: str,
                module_digest: Optional[str] = None) -> TransitionSystem:
        """The compiled safety problem for one asserted property,
        compiled against the (store-served) elaborated design."""
        # deferred: psl.compile sits above this module's layer-mates
        # (it imports formal.transition) — a top-level import here
        # would be cyclic through the package inits
        from ..psl.compile import compile_assertion
        design = self.design(module, module_digest=module_digest)
        return compile_assertion(module, vunit, assert_name, design=design)

    # ------------------------------------------------------------------
    def discard(self) -> None:
        """Drop every retained design (counters survive); the next
        request elaborates cold."""
        self._designs.clear()

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus the current pool shape."""
        return {
            "designs": len(self._designs),
            "design_hits": self._design_hits,
            "design_misses": self._design_misses,
            "design_evictions": self._design_evictions,
        }

    @staticmethod
    def merge_stats(*stats: Dict[str, int]) -> Dict[str, int]:
        """Sum counter dicts (per-worker snapshots into one aggregate)."""
        merged: Dict[str, int] = {}
        for snapshot in stats:
            for key, value in snapshot.items():
                merged[key] = merged.get(key, 0) + int(value)
        return merged

    def __repr__(self) -> str:
        return (f"CompiledProblemStore(designs={len(self._designs)}, "
                f"hits={self._design_hits})")
