"""The formal verification campaign (paper section 4, Figure 5).

The campaign reproduces the flow the paper's single verification
engineer ran — lint the Verifiable RTL, generate the stereotype vunits
(P0/P1/P2) plus the designer's P3 properties, model check every
``assert``, and aggregate Tables 2/3 — but it is now architected as a
**job graph** rather than a serial loop:

- a *planner* walks the blocks once and emits one ``CheckJob`` per
  asserted property (:mod:`repro.orchestrate.planner`);
- an *executor* runs the jobs — serially by default, or leased out to
  the worker processes of the fleet — and streams results back in plan
  order (:mod:`repro.orchestrate.executor`,
  :mod:`repro.orchestrate.fleet`);
- an optional *result cache* keyed by a content fingerprint of
  (module RTL, vunit source, engine config) replays verdicts for
  unchanged properties, making ECO reruns incremental
  (:mod:`repro.orchestrate.cache`);
- the *orchestrator* aggregates the stream into this module's
  :class:`CampaignReport` (:mod:`repro.orchestrate.orchestrator`).

:class:`FormalCampaign` is the façade over that machinery: one
``run(progress)``, one report, parameterised by one declarative
:class:`~repro.orchestrate.config.CampaignConfig` (``config=``), with
the component objects (``executor=``, ``cache=``, ``checkpoint=``,
``engines=``) kept as programmatic overrides.  The
report dataclasses (:class:`PropertyResult`, :class:`BlockSummary`,
:class:`CampaignReport`) remain the public result model that report
rendering (:mod:`repro.core.report`) and the benchmarks consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..formal.engine import CheckResult, FAIL, PASS
from ..rtl.lint import LintIssue
from ..rtl.module import Module
from .stereotypes import P0, P1, P2, P3


@dataclass
class PropertyResult:
    """One checked assertion.

    ``cached`` marks verdicts not computed for this assertion in this
    run: replayed from the orchestrator's result cache, or reused from
    an earlier job of the same campaign with the same fingerprint (a
    renamed copy of the check).  A journal-replayed verdict is this
    campaign's own earlier work and keeps ``cached`` False.
    """

    block: str
    module_name: str
    vunit_name: str
    assert_name: str
    category: str
    result: CheckResult
    cached: bool = False

    @property
    def qualified_name(self) -> str:
        return f"{self.vunit_name}.{self.assert_name}"


#: categories a :class:`BlockSummary` keeps a counter for
_CATEGORIES = (P0, P1, P2, P3)


@dataclass
class BlockSummary:
    """One row of Table 2."""

    block: str
    submodules: int = 0
    bugs: int = 0
    p0: int = 0
    p1: int = 0
    p2: int = 0
    p3: int = 0

    @property
    def total(self) -> int:
        return self.p0 + self.p1 + self.p2 + self.p3

    def add(self, category: str, count: int = 1) -> None:
        if category not in _CATEGORIES:
            raise ValueError(
                f"unknown property category {category!r}; "
                f"expected one of {_CATEGORIES}"
            )
        attr = category.lower()
        setattr(self, attr, getattr(self, attr) + count)


@dataclass
class CampaignReport:
    """Aggregate of a formal campaign.

    ``stats`` carries the orchestration counters of the producing run:
    executor name, engine portfolio, job count, cache hits/misses, and
    which modules were actually checked vs replayed from cache.
    """

    results: List[PropertyResult] = field(default_factory=list)
    blocks: Dict[str, BlockSummary] = field(default_factory=dict)
    lint_issues: List[LintIssue] = field(default_factory=list)
    seconds: float = 0.0
    stats: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def total_properties(self) -> int:
        return len(self.results)

    def by_status(self, status: str) -> List[PropertyResult]:
        return [r for r in self.results if r.result.status == status]

    @property
    def all_passed(self) -> bool:
        return all(r.result.status == PASS for r in self.results)

    def failures_by_module(self) -> Dict[str, List[PropertyResult]]:
        failures: Dict[str, List[PropertyResult]] = {}
        for result in self.by_status(FAIL):
            failures.setdefault(result.module_name, []).append(result)
        return failures

    def counts_by_category(self) -> Dict[str, int]:
        counts = {P0: 0, P1: 0, P2: 0, P3: 0}
        for result in self.results:
            counts[result.category] += 1
        counts["total"] = len(self.results)
        return counts

    def distinct_bug_modules(self) -> List[str]:
        """Modules whose failures correspond to logic bugs (distinct
        defective modules, the paper's bug-counting unit)."""
        return sorted(self.failures_by_module())

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization of the campaign *outcome*.

        Covers every property verdict (identity, category, status,
        engine, depth, counterexample input frames), every
        block-summary row, and the lint findings — everything a
        downstream consumer acts on — while excluding wall-clock timing
        and run provenance (``seconds``, ``stats``, per-result engine
        timings, the ``cached`` flag).  Two runs of the same campaign
        are byte-identical here whatever executor, cache state, or
        checkpoint-resume path produced them; the orchestrator's tests
        enforce exactly that.

        For a multi-stage engine portfolio, *which* stage happened to
        settle the check is provenance too: every stage is sound (the
        verdict is stage-order-invariant, and counterexamples are
        concretised by the same deterministic BMC run), but the winner
        — and its engine-specific proof bound — varies with the attempt
        order a portfolio policy picks.  Portfolio results are
        therefore canonicalised to engine ``"portfolio"`` with no proof
        depth (counterexample frames, which carry the real outcome,
        stay); the winning stage remains visible in
        ``result.stats["portfolio"]``.
        """
        results = []
        for record in self.results:
            trace = record.result.trace
            frames = None if trace is None else trace.canonical_frames()
            engine = record.result.engine
            depth = record.result.depth
            if engine.startswith("portfolio:"):
                engine, depth = "portfolio", None
            results.append([
                record.block, record.module_name, record.vunit_name,
                record.assert_name, record.category,
                record.result.status, engine, depth, frames,
            ])
        blocks = [
            [name, block.submodules, block.bugs,
             block.p0, block.p1, block.p2, block.p3]
            for name, block in sorted(self.blocks.items())
        ]
        lint = [repr(issue) for issue in self.lint_issues]
        payload = {"results": results, "blocks": blocks, "lint": lint}
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")


class FormalCampaign:
    """Runs the formal flow over a chip's blocks.

    ``blocks`` is a sequence of (block name, leaf modules).  Each module
    must carry Verifiable RTL and an integrity spec; modules that the
    scoping rule excludes are skipped (and recorded).

    The campaign is parameterised by one declarative
    :class:`~repro.orchestrate.config.CampaignConfig` — the
    serializable object that also drives the ``python -m repro`` CLI
    and is stamped (as a digest) into ``report.stats``::

        config = CampaignConfig(executor="fleet:4",
                                engines="portfolio:kind,bdd-combined")
        FormalCampaign(chip.blocks, config=config).run()

    The other constructor arguments are component-object overrides —
    ``executor`` / ``cache`` / ``checkpoint`` / ``engines`` (and
    ``lint``); an explicit object wins over the config's corresponding
    spec.
    """

    def __init__(self, blocks: Sequence[Tuple[str, Sequence[Module]]],
                 lint: Optional[bool] = None,
                 executor=None, cache=None,
                 checkpoint=None, engines=None,
                 config=None) -> None:
        self.blocks = [(name, list(mods)) for name, mods in blocks]
        if config is None:
            from ..orchestrate.config import CampaignConfig
            config = CampaignConfig()
        self.config = config
        self.lint = lint
        self.executor = executor
        self.cache = cache
        self.checkpoint = checkpoint
        self.engines = tuple(engines) if engines else None

    # ------------------------------------------------------------------
    def run(self, progress: Optional[Callable[[str], None]] = None,
            resume: bool = False) -> CampaignReport:
        from ..orchestrate import CampaignOrchestrator

        orchestrator = CampaignOrchestrator(
            self.blocks,
            engines=self.engines,
            executor=self.executor,
            cache=self.cache,
            checkpoint=self.checkpoint,
            lint=self.lint,
            config=self.config,
        )
        return orchestrator.run(progress, resume=resume)
