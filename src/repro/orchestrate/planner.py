"""Campaign planning: walk the chip once, emit a flat job list.

The planner replaces the old triple-nested loop inside
``FormalCampaign.run`` (blocks → modules → vunits → asserts) with a
single pass that scopes every module, lints the Verifiable RTL,
generates the stereotype vunits, and materialises one :class:`CheckJob`
per asserted property.  The resulting :class:`CampaignPlan` is the
orchestrator's ground truth: job order *is* report order, whatever
executor later runs the jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.leaf import ScopeEntry, classify
from ..core.stereotypes import stereotype_vunits
from ..formal.coi import index_module
from ..rtl.lint import LintIssue, lint_verifiable
from ..rtl.module import Module
from ..rtl.verilog import emit_module
from .job import (
    CheckJob, EngineConfig, engines_digest, fingerprint_digests,
    identity_digest, text_digest,
)

#: valid values of the ``[coi] fingerprints`` knob
COI_FINGERPRINT_MODES = ("module", "cone")

Blocks = Sequence[Tuple[str, Sequence[Module]]]


@dataclass
class CampaignPlan:
    """Everything the orchestrator needs to run and aggregate a campaign."""

    jobs: List[CheckJob] = field(default_factory=list)
    lint_issues: List[LintIssue] = field(default_factory=list)
    #: block name -> number of in-scope leaf modules (Table 2 column)
    submodules: Dict[str, int] = field(default_factory=dict)
    #: blocks in walk order (blocks with zero in-scope modules included)
    block_order: List[str] = field(default_factory=list)
    #: scoping decisions for modules excluded from the formal scope
    skipped: List[ScopeEntry] = field(default_factory=list)

    @property
    def total_jobs(self) -> int:
        return len(self.jobs)

    def modules_planned(self) -> List[str]:
        """Distinct module names with at least one job, in plan order."""
        seen: Dict[str, None] = {}
        for job in self.jobs:
            seen.setdefault(job.module.name, None)
        return list(seen)


def plan_campaign(blocks: Blocks, engines: Tuple[EngineConfig, ...],
                  coi_fingerprints: str = "module") -> CampaignPlan:
    """Walk ``blocks`` once and produce the flat, ordered job list.

    Scoping, lint order, and job order exactly mirror the legacy
    serial walk, so a serial replay of the plan reproduces the old
    ``FormalCampaign`` report byte for byte.

    ``coi_fingerprints`` picks the job-identity scope: ``"module"``
    keys every job by the whole module's Verilog, ``"cone"`` keys it
    by the assertion's cone-of-influence digest
    (:mod:`repro.formal.coi`) — so two modules that agree on one
    assertion's cone share that job's fingerprint, and a one-site
    mutant re-checks only the cone-touching subset of its jobs.  Cone
    mode computes one cone index per module at plan time — a single
    monitor-free elaboration, amortised across the module's
    assertions.  In both modes the fingerprint leaves the header names
    out (the module's own name; the vunit's name and bound-module
    name, see :func:`~repro.orchestrate.job.identity_digest`), so a
    renamed copy of a module plans jobs with its original's
    fingerprints, and the orchestrator runs each distinct fingerprint
    once.  ``module_digest`` and ``vunit_digest`` stay exact text
    digests: they key the compile store and the SAT sessions.
    """
    if coi_fingerprints not in COI_FINGERPRINT_MODES:
        raise ValueError(
            f"coi_fingerprints must be one of {COI_FINGERPRINT_MODES}, "
            f"got {coi_fingerprints!r}"
        )
    need_cones = coi_fingerprints == "cone"
    plan = CampaignPlan()
    engines_text = engines_digest(engines)
    index = 0
    for block_name, modules in blocks:
        if block_name not in plan.submodules:
            plan.block_order.append(block_name)
            plan.submodules[block_name] = 0
        for module in modules:
            entry = classify(module)
            if not entry.in_scope:
                plan.skipped.append(entry)
                continue
            plan.submodules[block_name] += 1
            plan.lint_issues.extend(lint_verifiable(module))
            module_text = emit_module(module)
            module_digest = text_digest(module_text)
            cone_index = index_module(module) if need_cones else None
            module_scope = None if need_cones \
                else identity_digest(module_text)
            for vunit in stereotype_vunits(module):
                vunit_text = vunit.emit()
                vunit_digest = text_digest(vunit_text)
                vunit_scope = identity_digest(vunit_text)
                for assert_name, _ in vunit.asserted():
                    cone = "" if cone_index is None else \
                        cone_index.info(vunit, assert_name).digest
                    # the "coi:" prefix keeps the two addressing
                    # schemes from ever aliasing in a shared store
                    scope_digest = module_scope or f"coi:{cone}"
                    plan.jobs.append(CheckJob(
                        index=index,
                        block=block_name,
                        module=module,
                        vunit=vunit,
                        assert_name=assert_name,
                        category=vunit.category,
                        engines=engines,
                        fingerprint=fingerprint_digests(
                            scope_digest, vunit_scope, assert_name,
                            engines_text
                        ),
                        module_digest=module_digest,
                        vunit_digest=vunit_digest,
                        cone_digest=cone,
                    ))
                    index += 1
    return plan
