"""Defect-seeding mutation sweeps over generated chip families.

A sweep asks the methodology's own quality question: *if this defect
were in the design, would the stereotype properties have caught it?*
Every sampled :class:`~repro.chip.defects.DefectSite` becomes one
mutant variant of its base module; all mutants run as one formal
campaign through the existing planner/executor machinery (each mutant
is its own campaign block, keyed by site id — module digests differ
per mutant, so jobs never collide); the outcome is distilled into a
**versioned detection-rate record** (:data:`SWEEP_SCHEMA`).

Record determinism is inherited, not re-implemented: mutant rows are
derived exclusively from fields that
:meth:`~repro.core.campaign.CampaignReport.canonical_bytes` already
guarantees byte-identical across executors, caches, and resume paths
(status, category, canonicalized engine label, counterexample length).
Wall-clock data lives in the record's ``timing`` section, which
:func:`canonical_record_bytes` strips — so the same spec and config
produce the same :func:`record_digest` whether the campaign ran
serially or on the parallel fleet.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..chip.defects import DEFECT_CLASSES
from ..formal.engine import FAIL
from ..orchestrate.config import CampaignConfig
from ..rtl.inject import make_verifiable
from .family import FamilySpec, generate_family
from .mutate import (
    EXPECTED_CATEGORY, SIM_VISIBLE, apply_defect, sites_for_family,
)
from .triage import replay_violation, sim_screen

#: record format version; bump on any incompatible layout change
SWEEP_SCHEMA = "scenario-sweep/v1"


def run_sweep(spec: FamilySpec,
              config: Optional[CampaignConfig] = None,
              classes: Optional[Sequence[str]] = None,
              sites_per_module: Optional[int] = None,
              triage: bool = False,
              sim_cycles: int = 256,
              warm_golden: bool = False,
              progress: Optional[Callable[[str], None]] = None
              ) -> Tuple[Dict[str, object], object]:
    """Run one mutation campaign; returns ``(record, campaign report)``.

    The record is also stamped into ``report.stats["scenario_sweep"]``
    (``stats`` is excluded from report canonicalization, so stamping
    never perturbs the campaign's own byte-identity guarantee).  With
    ``triage=True`` the sim-then-formal mode runs: random simulation
    screens every mutant first, the record gains a ``triage`` section
    with the directional cross-check (sim FAIL must imply formal FAIL)
    and a formal replay of each sim counterexample.

    ``warm_golden=True`` pre-runs the *golden* (unmutated) modules the
    sampled sites live in as their own campaign against the same
    ``config`` — hence the same result cache — so
    that with ``[coi] fingerprints = "cone"`` every mutant job whose
    cone the defect does not touch is a cache hit by construction and
    the mutant campaign executes only the cone-intersecting subset.
    This is deliberately runtime wiring, not a config knob: the sweep
    record embeds ``config_digest``, and the warm and cold runs of one
    config must keep identical :func:`record_digest`\\ s (warming
    changes cost, never outcome — the ``timing`` section, which
    canonicalization strips, is where the job counts land).
    """
    from ..orchestrate import CampaignOrchestrator

    config = CampaignConfig() if config is None else config
    selected = sites_for_family(
        generate_family(spec), classes=classes,
        sites_per_module=sites_per_module, seed=spec.seed,
    )
    mutants = [
        (family_block, site, make_verifiable(apply_defect(module, site)))
        for family_block, module, site in selected
    ]
    mutants.sort(key=lambda item: item[1].site_id)
    campaign_blocks = [(site.site_id, [verifiable])
                       for _, site, verifiable in mutants]

    golden_timing = None
    if warm_golden:
        seen: Dict[Tuple[str, str], None] = {}
        golden_blocks: Dict[str, List] = {}
        for family_block, module, _ in selected:
            if (family_block, module.name) in seen:
                continue
            seen[(family_block, module.name)] = None
            golden_blocks.setdefault(family_block, []).append(
                make_verifiable(module))
        golden_report = CampaignOrchestrator(
            sorted(golden_blocks.items()), config=config,
        ).run(progress)
        golden_timing = {
            "jobs": golden_report.stats["jobs"],
            "jobs_executed":
                golden_report.stats["coi"]["jobs_executed"],
            "cone_hits": golden_report.stats["coi"]["cone_hits"],
            "seconds": golden_report.seconds,
        }

    sim_results = None
    if triage:
        sim_results = sim_screen(
            [(site.site_id, verifiable)
             for _, site, verifiable in mutants],
            cycles=sim_cycles, seed=spec.seed,
        )

    report = CampaignOrchestrator(campaign_blocks, config=config) \
        .run(progress)

    by_site: Dict[str, List] = {}
    for result in report.results:
        by_site.setdefault(result.block, []).append(result)

    rows: List[Dict[str, object]] = []
    survivors: List[str] = []
    engine_timing: Dict[str, Dict[str, object]] = {}
    for family_block, site, _ in mutants:
        site_results = by_site.get(site.site_id, [])
        fails = [r for r in site_results if r.result.status == FAIL]
        row: Dict[str, object] = {
            "site": site.site_id,
            "class": site.defect_class,
            "module": site.module_name,
            "family_block": family_block,
            "expected_category": EXPECTED_CATEGORY[site.defect_class],
            "sim_visible": SIM_VISIBLE[site.defect_class],
            "detected": bool(fails),
            "failing_categories": sorted({r.category for r in fails}),
        }
        if fails:
            first = fails[0]      # plan order — executor-invariant
            engine = first.result.engine
            if engine.startswith("portfolio:"):
                engine = "portfolio"
            row["first_fail"] = {
                "property": f"{first.vunit_name}.{first.assert_name}",
                "category": first.category,
                "engine": engine,
                "cex_frames": None if first.result.trace is None
                else first.result.trace.length,
            }
        else:
            survivors.append(site.site_id)
        rows.append(row)
        for result in fails:
            for attempt in (result.result.stats.get("portfolio") or []):
                if attempt.get("status") != FAIL:
                    continue
                bucket = engine_timing.setdefault(
                    str(attempt.get("engine")),
                    {"fails": 0, "seconds": 0.0},
                )
                bucket["fails"] += 1
                bucket["seconds"] += float(attempt.get("seconds", 0.0))

    triage_section = None
    if triage:
        screened = sorted(site_id for site_id, result
                          in sim_results.items() if result.found_bug)
        detected_sites = {row["site"] for row in rows if row["detected"]}
        disagreements = sorted(site_id for site_id in screened
                               if site_id not in detected_sites)
        verifiable_by_site = {site.site_id: verifiable
                              for _, site, verifiable in mutants}
        replays = {
            site_id: replay_violation(
                verifiable_by_site[site_id],
                sim_results[site_id].violations[0],
                sim_results[site_id].stimulus,
            )
            for site_id in screened
        }
        triage_section = {
            "sim_cycles": sim_cycles,
            "sim_seed": spec.seed,
            "screened": screened,
            "formal_confirms_sim": not disagreements,
            "disagreements": disagreements,
            "replayed": replays,
        }

    total = len(rows)
    detected_count = sum(1 for row in rows if row["detected"])
    record: Dict[str, object] = {
        "schema": SWEEP_SCHEMA,
        "family": spec.to_dict(),
        "family_digest": spec.digest(),
        "config_digest": config.digest(),
        "defect_classes": list(DEFECT_CLASSES) if classes is None
        else list(classes),
        "sites_per_module": sites_per_module,
        "mutants": rows,
        "detection": {
            "total": total,
            "detected": detected_count,
            "rate": (detected_count / total) if total else 1.0,
            "survivors": survivors,
        },
        "triage": triage_section,
        # wall-clock and workload data only — canonical_record_bytes
        # strips this section, so warm/cold and cone/module runs of one
        # config keep identical record digests
        "timing": {
            "campaign_seconds": report.seconds,
            "jobs": report.stats["jobs"],
            "jobs_executed": report.stats["coi"]["jobs_executed"],
            "cone_hits": report.stats["coi"]["cone_hits"],
            "golden": golden_timing,
            "engines": engine_timing,
        },
    }
    report.stats["scenario_sweep"] = record
    return record, report


def sweep_from_config(config: CampaignConfig,
                      progress: Optional[Callable[[str], None]] = None,
                      warm_golden: bool = False
                      ) -> Tuple[Dict[str, object], object]:
    """Run the sweep a config's ``[scenario]`` section describes.

    Absent scenario fields fall back to the :class:`FamilySpec`
    defaults (and all-four defect classes, no site cap, triage off,
    256 sim cycles) — so a plain campaign TOML is also a valid, if
    small, sweep configuration.  ``warm_golden`` is the CLI's
    ``--warm-golden`` flag (see :func:`run_sweep` for why it is not a
    config key).
    """
    spec_kwargs: Dict[str, object] = {}
    for field_name in ("seed", "blocks", "modules_per_block",
                       "datapath_width", "pipeline_depth",
                       "error_report_width"):
        value = getattr(config, f"scenario_{field_name}")
        if value is not None:
            spec_kwargs[field_name] = value
    spec = FamilySpec(**spec_kwargs)
    sim_cycles = config.scenario_sim_cycles
    return run_sweep(
        spec,
        config=config,
        classes=config.scenario_classes,
        sites_per_module=config.scenario_sites_per_module,
        triage=bool(config.scenario_triage),
        sim_cycles=256 if sim_cycles is None else sim_cycles,
        warm_golden=warm_golden,
        progress=progress,
    )


def canonical_record_bytes(record: Dict[str, object]) -> bytes:
    """Deterministic serialization of a sweep record's *outcome* — the
    record minus its ``timing`` section, as canonical JSON.  Identical
    spec + config yield identical bytes whatever executor ran the
    campaign."""
    payload = {key: value for key, value in record.items()
               if key != "timing"}
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def record_digest(record: Dict[str, object]) -> str:
    """SHA-256 of :func:`canonical_record_bytes` — the one-line
    identity of a sweep outcome."""
    return hashlib.sha256(canonical_record_bytes(record)).hexdigest()
