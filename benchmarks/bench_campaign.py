#!/usr/bin/env python
"""Campaign orchestrator smoke benchmark: executors, cache, and resume.

Runs the same chip campaign several ways —

1. serial executor, cold (the legacy baseline),
2. the parallel pool (``FleetExecutor`` on its local launcher), cold,
3. serial executor against a warm result cache (the ECO-rerun case),
4. checkpointed cold run, then a resume from a half-truncated journal
   (the killed-campaign case: half the jobs replay, half execute),
5. a shared-SAT-workspace probe on one module's whole assertion set
   with the default ``portfolio:kind,bdd-combined`` ladder: cold
   solvers vs one shared incremental workspace (clustered CNFs,
   retained time frames, learned-clause retention under activation
   literals), comparing wall time and the deterministic
   conflict/propagation totals summed over every portfolio attempt,
6. a scenario-sweep probe: the fixed tiny generated chip family
   crossed with all four defect classes (``repro.scenario``), run
   under the serial executor and the fleet — recording the
   detection rate, the surviving-mutant list (must be empty), and
   the per-engine time-to-FAIL buckets, with outcome-identical
   canonical records across the executors,
7. a compile-store probe on the fixed block-C scope: the
   content-addressed ``CompiledProblemStore`` on vs off, measured two
   ways — serial runs diffing the process-wide
   ``elaborations_total()`` / ``compilations_total()`` counters (the
   deterministic savings), and module-affinity fleet runs comparing
   job throughput and the fleet's aggregated store hit counters (the
   scheduled case the store was built for),
8. a cone-addressing probe: a cold module-fingerprint sweep of the
   bench family against a cold and a warm-golden cone-fingerprint
   sweep, gated on 3x fewer executed jobs warm than module-keyed,
9. a fleet-transport probe: the pool leg (2.) again with one worker
   SIGKILLed after the first result, recording the lease re-issues and
   the recovery overhead against the healthy pool leg (whose
   per-worker job counts and lease bookkeeping it also records), with
   a byte-identical outcome,

verifies every run produces a byte-identical campaign outcome
(``CampaignReport.canonical_bytes``), and writes a perf record to
``benchmarks/out/BENCH_campaign.json`` so future PRs have a trajectory
to beat.

``--smoke`` runs only the compile-store and SAT-workspace probes,
writes ``benchmarks/out/BENCH_campaign_smoke.json``, and exits nonzero
unless both earn their keep — the store with nonzero hit counters,
fewer elaborations, and throughput not below store-off; the SAT
workspace with byte-identical cold/warm outcomes and session reuses
(its conflict ratio is recorded, not gated).  The CI ``bench-smoke``
job runs exactly this, so a compile-layer or solver-layer regression
fails the build instead of silently landing.  Every record carries the
host topology (CPU count, platform, Python version, pool workers).

The fleet defaults to ``max(2, cpu_count)`` workers so a real pool is
exercised even on a 1-CPU container (where CPU-count defaults would
silently fall back to serial and measure nothing); pass ``--jobs`` to
override.

Run:  python benchmarks/bench_campaign.py [--full] [--blocks A,C]
                                          [--jobs N] [--smoke]
"""

import argparse
import json
import os
import pathlib
import signal
import sys
import tempfile
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.chip import ComponentChip                      # noqa: E402
from repro.core.campaign import FormalCampaign            # noqa: E402
from repro.orchestrate import (                           # noqa: E402
    CampaignCheckpoint, CampaignConfig, CampaignOrchestrator,
    FleetExecutor, ResultCache,
)
from repro.orchestrate.cache import remove_store          # noqa: E402
from repro.orchestrate.fleet import LocalFleetLauncher    # noqa: E402
from repro.orchestrate.stats import (                     # noqa: E402
    STATS_SCHEMA, counter_groups,
)

OUT_PATH = pathlib.Path(__file__).parent / "out" / "BENCH_campaign.json"


def _host_topology(workers=None):
    """The host facts every perf record carries, so trajectories from
    different machines are never compared apples-to-oranges."""
    import platform
    topology = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    if workers is not None:
        topology["pool_workers"] = workers
    return topology


def _timed_run(blocks, resume=False, **kwargs):
    config = CampaignConfig(sat_conflicts=1_000_000,
                            bdd_nodes=10_000_000)
    campaign = FormalCampaign(blocks, config=config, **kwargs)
    started = time.perf_counter()
    report = campaign.run(resume=resume)
    return report, time.perf_counter() - started


def _bench_compile_store(workers):
    """Compile-store probe on the fixed block-C scope.

    Two measurements, store on vs off, all byte-identical outcomes:

    - **serial / deterministic** — process-wide elaboration and
      compilation totals (``repro.formal.problems``): with the store
      on, a campaign pays one elaboration per distinct module instead
      of one per job;
    - **affinity-scheduled / throughput** — module-affinity fleet
      (one lease = one module's whole job group, exactly the case
      per-worker stores are built for): job throughput plus the
      fleet's aggregated hit counters from
      ``report.stats["compile_store"]["run"]``.

    Returns the record plus an ``ok`` gate: nonzero hits, fewer
    elaborations, and store-on throughput not below store-off (a small
    slack absorbs scheduler noise on shared CI runners; the
    deterministic counters carry the hard guarantee).
    """
    import dataclasses

    from repro.formal.problems import (
        compilations_total, elaborations_total,
    )

    blocks = ComponentChip(only_blocks=["C"]).blocks
    base = CampaignConfig(engines="portfolio:kind,bdd-combined",
                          sat_conflicts=1_000_000,
                          bdd_nodes=10_000_000)

    def serial_run(store_on):
        config = dataclasses.replace(base, compile_store=store_on)
        elaborations = elaborations_total()
        compilations = compilations_total()
        started = time.perf_counter()
        report = CampaignOrchestrator(blocks, config=config).run()
        return report, {
            "seconds": round(time.perf_counter() - started, 3),
            "elaborations": elaborations_total() - elaborations,
            "compilations": compilations_total() - compilations,
        }

    serial_off_report, serial_off = serial_run(False)
    serial_on_report, serial_on = serial_run(True)

    def pool_run(store_on):
        config = dataclasses.replace(
            base, compile_store=store_on,
            executor=f"fleet:{workers}",
            scheduling="module-affinity",
        )
        started = time.perf_counter()
        report = CampaignOrchestrator(blocks, config=config).run()
        seconds = time.perf_counter() - started
        return report, seconds

    pool_off_report, pool_off_s = pool_run(False)
    pool_on_report, pool_on_s = pool_run(True)
    # the counters are deterministic; the wall-clock comparison is not
    # (shared CI runners) — one retry of the timed pair absorbs a
    # transiently contended first measurement before the gate fires
    if pool_on_s > pool_off_s / 0.85:
        retry_off_report, retry_off_s = pool_run(False)
        retry_on_report, retry_on_s = pool_run(True)
        if retry_on_s / retry_off_s < pool_on_s / pool_off_s:
            pool_off_report, pool_off_s = retry_off_report, retry_off_s
            pool_on_report, pool_on_s = retry_on_report, retry_on_s

    jobs = serial_on_report.total_properties
    throughput_off = jobs / pool_off_s if pool_off_s else 0.0
    throughput_on = jobs / pool_on_s if pool_on_s else 0.0
    run_stats = pool_on_report.stats["compile_store"]["run"]
    hits = run_stats.get("design_hits", 0)
    identical = len({
        report.canonical_bytes() for report in (
            serial_off_report, serial_on_report,
            pool_off_report, pool_on_report,
        )
    }) == 1

    elaborations_saved = serial_off["elaborations"] - \
        serial_on["elaborations"]
    print(f"  compile store off:  {serial_off['seconds']:7.2f}s serial "
          f"({serial_off['elaborations']} elaborations), "
          f"{pool_off_s:.2f}s affinity pool")
    print(f"  compile store on:   {serial_on['seconds']:7.2f}s serial "
          f"({serial_on['elaborations']} elaborations, "
          f"{elaborations_saved} saved), "
          f"{pool_on_s:.2f}s affinity pool "
          f"({hits} store hits)")
    if not identical:
        print("  WARNING: compile-store outcome diverged!")
    ok = (identical and hits > 0 and elaborations_saved > 0
          and throughput_on >= 0.85 * throughput_off)
    return {
        "scope": "block C",
        "engines": base.engines,
        "properties": jobs,
        "serial": {"off": serial_off, "on": serial_on,
                   "elaborations_saved": elaborations_saved},
        "affinity_pool": {
            "workers": workers,
            "seconds": {"off": round(pool_off_s, 3),
                        "on": round(pool_on_s, 3)},
            "jobs_per_second": {"off": round(throughput_off, 2),
                                "on": round(throughput_on, 2)},
            "store": run_stats,
        },
        "store_hits": hits,
        "outcomes_identical": identical,
        "ok": ok,
    }


def _bench_sat_workspace():
    """Shared-SAT-workspace probe: one module's whole assertion set on
    the default ``portfolio:kind,bdd-combined`` ladder, cold solvers vs
    one shared incremental workspace.

    The scope is fixed (the block-C FSM controller, every stereotype
    assertion) so the record is comparable across runs.  Work is
    measured two ways: wall time, and the deterministic solver-effort
    counters — conflicts and propagations summed over every portfolio
    attempt from each result's attempt log.  The gate is byte-identical
    cold/warm outcomes with live session reuses; the effort and wall
    ratios, and the checks answered from the workspace's settled-problem
    memo (``problem_hits`` in the recorded counters), are recorded
    without a threshold, because ``kind`` decides every default check
    on its first attempt and the warm gain there is modest.
    """
    import dataclasses

    modules = ComponentChip(only_blocks=["C"]).blocks[0][1]
    blocks = [("C", modules[:1])]
    base = CampaignConfig(sat_conflicts=1_000_000, bdd_nodes=10_000_000)

    def solver_effort(report):
        conflicts = propagations = 0
        for entry in report.results:
            for attempt in entry.result.stats.get("portfolio", ()):
                conflicts += attempt.get("conflicts", 0)
                propagations += attempt.get("propagations", 0)
        return conflicts, propagations

    def run(share_sat):
        config = dataclasses.replace(base, sat_workspace=share_sat)
        started = time.perf_counter()
        report = CampaignOrchestrator(blocks, config=config).run()
        return report, time.perf_counter() - started

    cold_report, cold_s = run(False)
    warm_report, warm_s = run(True)

    cold_conflicts, cold_props = solver_effort(cold_report)
    warm_conflicts, warm_props = solver_effort(warm_report)
    counters = warm_report.stats["sat_workspace"]
    identical = cold_report.canonical_bytes() == \
        warm_report.canonical_bytes()
    conflict_ratio = cold_conflicts / warm_conflicts \
        if warm_conflicts else float(cold_conflicts or 1)
    prop_ratio = cold_props / warm_props \
        if warm_props else float(cold_props or 1)
    wall_ratio = cold_s / warm_s if warm_s else 0.0

    print(f"  sat cold solvers:   {cold_s:7.2f}s "
          f"({cold_conflicts:,} conflicts, "
          f"{cold_props:,} propagations)")
    print(f"  sat shared ws:      {warm_s:7.2f}s "
          f"({warm_conflicts:,} conflicts, {warm_props:,} propagations; "
          f"{counters.get('reuses', 0)} session reuses, "
          f"{counters.get('frames_reused', 0)} frames and "
          f"{counters.get('clauses_retained', 0)} learned clauses "
          f"retained; {counters.get('problem_hits', 0)} settled-problem "
          f"hits)")
    print(f"  sat effort ratio:   {conflict_ratio:.1f}x conflicts, "
          f"{prop_ratio:.1f}x propagations, {wall_ratio:.1f}x wall")
    if not identical:
        print("  WARNING: shared-SAT outcome diverged from cold!")
    ok = identical and counters.get("reuses", 0) > 0
    return {
        "scope": f"module {modules[0].name}",
        "engines": base.engines,
        "properties": cold_report.total_properties,
        "host": _host_topology(),
        "seconds": {"cold": round(cold_s, 3),
                    "shared": round(warm_s, 3)},
        "conflicts": {"cold": cold_conflicts, "shared": warm_conflicts,
                      "ratio": round(conflict_ratio, 2)},
        "propagations": {"cold": cold_props, "shared": warm_props,
                         "ratio": round(prop_ratio, 2)},
        "wall_ratio": round(wall_ratio, 2),
        "workspace": counters,
        "outcomes_identical": identical,
        "ok": ok,
    }


def _bench_scenario(workers):
    """Scenario-sweep probe: the fixed tiny generated family crossed
    with every defect class, swept once serially and once on the
    fleet.

    The scope is fixed (1 block x 2 modules, datapath width 4, all
    four defect classes — the mutation-kill matrix grid from
    ``tests/test_mutation_matrix.py``) so detection rate and
    time-to-FAIL trajectories are comparable across runs.  The two
    executors must produce identical canonical records — identical
    except for ``config_digest``, which honestly differs because the
    executor spec is itself a config field.
    """
    from repro.scenario import FamilySpec, run_sweep

    spec = FamilySpec(blocks=1, modules_per_block=2, datapath_width=4,
                      pipeline_depth=1, error_report_width=2)
    limits = dict(sat_conflicts=1_000_000, bdd_nodes=10_000_000)

    def outcome(record):
        # canonical bytes minus the executor-dependent config digest
        from repro.scenario import canonical_record_bytes
        stripped = {key: value for key, value in record.items()
                    if key != "config_digest"}
        return canonical_record_bytes(stripped)

    started = time.perf_counter()
    serial_record, _ = run_sweep(
        spec, config=CampaignConfig(executor="serial", **limits))
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    pool_record, _ = run_sweep(
        spec, config=CampaignConfig(executor=f"fleet:{workers}",
                                    **limits))
    pool_s = time.perf_counter() - started

    identical = outcome(serial_record) == outcome(pool_record)
    detection = serial_record["detection"]
    engines = serial_record["timing"]["engines"]
    print(f"  sweep serial:       {serial_s:7.2f}s "
          f"({detection['total']} mutants, "
          f"{detection['detected']} detected, "
          f"rate {detection['rate']:.3f})")
    print(f"  sweep fleet:        {pool_s:7.2f}s")
    for engine, bucket in sorted(engines.items()):
        print(f"    time-to-FAIL {engine}: {bucket['fails']} fails "
              f"in {bucket['seconds']:.2f}s")
    if detection["survivors"]:
        print(f"  WARNING: surviving mutants! {detection['survivors']}")
    if not identical:
        print("  WARNING: sweep records diverged across executors!")
    ok = (identical and not detection["survivors"]
          and detection["rate"] == 1.0)
    return {
        "scope": f"family {spec.digest()[:12]} "
                 f"({spec.blocks}x{spec.modules_per_block}, "
                 f"width {spec.datapath_width})",
        "schema": serial_record["schema"],
        "host": _host_topology(workers),
        "mutants": detection["total"],
        "detection_rate": detection["rate"],
        "survivors": detection["survivors"],
        "seconds": {"serial": round(serial_s, 3),
                    "fleet": round(pool_s, 3)},
        "time_to_fail_per_engine": engines,
        "outcomes_identical": identical,
        "ok": ok,
    }


def _bench_coi():
    """Cone-addressing sweep probe: the fixed bench family crossed
    with its datapath-heavy defect classes, swept three times — cold
    with module fingerprints (the sweep without cone addressing), then
    from an empty cache with cone fingerprints, cold, and cone-warm
    (``--warm-golden`` semantics: the golden modules pre-run against
    the same cache, so every mutant job whose cone the defect missed
    is a hit by construction).

    The gate is cone addressing's claim: the warm cone sweep must
    execute at least 3x fewer mutant-campaign jobs than the module
    sweep, with a nonzero cone hit rate, a byte-identical record digest
    cold vs warm, and module-keyed outcomes equal to cone-keyed ones —
    cone addressing moves cost, never outcomes.  The baseline is the
    module sweep because a campaign runs each distinct fingerprint
    once: the cold cone sweep already reuses the checks of every cone
    a mutant's defect missed, which is cone addressing's saving too,
    so it executes fewer jobs than the module sweep.  Its ratio to the
    warm sweep is recorded, not gated.
    """
    from repro.scenario import FamilySpec, run_sweep
    from repro.scenario.sweep import record_digest

    spec = FamilySpec(blocks=1, modules_per_block=2, datapath_width=4,
                      pipeline_depth=1, error_report_width=2)
    classes = ["wrong-rotate", "swapped-operand", "dropped-error-flag"]
    limits = dict(sat_conflicts=1_000_000, bdd_nodes=10_000_000)

    started = time.perf_counter()
    module_record, _ = run_sweep(spec, classes=classes,
                                 config=CampaignConfig(**limits))
    module_s = time.perf_counter() - started
    with tempfile.TemporaryDirectory(prefix="bench_coi_") as cache_dir:
        config = CampaignConfig(
            coi_fingerprints="cone",
            cache_path=os.path.join(cache_dir, "verdicts.sqlite"),
            **limits)
        started = time.perf_counter()
        cold_record, _ = run_sweep(spec, classes=classes, config=config)
        cold_s = time.perf_counter() - started
        remove_store(config.cache_path)
        started = time.perf_counter()
        warm_record, _ = run_sweep(spec, classes=classes, config=config,
                                   warm_golden=True)
        warm_s = time.perf_counter() - started

    module_t = module_record["timing"]
    cold_t, warm_t = cold_record["timing"], warm_record["timing"]
    golden = warm_t["golden"]

    def outcome(record):
        return {key: value for key, value in record.items()
                if key not in ("timing", "config_digest")}

    identical = (record_digest(cold_record) == record_digest(warm_record)
                 and outcome(module_record) == outcome(cold_record))

    def fewer(baseline):
        return baseline / warm_t["jobs_executed"] \
            if warm_t["jobs_executed"] else float(baseline)

    executed_ratio = fewer(module_t["jobs_executed"])
    cold_ratio = fewer(cold_t["jobs_executed"])
    hit_rate = warm_t["cone_hits"] / warm_t["jobs"] \
        if warm_t["jobs"] else 0.0

    print(f"  sweep module-cold:  {module_s:7.2f}s "
          f"({module_t['jobs_executed']} of {module_t['jobs']} jobs "
          f"executed)")
    print(f"  sweep cone-cold:    {cold_s:7.2f}s "
          f"({cold_t['jobs_executed']} of {cold_t['jobs']} jobs "
          f"executed)")
    print(f"  sweep cone-warm:    {warm_s:7.2f}s "
          f"({warm_t['jobs_executed']} of {warm_t['jobs']} jobs "
          f"executed + {golden['jobs_executed']} golden pre-run, "
          f"{warm_t['cone_hits']} cone hits, "
          f"hit rate {hit_rate:.2f})")
    print(f"  executed ratio:     {executed_ratio:.2f}x fewer "
          f"mutant-campaign jobs warm than module-keyed "
          f"({cold_ratio:.2f}x than cone-cold)")
    if not identical:
        print("  WARNING: cone addressing or warm-golden changed the "
              "sweep outcome!")
    ok = (identical and warm_t["cone_hits"] > 0
          and executed_ratio >= 3.0)
    return {
        "scope": f"family {spec.digest()[:12]} "
                 f"(classes {','.join(classes)})",
        "host": _host_topology(),
        "jobs": cold_t["jobs"],
        "jobs_executed": {"module_cold": module_t["jobs_executed"],
                          "cold": cold_t["jobs_executed"],
                          "cone_warm": warm_t["jobs_executed"],
                          "golden_prerun": golden["jobs_executed"]},
        "cone_hits": warm_t["cone_hits"],
        "cone_hit_rate": round(hit_rate, 3),
        "executed_ratio": round(executed_ratio, 2),
        "cold_ratio": round(cold_ratio, 2),
        "seconds": {"module_cold": round(module_s, 3),
                    "cold": round(cold_s, 3),
                    "cone_warm": round(warm_s, 3)},
        "outcomes_identical": identical,
        "ok": ok,
    }


class _TrackingLauncher(LocalFleetLauncher):
    """Local launcher that keeps every worker process handle, so the
    fleet probe can SIGKILL a real worker."""

    def __init__(self):
        self.handles = []

    def launch(self, worker_id, conn, settings, jobs, coordinator_ends):
        handle = super().launch(worker_id, conn, settings, jobs,
                                coordinator_ends)
        self.handles.append(handle)
        return handle


def _bench_fleet(blocks, workers, serial_report, pool_report, pool_s):
    """Fleet-transport probe: the pool leg run again with one worker
    SIGKILLed after the first result, proving a lost worker costs
    lease re-issue and recovery time, never a changed verdict.  The
    healthy side of the comparison is the pool leg itself, whose
    transport bookkeeping (per-worker job counts, leases) is recorded
    next to the faulted run's."""
    launcher = _TrackingLauncher()
    killed = []

    def _kill_one(line):
        if not killed and launcher.handles:
            os.kill(launcher.handles[0].pid, signal.SIGKILL)
            killed.append(True)

    config = CampaignConfig(sat_conflicts=1_000_000,
                            bdd_nodes=10_000_000)
    started = time.perf_counter()
    faulted_report = CampaignOrchestrator(
        blocks, config=config,
        executor=FleetExecutor(workers=workers, launcher=launcher,
                               share_sat=True),
    ).run(progress=_kill_one)
    faulted_s = time.perf_counter() - started
    healthy = pool_report.stats["fleet"]
    faulted = faulted_report.stats["fleet"]
    identical = (faulted_report.canonical_bytes()
                 == serial_report.canonical_bytes())
    print(f"  pool (healthy):     {pool_s:7.2f}s "
          f"({healthy['workers_launched']} workers, "
          f"jobs {healthy['jobs_per_worker']})")
    print(f"  pool + SIGKILL:     {faulted_s:7.2f}s "
          f"({faulted['workers_lost']} lost, "
          f"{faulted['leases_reissued']} leases re-issued, "
          f"recovery {faulted_s - pool_s:+.2f}s vs healthy)")

    return {
        "host": _host_topology(workers),
        "properties": serial_report.total_properties,
        "workers": workers,
        "seconds": {
            "pool_cold": round(pool_s, 3),
            "pool_worker_sigkill": round(faulted_s, 3),
        },
        "healthy": {
            "workers_launched": healthy["workers_launched"],
            "leases_issued": healthy["leases_issued"],
            "leases_reissued": healthy["leases_reissued"],
            "results_rejected": healthy["results_rejected"],
            "jobs_per_worker": healthy["jobs_per_worker"],
        },
        "worker_sigkill": {
            "workers_launched": faulted["workers_launched"],
            "workers_lost": faulted["workers_lost"],
            "leases_reissued": faulted["leases_reissued"],
            "results_rejected": faulted["results_rejected"],
            "jobs_per_worker": faulted["jobs_per_worker"],
            "recovery_overhead_seconds": round(faulted_s - pool_s, 3),
        },
        "outcomes_identical": identical,
    }


def _truncate_journal(path, keep_fraction):
    """Keep the header plus the first ``keep_fraction`` of the entries —
    the on-disk state of a campaign killed partway through."""
    lines = pathlib.Path(path).read_text().splitlines()
    header, entries = lines[0], lines[1:]
    kept = entries[: int(len(entries) * keep_fraction)]
    pathlib.Path(path).write_text("\n".join([header] + kept) + "\n")
    return len(kept)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="benchmark the whole 2047-property chip")
    parser.add_argument("--blocks", default="A,C",
                        help="comma-separated block subset (default A,C)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="fleet workers for the pool runs "
                             "(default: max(2, CPU count))")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced CI mode: compile-store and "
                             "SAT-workspace probes only, gated exit code")
    args = parser.parse_args()

    if args.smoke:
        workers = args.jobs or max(2, os.cpu_count() or 1)
        print(f"compile-store smoke probe ({workers} pool workers)")
        record = _bench_compile_store(workers)
        print("sat-workspace smoke probe (cold vs warm, serial)")
        sat_record = _bench_sat_workspace()
        out_path = OUT_PATH.parent / "BENCH_campaign_smoke.json"
        out_path.parent.mkdir(exist_ok=True)
        out_path.write_text(json.dumps(
            {"benchmark": "campaign_smoke",
             "stats_schema": STATS_SCHEMA,
             "host": _host_topology(workers),
             "compile_store": record,
             "sat_workspace": sat_record}, indent=2) + "\n")
        print(f"  perf record -> {out_path}")
        if not record["ok"]:
            print("  FAIL: compile store did not beat store-off "
                  "(hits, elaborations, or throughput regressed)")
        if not sat_record["ok"]:
            print("  FAIL: shared SAT workspace diverged from cold "
                  "solvers or reused no session")
        return 0 if record["ok"] and sat_record["ok"] else 1

    only = None if args.full else args.blocks.split(",")
    chip = ComponentChip(only_blocks=only)
    scope = "full chip" if args.full else f"blocks {','.join(only)}"
    workers = args.jobs or max(2, os.cpu_count() or 1)

    print(f"campaign smoke benchmark over {scope} "
          f"({workers} pool workers)")

    serial_report, serial_s = _timed_run(chip.blocks)
    print(f"  serial cold:        {serial_s:7.2f}s "
          f"({serial_report.total_properties} properties)")

    # campaigns default to shared SAT sessions, and explicit executor
    # objects bypass the config — opt the pool in so the serial/pool
    # comparison stays like-for-like on warm state
    pool_report, pool_s = _timed_run(
        chip.blocks,
        executor=FleetExecutor(workers=workers, share_sat=True),
    )
    print(f"  pool cold:          {pool_s:7.2f}s "
          f"({pool_report.stats['executor']})")

    with tempfile.TemporaryDirectory(prefix="bench_cache_") as cache_dir:
        cache_path = os.path.join(cache_dir, "results.sqlite")
        _timed_run(chip.blocks, cache=ResultCache(cache_path))
        warm_report, warm_s = _timed_run(chip.blocks,
                                         cache=ResultCache(cache_path))
    print(f"  warm cache:         {warm_s:7.2f}s "
          f"({warm_report.stats['cache_hits']} hits, "
          f"{warm_report.stats['cache_misses']} misses)")

    with tempfile.TemporaryDirectory(prefix="bench_ckpt_") as ckpt_dir:
        journal_path = os.path.join(ckpt_dir, "campaign.journal")
        checkpointed_report, checkpointed_s = _timed_run(
            chip.blocks, checkpoint=CampaignCheckpoint(journal_path)
        )
        print(f"  checkpointed cold:  {checkpointed_s:7.2f}s "
              f"(journaling overhead "
              f"{checkpointed_s - serial_s:+.2f}s vs serial)")
        kept = _truncate_journal(journal_path, 0.5)
        resumed_report, resumed_s = _timed_run(
            chip.blocks, checkpoint=CampaignCheckpoint(journal_path),
            resume=True,
        )
        print(f"  resumed half-way:   {resumed_s:7.2f}s "
              f"({resumed_report.stats['journal_replayed']} of "
              f"{resumed_report.total_properties} replayed from "
              f"{kept} journal entries)")

    compile_record = _bench_compile_store(workers)
    sat_record = _bench_sat_workspace()
    print("scenario-sweep probe (serial vs fleet)")
    scenario_record = _bench_scenario(workers)
    print("cone-addressing probe (module-cold vs cold and warm-golden "
          "cone sweeps)")
    coi_record = _bench_coi()
    print("fleet-transport probe (pool leg vs the same run with a "
          "worker SIGKILLed)")
    fleet_record = _bench_fleet(chip.blocks, workers, serial_report,
                                pool_report, pool_s)

    reports = {
        "serial": serial_report, "pool": pool_report,
        "warm": warm_report, "checkpointed": checkpointed_report,
        "resumed": resumed_report,
    }
    reference = serial_report.canonical_bytes()
    mismatched = [name for name, report in reports.items()
                  if report.canonical_bytes() != reference]
    from repro.core.report import format_table2
    tables_identical = all(
        format_table2(report) == format_table2(serial_report)
        for report in reports.values()
    )
    outcomes_identical = not mismatched
    if not tables_identical or not outcomes_identical:
        print(f"  WARNING: executors disagreed! mismatched={mismatched} "
              f"tables_identical={tables_identical}")

    record = {
        "benchmark": "campaign_orchestrator",
        "stats_schema": STATS_SCHEMA,
        "scope": scope,
        "properties": serial_report.total_properties,
        "host": _host_topology(workers),
        "cpu_count": os.cpu_count(),
        "pool_workers": workers,
        "pool_mode": pool_report.stats["executor"],
        "seconds": {
            "serial_cold": round(serial_s, 3),
            "pool_cold": round(pool_s, 3),
            "warm_cache": round(warm_s, 3),
            "checkpointed_cold": round(checkpointed_s, 3),
            "resumed_half": round(resumed_s, 3),
        },
        "speedup": {
            "pool_vs_serial": round(serial_s / pool_s, 2),
            "warm_vs_serial": round(serial_s / warm_s, 2),
            "resumed_half_vs_cold": round(
                checkpointed_s / resumed_s, 2
            ),
        },
        "cache": {
            "hits": warm_report.stats["cache_hits"],
            "misses": warm_report.stats["cache_misses"],
        },
        "resume": {
            "journal_replayed": resumed_report.stats["journal_replayed"],
            "checkpoint_overhead_seconds": round(
                checkpointed_s - serial_s, 3
            ),
        },
        "tables_identical": tables_identical,
        "outcomes_identical": outcomes_identical,
        # the serial run's counters in the one versioned shape the CLI
        # --stats printer and the service /metrics endpoint also serve
        "counter_groups": counter_groups(serial_report.stats),
        "compile_store": compile_record,
        "sat_workspace": sat_record,
        "scenario_sweep": scenario_record,
        "coi_cone_warm": coi_record,
        "fleet_transport": fleet_record,
    }
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"  perf record -> {OUT_PATH}")
    all_identical = (tables_identical and outcomes_identical
                     and compile_record["outcomes_identical"]
                     and sat_record["outcomes_identical"]
                     and scenario_record["ok"]
                     and coi_record["ok"]
                     and fleet_record["outcomes_identical"])
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
