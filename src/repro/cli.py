"""``python -m repro`` — the campaign CLI.

One TOML file reproduces one campaign::

    python -m repro campaign run    --config campaign.toml
    python -m repro campaign resume --config campaign.toml
    python -m repro campaign report --config campaign.toml
    python -m repro scenario sweep  --config scenario.toml
    python -m repro serve           --config campaign.toml
    python -m repro submit          --config campaign.toml --watch

- ``run`` executes the configured campaign over the component chip
  (``[campaign] blocks`` selects the block subset) and prints the
  paper's Table 2 plus the orchestration stats.  The exit code gates
  CI: 0 when every property passed, 1 when any FAILed or TIMEOUTed,
  2 on a config error;
- ``resume`` restarts a killed campaign from its checkpoint journal
  (the config must set ``[checkpoint] path``) — the finished report is
  byte-identical to an uninterrupted run;
- ``report`` is read-only: it re-derives the plan, inspects the
  journal and the result cache, and prints how much of the campaign is
  already settled — without running a single engine or writing a byte;
- ``scenario sweep`` runs a defect-seeding mutation campaign over a
  *generated* chip family (the config's ``[scenario]`` section; see
  ``docs/scenarios.md``) and prints the versioned detection-rate
  record.  Exit 0 means zero surviving mutants (and sim->formal
  agreement in triage mode), 1 otherwise;
- ``serve`` runs the verification-as-a-service daemon
  (:mod:`repro.service`): an HTTP API over the config's verdict store
  (``[cache] path``), configured by the ``[service]`` section (see
  ``docs/service.md``);
- ``submit`` posts the config to a running daemon and waits for (or
  ``--watch`` streams) the result.  Exit codes mirror ``campaign
  run``: 0 all passed, 1 any FAIL/TIMEOUT or a failed run, 2 on
  config/connection errors.

Every ``--config`` accepts a TOML path or ``preset:NAME``, resolving
to the preset library ``examples/presets/NAME.toml`` (``smoke`` |
``nightly`` | ``full`` — see ``docs/configuration.md``).

The ``campaign`` commands take ``--stats`` to additionally print the
warm-state counter blocks — compile-store hit/miss/evict and
SAT-workspace session reuse — from ``report.stats`` (``run`` /
``resume``) or aggregated from the journal's per-result solver
telemetry (``report``, still without running an engine).

Every command prints the config digest, the same value stamped into
``CampaignReport.stats["config_digest"]``, so output and configuration
can always be matched up after the fact.

The console entry point ``repro`` (see ``setup.py``) is this module's
:func:`main`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .orchestrate.config import CampaignConfig, ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Formal verification campaigns, reproducible from "
                    "one TOML config file.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    campaign = commands.add_parser(
        "campaign", help="run, resume, or inspect a formal campaign"
    )
    actions = campaign.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("run", "run the configured campaign from scratch"),
        ("resume", "resume a killed campaign from its checkpoint "
                   "journal"),
        ("report", "read-only status: plan size, journal and cache "
                   "coverage"),
    ):
        sub = actions.add_parser(action, help=help_text)
        sub.add_argument("--config", required=True, metavar="TOML",
                         help="campaign config file "
                              "(see docs/configuration.md)")
        sub.add_argument("--stats", action="store_true",
                         help="print warm-state counter blocks "
                              "(compile store, SAT workspace)")
        if action in ("run", "resume"):
            sub.add_argument("--progress", action="store_true",
                             help="print one line per checked property")
    scenario = commands.add_parser(
        "scenario", help="generated-chip-family mutation sweeps"
    )
    scenario_actions = scenario.add_subparsers(dest="action",
                                               required=True)
    sweep = scenario_actions.add_parser(
        "sweep",
        help="seed defects into a generated family and measure the "
             "stereotype properties' detection rate",
    )
    sweep.add_argument("--config", required=True, metavar="TOML",
                       help="campaign config with an optional "
                            "[scenario] section "
                            "(see docs/scenarios.md)")
    sweep.add_argument("--record", metavar="JSON",
                       help="also write the full sweep record (with "
                            "timing) to this file")
    sweep.add_argument("--progress", action="store_true",
                       help="print one line per checked property")
    sweep.add_argument("--warm-golden", action="store_true",
                       help="pre-run the golden modules against the "
                            "same cache so cone-fingerprinted mutant "
                            "jobs replay instead of re-solving "
                            "(runtime wiring: the sweep record digest "
                            "is unchanged)")
    serve = commands.add_parser(
        "serve",
        help="run the verification-as-a-service daemon "
             "(HTTP API + shared verdict store; see docs/service.md)",
    )
    serve.add_argument("--config", required=True, metavar="TOML",
                       help="campaign config with an optional "
                            "[service] section")
    serve.add_argument("--host", default=None, metavar="HOST",
                       help="bind address (overrides [service] host)")
    serve.add_argument("--port", default=None, type=int, metavar="PORT",
                       help="bind port (overrides [service] port; "
                            "0 = ephemeral)")
    submit = commands.add_parser(
        "submit",
        help="submit the campaign config to a running service daemon "
             "and wait for the verdict",
    )
    submit.add_argument("--config", required=True, metavar="TOML",
                        help="campaign config to submit")
    submit.add_argument("--url", default=None, metavar="URL",
                        help="the daemon's address (default: derived "
                             "from the config's [service] section)")
    submit.add_argument("--tenant", default="default", metavar="NAME",
                        help="metering tenant for /metrics")
    submit.add_argument("--watch", action="store_true",
                        help="stream one line per checked property "
                             "while the campaign runs")
    submit.add_argument("--timeout", default=600.0, type=float,
                        metavar="SECS",
                        help="give up waiting after this long "
                             "(default: 600)")
    return parser


#: ``--config preset:NAME`` resolves into this library directory
PRESET_NAMES = ("smoke", "nightly", "full")


def resolve_config_path(spec: str) -> str:
    """A ``--config`` value: a TOML path, or ``preset:NAME`` resolving
    to the preset library ``examples/presets/NAME.toml``."""
    if not spec.startswith("preset:"):
        return spec
    import os
    name = spec[len("preset:"):]
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; available presets: "
            f"{', '.join(PRESET_NAMES)}"
        )
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    path = os.path.join(root, "examples", "presets", f"{name}.toml")
    if not os.path.exists(path):
        raise ConfigError(
            f"preset {name!r} expected at {path} — presets ship with "
            f"the repository checkout, not the installed package"
        )
    return path


def _print_counters(title: str, counters: dict, indent: str = "  ") -> None:
    """One warm-state counter block: ``title: k=v k=v ...`` (skipped
    entirely when the feature was off and shipped no counters)."""
    flat = {key: value for key, value in counters.items()
            if isinstance(value, int)}
    if not flat:
        return
    body = " ".join(f"{key}={value}" for key, value in flat.items())
    print(f"{indent}{title}: {body}")


def _blocks(config: CampaignConfig):
    """The chip scope the config selects (late import: the CLI is the
    only orchestrate consumer that knows about the chip layer)."""
    from .chip import ComponentChip
    only = list(config.blocks) if config.blocks is not None else None
    return ComponentChip(only_blocks=only).blocks


def _run(config: CampaignConfig, resume: bool, progress: bool,
         show_stats: bool = False) -> int:
    from .core.report import format_status_summary, format_table2
    from .orchestrate import CampaignOrchestrator

    if resume and config.checkpoint_path is None:
        print("error: resume needs [checkpoint] path in the config",
              file=sys.stderr)
        return 2
    orchestrator = CampaignOrchestrator(_blocks(config), config=config)
    report = orchestrator.run(
        progress=print if progress else None, resume=resume
    )
    stats = report.stats
    print(format_table2(report))
    print()
    print(format_status_summary(report))
    print()
    print(f"executor:       {stats['executor']}")
    print(f"jobs:           {stats['jobs']} "
          f"({stats['journal_replayed']} journal-replayed, "
          f"{stats['cache_hits']} cache hits, "
          f"{stats['jobs_reused']} reused)")
    if stats["engine_attempts"]:
        attempts = ", ".join(
            f"{method}={count}" for method, count
            in sorted(stats["engine_attempts"].items())
        )
        print(f"engine attempts: {attempts}")
    if show_stats:
        # the versioned counter schema — the same groups /metrics and
        # the benchmark records serve (see repro.orchestrate.stats)
        from .orchestrate.stats import counter_groups
        print(f"counters ({stats.get('stats_schema', 'unversioned')}):")
        for group, counters in counter_groups(stats).items():
            _print_counters(group, counters)
    print(f"config digest:  {stats['config_digest']}")
    # gate CI on the verification outcome, like the benchmarks do:
    # a campaign that surfaced a FAIL (or starved into TIMEOUT) must
    # not exit green
    return 0 if report.all_passed else 1


def _report(config: CampaignConfig, show_stats: bool = False) -> int:
    """Read-only campaign status: how much is already settled, and how
    many distinct checks are left to run."""
    from .orchestrate import CampaignOrchestrator, plan_digest
    from .orchestrate.orchestrator import split_reuse

    orchestrator = CampaignOrchestrator(_blocks(config), config=config)
    plan = orchestrator.plan()
    journaled = {}
    if orchestrator.checkpoint is not None:
        journaled = orchestrator.checkpoint.load(
            plan_digest(plan), plan.total_jobs
        )
    cache = orchestrator.cache
    misses = [job for job in plan.jobs if job.index not in journaled
              and (cache is None or job.fingerprint not in cache)]
    cached = plan.total_jobs - len(journaled) - len(misses)
    reused, to_run = split_reuse(plan, journaled, misses)
    print(f"campaign over blocks "
          f"{', '.join(plan.block_order) or '(none)'}: "
          f"{plan.total_jobs} jobs across "
          f"{len(plan.modules_planned())} modules")
    print(f"  journal:  {len(journaled)} replayable "
          f"({config.checkpoint_path or 'not configured'})")
    print(f"  cache:    {cached} hits pending "
          f"({config.cache_path or 'not configured'})")
    print(f"  reuse:    {len(reused)} pending "
          f"(same check as an earlier job)")
    print(f"  to run:   {len(to_run)}")
    if show_stats and journaled:
        # aggregate journaled solver telemetry without replaying a
        # single engine: each entry's result carried its SAT counters
        sat_totals: dict = {}
        for entry in journaled.values():
            result_stats = (entry.get("result") or {}).get("stats")
            sat = result_stats.get("sat") \
                if isinstance(result_stats, dict) else None
            if not isinstance(sat, dict):
                continue
            for key, value in sat.items():
                # nested base/step splits stay out of the totals —
                # their counters are already in the merged top level
                if isinstance(value, int):
                    sat_totals[key] = sat_totals.get(key, 0) + value
        _print_counters("journaled sat totals", sat_totals)
    print(f"  config digest: {config.digest()}")
    return 0


def _sweep(config: CampaignConfig, record_path: Optional[str],
           progress: bool, warm_golden: bool = False) -> int:
    """Run the configured mutation sweep and print its record summary.

    The exit code gates CI on the methodology's quality bar: 0 when
    every seeded mutant was detected *and* (in triage mode) every sim
    FAIL was confirmed formally, 1 otherwise.
    """
    import json

    from .scenario import canonical_record_bytes, record_digest, \
        sweep_from_config

    try:
        record, _report_obj = sweep_from_config(
            config, progress=print if progress else None,
            warm_golden=warm_golden,
        )
    except ValueError as exc:
        # covers ConfigError plus the scenario layer's own validation
        # (bad family shape, unknown defect class)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    detection = record["detection"]
    print(f"family:         {record['family']['name']} "
          f"(digest {record['family_digest'][:12]})")
    print(f"defect classes: {', '.join(record['defect_classes'])}")
    print(f"mutants:        {detection['total']} seeded, "
          f"{detection['detected']} detected "
          f"(rate {detection['rate']:.3f})")
    if detection["survivors"]:
        print("survivors:")
        for site_id in detection["survivors"]:
            print(f"  {site_id}")
    triage = record["triage"]
    agreed = True
    if triage is not None:
        agreed = triage["formal_confirms_sim"]
        replayed = sum(1 for name in triage["replayed"].values()
                       if name is not None)
        print(f"triage:         {len(triage['screened'])} sim-screened "
              f"over {triage['sim_cycles']} cycles, "
              f"{replayed} counterexamples replayed formally, "
              f"sim->formal agreement "
              f"{'holds' if agreed else 'VIOLATED'}")
        for site_id in triage["disagreements"]:
            print(f"  disagreement: {site_id}")
    timing = record["timing"]
    warm_note = ""
    if timing.get("golden") is not None:
        warm_note = (f" (golden pre-run executed "
                     f"{timing['golden']['jobs_executed']} of "
                     f"{timing['golden']['jobs']})")
    print(f"jobs:           {timing['jobs_executed']} executed of "
          f"{timing['jobs']} planned, {timing['cone_hits']} cone hits"
          f"{warm_note}")
    print(f"record digest:  {record_digest(record)} "
          f"({len(canonical_record_bytes(record))} canonical bytes)")
    print(f"config digest:  {record['config_digest']}")
    if record_path is not None:
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"record written: {record_path}")
    return 0 if not detection["survivors"] and agreed else 1


def _serve(config: CampaignConfig, host: Optional[str],
           port: Optional[int]) -> int:
    """Run the service daemon in the foreground until interrupted."""
    from .service import ServiceDaemon

    daemon = ServiceDaemon(config, host=host, port=port)
    print(f"verdict db:     {daemon.db.path} "
          f"({len(daemon.db)} verdicts)")
    print(f"serving on:     {daemon.url}")
    print(f"config digest:  {config.digest()}", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.close()
    return 0


def _submit(config: CampaignConfig, url: Optional[str], tenant: str,
            watch: bool, timeout: float) -> int:
    """Submit to a running daemon; exit codes mirror ``campaign run``."""
    from .service import DEFAULT_HOST, DEFAULT_PORT, ServiceClient, \
        ServiceError

    if url is None:
        host = config.service_host or DEFAULT_HOST
        port = config.service_port or DEFAULT_PORT
        url = f"http://{host}:{port}"
    client = ServiceClient(url)
    try:
        ticket = client.submit(config, tenant=tenant)
        print(f"campaign:       {ticket['id']} "
              f"({'deduped onto in-flight run' if ticket['deduped'] else 'accepted'})")
        if watch:
            status = None
            for message in client.watch(ticket["id"]):
                if "event" in message:
                    print(message["event"])
                else:
                    status = message["status"]
            if status is None:
                status = client.status(ticket["id"])
        else:
            status = client.wait(ticket["id"], timeout=timeout)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if status["state"] != "done":
        print(f"error: campaign {status['state']}: "
              f"{status.get('error', 'unknown failure')}",
              file=sys.stderr)
        return 1
    print(f"verdict:        "
          f"{'all passed' if status['all_passed'] else 'FAILURES'} "
          f"({status['jobs']} jobs: {status['executed']} executed, "
          f"{status['verdict_hits']} verdict hits, "
          f"{status['journal_replayed']} journal-replayed)")
    print(f"config digest:  {status['config_digest']}")
    return 0 if status["all_passed"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = CampaignConfig.load(resolve_config_path(args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "serve":
        return _serve(config, host=args.host, port=args.port)
    if args.command == "submit":
        return _submit(config, url=args.url, tenant=args.tenant,
                       watch=args.watch, timeout=args.timeout)
    if args.command == "scenario":
        return _sweep(config, record_path=args.record,
                      progress=args.progress,
                      warm_golden=args.warm_golden)
    if args.action == "report":
        return _report(config, show_stats=args.stats)
    return _run(config, resume=args.action == "resume",
                progress=args.progress, show_stats=args.stats)


if __name__ == "__main__":
    sys.exit(main())
