"""The versioned campaign-stats schema — one shape for every consumer.

``CampaignReport.stats`` grew one ad-hoc counter block per warm-state
layer (compile store, SAT workspace, fleet transport, portfolio
attempts).  Each consumer — the CLI's ``--stats`` printer,
the campaign benchmark's records, and now the service daemon's
``/metrics`` endpoint — used to hand-pick its own subset, so adding a
counter meant touching every consumer and drifting was easy.

This module is the single contract instead:

- :data:`STATS_SCHEMA` names the schema version.  The orchestrator
  stamps it into ``report.stats["stats_schema"]``; records that embed
  stats (benchmark JSON, ``/metrics`` payloads, campaign status
  responses) carry the same string, so a consumer can refuse shapes it
  does not understand instead of mis-parsing them.
- :func:`counter_groups` flattens a ``report.stats`` dict into the
  canonical ``{group: {counter: int}}`` form.  Only integer-valued
  counters survive (nested breakdowns like the fleet's per-worker job
  map are presentation detail, not schema), empty groups are dropped,
  and group order is fixed — so two runs' metrics diff line-for-line.

Versioning rule: adding a *group* or a *counter*, or removing a
counter, is backward compatible and keeps ``repro-stats/v1`` —
consumers read counters with a default, and a group left with no
counters is dropped like any empty group.  Renaming or re-nesting
either bumps the version.
"""

from __future__ import annotations

from typing import Dict, Mapping

#: the version tag stamped into ``report.stats`` and every record that
#: embeds campaign counters (benchmark JSON, ``/metrics``, campaign
#: status).  Bump only on incompatible reshapes — additions and counter
#: removals are free.
STATS_SCHEMA = "repro-stats/v1"

#: group name -> where it lives in ``report.stats`` (a top-level key,
#: or ``(key, subkey)`` for the compile store's run/replay split).
#: Order here is the canonical group order of the schema.
_GROUPS = (
    ("orchestrator", None),
    ("compile_store_run", ("compile_store", "run")),
    ("compile_store_replay", ("compile_store", "replay")),
    ("sat_workspace", ("sat_workspace",)),
    ("fleet", ("fleet",)),
    ("coi", ("coi",)),
    ("engine_attempts", ("engine_attempts",)),
)

#: the orchestrator's own scalar counters, pulled from the top level
#: of ``report.stats`` into their own group
_ORCHESTRATOR_COUNTERS = (
    "jobs", "cache_hits", "cache_misses", "journal_replayed",
    "jobs_reused", "portfolio_reordered",
)


def counter_groups(stats: Mapping) -> Dict[str, Dict[str, int]]:
    """Flatten a ``report.stats`` dict into the canonical versioned
    counter shape: ``{group: {counter: int}}``.

    Tolerant by design — a stats dict from an older run (no
    ``stats_schema`` stamp, missing blocks) yields whatever groups it
    does carry; non-integer values (names, digests, nested per-worker
    maps) are simply not counters and are skipped.  Booleans are
    excluded too: they are flags, not tallies.
    """
    groups: Dict[str, Dict[str, int]] = {}
    for group, path in _GROUPS:
        if path is None:
            source = {key: stats.get(key)
                      for key in _ORCHESTRATOR_COUNTERS}
        else:
            source = stats
            for key in path:
                source = source.get(key) if isinstance(source, Mapping) \
                    else None
            if not isinstance(source, Mapping):
                continue
        counters = {
            key: value for key, value in source.items()
            if isinstance(value, int) and not isinstance(value, bool)
        }
        if counters:
            groups[group] = counters
    return groups
