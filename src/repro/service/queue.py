"""The service submission queue — dedup in flight, drain through the
configured executor into the shared verdict store.

:class:`CampaignQueue` is the daemon's async request path.  Clients
submit a full :class:`~repro.orchestrate.config.CampaignConfig`; the
queue keys each submission by the config's content digest and dedupes
*in flight*: a second client posting an identical config while the
first is queued or running is attached to the same
:class:`CampaignRun` instead of scheduling a duplicate — one
underlying job run, every subscriber sees the same report bytes.

Job-level dedup falls out of the shared verdict store (a
:class:`~repro.orchestrate.cache.ResultCache`): the queue's worker runs
one campaign at a time through a stock
:class:`~repro.orchestrate.CampaignOrchestrator` wired with that store
as its cache, so any job fingerprint ever settled — by an earlier
campaign or a different tenant — partitions out as an instant verdict
hit, and only genuine misses reach the configured executor
(``serial`` or the parallel ``fleet:N``; the config decides, the queue
does not care).

The store is the served campaign's one persistence path: the queue
keeps no checkpoint journal, whatever the submitted config says.
Every verdict commits to the store the moment it is settled, so a
daemon SIGKILL mid-run loses at most the verdict in flight, and
re-submitting the same config to a restarted daemon serves the
settled verdicts as hits and runs only the rest, into byte-identical
report bytes.  A completed campaign's re-submission is a 100%
verdict-cache hit with zero jobs executed, which is the service's
whole point.

Per-tenant metering (submissions, dedup attaches, completions,
failures, jobs executed, verdict hits) accumulates in the queue and is
served by ``GET /metrics``.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..orchestrate import CampaignOrchestrator, ResultCache
from ..orchestrate.config import CampaignConfig
from ..orchestrate.stats import STATS_SCHEMA, counter_groups

#: submission states, in lifecycle order
QUEUED, RUNNING, DONE, ERROR = "queued", "running", "done", "error"


def _default_blocks(config: CampaignConfig):
    """The chip scope a config selects — the CLI's resolution, shared
    (late import: the service is chip-agnostic except right here)."""
    from ..chip import ComponentChip
    only = list(config.blocks) if config.blocks is not None else None
    return ComponentChip(only_blocks=only).blocks


class CampaignRun:
    """One submitted campaign: identity, lifecycle state, progress
    events, and (when finished) the canonical outcome."""

    def __init__(self, run_id: str, config: CampaignConfig,
                 tenant: str) -> None:
        self.id = run_id
        self.config = config
        self.config_digest = config.digest()
        self.tenant = tenant
        self.state = QUEUED
        self.submitted_at = time.time()
        self.error: Optional[str] = None
        #: one line per checked property, in plan order
        self.events: List[str] = []
        #: set when the run reaches DONE: canonical_bytes as text,
        #: pass/fail, and the versioned counter groups
        self.canonical: Optional[str] = None
        self.all_passed: Optional[bool] = None
        self.seconds: Optional[float] = None
        self.jobs: Optional[int] = None
        self.executed: Optional[int] = None
        self.verdict_hits: Optional[int] = None
        self.journal_replayed: Optional[int] = None
        self.counter_groups: Optional[Dict[str, Dict[str, int]]] = None
        self.finished = threading.Event()
        #: notified on every event append and state change — what the
        #: streaming status endpoint blocks on
        self.changed = threading.Condition()

    def snapshot(self) -> dict:
        """The status payload of ``GET /v1/campaigns/<id>``."""
        payload = {
            "id": self.id,
            "state": self.state,
            "tenant": self.tenant,
            "config_digest": self.config_digest,
            "submitted_at": self.submitted_at,
            "events": len(self.events),
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.state == DONE:
            payload.update({
                "all_passed": self.all_passed,
                "canonical": self.canonical,
                "seconds": self.seconds,
                "jobs": self.jobs,
                "executed": self.executed,
                "verdict_hits": self.verdict_hits,
                "journal_replayed": self.journal_replayed,
                "stats_schema": STATS_SCHEMA,
                "counter_groups": self.counter_groups,
            })
        return payload

    def _note(self, line: str) -> None:
        with self.changed:
            self.events.append(line)
            self.changed.notify_all()

    def _transition(self, state: str) -> None:
        with self.changed:
            self.state = state
            self.changed.notify_all()
        if state in (DONE, ERROR):
            self.finished.set()


class CampaignQueue:
    """Single-worker submission queue over a shared verdict store.

    ``blocks_provider`` maps a config to the blocks to campaign over
    (defaults to the component chip — tests substitute tiny scopes);
    ``throttle`` sleeps that many seconds per progress event, a fault-
    injection hook that widens the window for kill-mid-run tests.
    """

    def __init__(self, db: ResultCache,
                 blocks_provider: Optional[Callable] = None,
                 throttle: float = 0.0) -> None:
        self.db = db
        self._blocks = blocks_provider or _default_blocks
        self._throttle = throttle
        self._lock = threading.Lock()
        self._pending = collections.deque()
        self._wakeup = threading.Condition(self._lock)
        self._runs: Dict[str, CampaignRun] = {}
        #: config digest -> in-flight run (queued or running); the
        #: dedup index — entries leave when their run finishes
        self._in_flight: Dict[str, CampaignRun] = {}
        self._tenants: Dict[str, Dict[str, int]] = {}
        self._seq = 0
        self._closed = False
        self._worker = threading.Thread(target=self._drain,
                                        name="campaign-queue",
                                        daemon=True)
        self._worker.start()

    # -- submission ----------------------------------------------------
    def submit(self, config: CampaignConfig,
               tenant: str = "default") -> Tuple[CampaignRun, bool]:
        """Enqueue a campaign; returns ``(run, deduped)``.

        ``deduped`` is True when an identical config (same content
        digest) was already in flight and this submission attached to
        it — the defining service behaviour: N clients, one run.
        """
        digest = config.digest()
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is shut down")
            meter = self._tenants.setdefault(tenant, {
                "submissions": 0, "deduped": 0, "completed": 0,
                "failed": 0, "jobs_executed": 0, "verdict_hits": 0,
            })
            meter["submissions"] += 1
            existing = self._in_flight.get(digest)
            if existing is not None:
                meter["deduped"] += 1
                return existing, True
            self._seq += 1
            run = CampaignRun(f"c{self._seq:06d}-{digest[:12]}",
                              config, tenant)
            self._runs[run.id] = run
            self._in_flight[digest] = run
            self._pending.append(run)
            self._wakeup.notify_all()
            return run, False

    def get(self, run_id: str) -> Optional[CampaignRun]:
        with self._lock:
            return self._runs.get(run_id)

    # -- the worker ----------------------------------------------------
    def _drain(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wakeup.wait()
                if self._closed and not self._pending:
                    return
                run = self._pending.popleft()
            self._serve(run)
            with self._lock:
                if self._in_flight.get(run.config_digest) is run:
                    del self._in_flight[run.config_digest]

    def _serve(self, run: CampaignRun) -> None:
        run._transition(RUNNING)

        def progress(line: str) -> None:
            run._note(line)
            if self._throttle:
                time.sleep(self._throttle)

        try:
            blocks = self._blocks(run.config)
            # the store, not a journal, is what a re-submission resumes
            # from: every verdict is committed there as it settles
            orchestrator = CampaignOrchestrator(
                blocks, cache=self.db,
                config=dataclasses.replace(run.config,
                                           checkpoint_path=None),
            )
            report = orchestrator.run(progress=progress)
        except Exception as exc:
            run.error = f"{type(exc).__name__}: {exc}"
            with self._lock:
                self._tenants[run.tenant]["failed"] += 1
            run._transition(ERROR)
            return
        stats = report.stats
        run.canonical = report.canonical_bytes().decode("utf-8")
        run.all_passed = report.all_passed
        run.seconds = report.seconds
        run.jobs = stats["jobs"]
        # the jobs that ran: a miss may reuse an earlier job's verdict
        run.executed = stats["coi"]["jobs_executed"]
        run.verdict_hits = stats["cache_hits"]
        run.journal_replayed = stats["journal_replayed"]
        run.counter_groups = counter_groups(stats)
        with self._lock:
            meter = self._tenants[run.tenant]
            meter["completed"] += 1
            meter["jobs_executed"] += run.executed
            meter["verdict_hits"] += run.verdict_hits
        run._transition(DONE)

    # -- introspection -------------------------------------------------
    def metrics(self) -> dict:
        """Per-tenant metering plus queue totals, for /metrics."""
        with self._lock:
            tenants = {name: dict(meter)
                       for name, meter in self._tenants.items()}
            totals: Dict[str, int] = {}
            for meter in tenants.values():
                for key, value in meter.items():
                    totals[key] = totals.get(key, 0) + value
            return {
                "tenants": tenants,
                "totals": totals,
                "runs": len(self._runs),
                "in_flight": len(self._in_flight),
            }

    def close(self, timeout: float = 10.0) -> bool:
        """Stop accepting submissions and let the worker finish the
        backlog (bounded by ``timeout``); returns whether it did."""
        with self._lock:
            self._closed = True
            self._wakeup.notify_all()
        self._worker.join(timeout)
        return not self._worker.is_alive()
