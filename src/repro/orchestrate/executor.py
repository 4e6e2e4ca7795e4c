"""Job executors: serial and work-stealing.

An executor is anything with a ``name`` and a ``map(jobs)`` method that
yields one :class:`JobResult` per job **in job-index order**.  The
ordering contract is what makes every execution strategy produce the
same report: the orchestrator aggregates results as they stream out,
so serial, process-parallel, and distributed executors are
interchangeable without touching aggregation or report rendering.
(``tests/test_executor_contract.py`` is the executable form of the
contract — any new executor must pass that battery unchanged.)

``WorkStealingExecutor`` fans jobs out over a shared job queue that
idle workers pull from one unit at a time: a straggler check pins one
worker while the rest keep draining the queue, instead of idling the
pool behind a slow chunk.  Results come back unordered and are
reassembled into plan order by the parent, so the streaming contract
is preserved bit for bit.

Warm state per worker
---------------------

Every worker holds two pieces of warm state, built by the worker
itself and never shared across processes (which keeps reuse
lock-free):

- a content-addressed
  :class:`~repro.formal.problems.CompiledProblemStore` (on by default,
  ``compile_store=False`` to opt out; ``store_options`` forwards the
  ``max_designs`` LRU bound): a module's many jobs share one
  elaborated design keyed by the module's RTL digest, which makes
  module-affinity batches (one queue pull = one module's whole job
  group) hit a warm design for every job after the group's first —
  and makes the golden-vs-patched same-name case safe by
  construction, since two modules with different RTL can never share
  a digest;
- with ``share_sat=True``, a :class:`~repro.formal.satspace.SatWorkspace`
  (``sat_options`` forwards the constructor kwargs: ``cluster_limit``,
  ``max_sessions``, ``max_session_clauses``): ``kind`` stages query
  shared incremental solver sessions — clustered per-(module, vunit)
  CNFs, retained time-frame encodings, learned clauses surviving
  across assertions under per-assertion activation literals — instead
  of building cold solvers.  Verdicts, depths, and counterexample
  bytes are sharing-invariant (failing traces are re-derived cold on
  the solo compile), so ``CampaignReport.canonical_bytes`` is
  identical with sharing on or off; the one exception is a *binding*
  conflict budget, since retained clauses can steer CDCL search either
  way.

The serial executor holds one of each for the whole run (or accepts an
explicit ``store=`` / ``sat_workspace=`` to keep them warm across
runs); pool workers each build their own.  ``executor.compile_stats()``
and ``executor.sat_stats()`` aggregate every worker's counters after a
``map``; the orchestrator surfaces them in
``report.stats["compile_store"]`` and ``report.stats["sat_workspace"]``.

The process wire format
-----------------------

Pool workers never pickle whole :class:`JobResult` objects back to the
parent: results cross the process boundary as
:func:`~repro.orchestrate.job.encode_job_result` dicts — identification
scalars plus the serialized-result codec the cache and checkpoint
already speak, with FAIL counterexamples carried as canonical input
frames rather than the compiled transition system they replay on.  The
parent re-pairs each entry with its plan job and decodes through its
own compile store (:func:`~repro.orchestrate.job.decode_job_result`),
revalidating every FAIL trace by replay.  The same dict shape is the
wire format the socket fleet executor ships.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
from typing import Dict, Iterable, Iterator, List, Optional

from ..formal.problems import CompiledProblemStore
from ..formal.satspace import SatWorkspace
from .job import (
    CheckJob, JobResult, decode_job_result, encode_job_result,
    run_check_job,
)


def _build_store(compile_store: bool,
                 store_options: Optional[dict]
                 ) -> Optional[CompiledProblemStore]:
    return CompiledProblemStore(**(store_options or {})) \
        if compile_store else None


def _build_sat(share_sat: bool,
               sat_options: Optional[dict]) -> Optional[SatWorkspace]:
    return SatWorkspace(**(sat_options or {})) if share_sat else None


def _merge_worker_stats(worker_stats: Dict[int, dict]) -> Dict[str, int]:
    """Sum the freshest per-worker counter snapshots (``{}`` when no
    worker shipped any)."""
    if not worker_stats:
        return {}
    merged = CompiledProblemStore.merge_stats(*worker_stats.values())
    merged["workers"] = len(worker_stats)
    return merged


def _note_worker_stats(worker_stats: Dict[int, dict], pid: int,
                       snapshot: dict) -> None:
    """Fold one worker's store-counter snapshot into the per-pid map.

    Snapshots are monotonic counters but arrive in *result* order, not
    chronological order (plan-order reassembly, and scheduling policies
    may hand units out in any order) — so the freshest snapshot per pid
    is the element-wise maximum, not the last one seen.
    """
    current = worker_stats.setdefault(pid, {})
    for key, value in snapshot.items():
        if value > current.get(key, 0):
            current[key] = value


class SerialExecutor:
    """Run every job in-process, in plan order (the default).

    The compiled-problem store is on by default (``compile_store=False``
    opts out, ``store_options`` tunes the LRU bound), or pass an
    explicit ``store`` to keep elaborated designs warm across runs.
    SAT-session sharing follows the same shape: ``share_sat=True``
    builds a :class:`~repro.formal.satspace.SatWorkspace` (with
    ``sat_options``), or pass an explicit ``sat_workspace`` to keep
    solver sessions warm across runs.
    """

    name = "serial"

    def __init__(self, store: Optional[CompiledProblemStore] = None,
                 compile_store: bool = True,
                 store_options: Optional[dict] = None,
                 sat_workspace: Optional[SatWorkspace] = None,
                 share_sat: bool = False,
                 sat_options: Optional[dict] = None) -> None:
        if store is None:
            store = _build_store(compile_store, store_options)
        self.store = store
        if sat_workspace is None:
            sat_workspace = _build_sat(share_sat, sat_options)
        self.sat_workspace = sat_workspace

    def map(self, jobs: Iterable[CheckJob]) -> Iterator[JobResult]:
        """Yield one :class:`JobResult` per job, lazily, in plan order
        (trivially — jobs run one at a time in this process)."""
        for job in jobs:
            yield run_check_job(job, self.store,
                                sat_workspace=self.sat_workspace)

    def compile_stats(self) -> Dict[str, int]:
        """The store's lifetime counters (``{}`` when the store is
        off) — the serial executor's single worker is this process."""
        if self.store is None:
            return {}
        return {**self.store.stats(), "workers": 1}

    def sat_stats(self) -> Dict[str, int]:
        """The SAT workspace's lifetime counters (``{}`` when off)."""
        if self.sat_workspace is None:
            return {}
        return {**self.sat_workspace.stats(), "workers": 1}


def _pool_context():
    """Prefer fork (no re-import, cheap job shipping); fall back to the
    platform default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _steal_worker(job_queue, result_queue,
                  compile_store: bool = True,
                  store_options: Optional[dict] = None,
                  share_sat: bool = False,
                  sat_options: Optional[dict] = None) -> None:
    """Worker loop: pull one work unit at a time until the ``None``
    pill.  A unit is a list of jobs — one job under FIFO scheduling,
    one module's whole job group under module-affinity scheduling (see
    :mod:`repro.orchestrate.policy`) — run to completion before the
    next pull, each result shipped individually so the parent's
    plan-order stream stays as responsive as single-job stealing.

    Each payload is ``(job index, pickled wire dict | BaseException)``
    — the wire dict carries the encoded result plus this worker's pid
    and warm-state counters; the parent re-raises exceptions when their
    job's turn in plan order comes up.  A failing job poisons only the
    rest of its own unit (skipped — their results would be thrown away
    anyway); the worker keeps stealing other units, exactly like the
    single-job loop kept stealing other jobs.  Pickling happens here, in the worker, so an unpicklable
    error (a custom engine raising an exotic exception) turns into a
    descriptive RuntimeError instead of dying silently in the queue's
    feeder thread and masquerading as a dead worker; results
    themselves are plain JSON-able dicts and always pickle.

    FIFO-stolen jobs interleave modules, so the worker's private
    :class:`~repro.formal.problems.CompiledProblemStore` retains an LRU
    pool of designs rather than relying on contiguity; module-affinity
    units turn it into one elaboration per module group.
    """
    store = _build_store(compile_store, store_options)
    sat = _build_sat(share_sat, sat_options)
    while True:
        unit = job_queue.get()
        if unit is None:
            return
        failed = None
        for job in unit:
            if failed is not None:
                # a poisoned unit: the stream dies at the failed job's
                # plan position, so later same-unit results are moot —
                # but they must still be *answered* or the parent would
                # wait on a result that never comes
                result_queue.put((job.index, failed))
                continue
            try:
                payload = {
                    "result": encode_job_result(
                        run_check_job(job, store, sat_workspace=sat)
                    ),
                    "pid": os.getpid(),
                    "store": store.stats() if store is not None else None,
                    "sat": sat.stats() if sat is not None else None,
                }
            except BaseException as exc:  # ship the failure, keep going
                payload = exc
            try:
                blob = pickle.dumps(payload)
            except Exception as exc:
                kind = ("error" if isinstance(payload, BaseException)
                        else "result")
                blob = pickle.dumps(RuntimeError(
                    f"job {job.index} ({job.qualified_name}) produced "
                    f"an unpicklable {kind}: {exc}"
                ))
            if isinstance(payload, BaseException):
                failed = blob
            result_queue.put((job.index, blob))


class WorkStealingExecutor:
    """Pull-based multiprocessing executor: a shared job queue drained
    by ``processes`` workers, with an ordered reassembly buffer.

    Unlike static chunking, no job is committed to a worker before
    that worker is free: long checks
    (the Figure 7 oversized-cone scenario) occupy exactly one worker
    while every other worker keeps pulling, so tail latency is the
    longest single check rather than the longest chunk.  Results arrive
    out of order and are buffered by job index until they are next in
    plan order, preserving the streaming contract.

    ``scheduling`` is a
    :class:`~repro.orchestrate.policy.SchedulingPolicy` deciding what
    one "pull" hands a worker: the default FIFO policy hands single
    jobs (maximum balance), the module-affinity policy hands one
    module's whole job group (one worker keeps that module's warm
    state hot).  Scheduling changes steal order and worker
    affinity only — results are reassembled into plan order either
    way, so the campaign outcome is policy-invariant.

    ``poll_interval`` is how often the parent, while blocked waiting
    for the next result, checks that workers are still alive — once
    every worker is gone (hard kills included: OOM, SIGKILL) the
    stream raises ``RuntimeError`` instead of hanging.  One hazard is
    outside this detector's reach: a worker SIGKILLed at the exact
    moment it holds the shared job queue's reader lock (a known CPython
    ``multiprocessing`` limitation) can leave the *surviving* workers
    blocked on that lock forever, and a pool that is alive-but-stuck is
    indistinguishable from one running a long check, so that case still
    hangs.

    Engines registered at runtime via
    :func:`~repro.formal.engine.register_engine` reach workers only
    under the ``fork`` start method (workers inherit the parent's
    registry).  On spawn-only platforms workers re-import the engine
    module and see just the built-ins, so jobs using a custom engine
    fail with ``unknown method`` — run those campaigns serially there.
    """

    def __init__(self, processes: Optional[int] = None,
                 poll_interval: float = 0.1,
                 scheduling=None,
                 compile_store: bool = True,
                 store_options: Optional[dict] = None,
                 share_sat: bool = False,
                 sat_options: Optional[dict] = None) -> None:
        if processes is not None and processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be > 0, got {poll_interval}"
            )
        self.processes = processes or os.cpu_count() or 1
        self.poll_interval = poll_interval
        self.compile_store = compile_store
        self.store_options = store_options
        self.share_sat = share_sat
        self.sat_options = sat_options
        if scheduling is None:
            from .policy import FifoScheduling
            scheduling = FifoScheduling()
        self.scheduling = scheduling
        self._fell_back = False
        self._fallback: Optional[SerialExecutor] = None
        self._worker_stats: Dict[int, dict] = {}
        self._sat_worker_stats: Dict[int, dict] = {}

    @property
    def name(self) -> str:
        """Reports the *effective* mode: a 1-worker or <=1-job run
        never spawns workers, and stats must not claim it did."""
        if self._fell_back:
            return "work-stealing[serial-fallback]"
        return "work-stealing"

    def map(self, jobs: Iterable[CheckJob]) -> Iterator[JobResult]:
        """Stream results in plan order: workers pull jobs one at a
        time off a shared queue, the parent buffers out-of-order
        completions by index and yields each result (or raises its
        error) exactly when its plan-order turn comes up."""
        jobs = list(jobs)
        if len(jobs) <= 1 or self.processes == 1:
            self._fell_back = True
            self._fallback = SerialExecutor(
                compile_store=self.compile_store,
                store_options=self.store_options,
                share_sat=self.share_sat,
                sat_options=self.sat_options,
            )
            yield from self._fallback.map(jobs)
            return
        self._fell_back = False
        self._fallback = None
        self._worker_stats = {}
        self._sat_worker_stats = {}
        # the parent's own store only pays for FAIL-trace decodes (a
        # recompile per failing module), so the default bound is fine
        decode_store = _build_store(self.compile_store,
                                    self.store_options)
        units = self.scheduling.batches(jobs)
        if sorted(job.index for unit in units for job in unit) != \
                sorted(job.index for job in jobs):
            raise RuntimeError(
                f"scheduling policy {self.scheduling.name!r} lost or "
                f"duplicated jobs while batching"
            )
        context = _pool_context()
        job_queue = context.Queue()
        result_queue = context.Queue()
        worker_count = min(self.processes, len(units))
        for unit in units:
            job_queue.put(unit)
        for _ in range(worker_count):
            job_queue.put(None)  # one stop pill per worker
        workers = [
            context.Process(target=_steal_worker,
                            args=(job_queue, result_queue,
                                  self.compile_store,
                                  self.store_options,
                                  self.share_sat,
                                  self.sat_options),
                            daemon=True)
            for _ in range(worker_count)
        ]
        for worker in workers:
            worker.start()
        #: JobResult or BaseException by job index; exceptions are
        #: raised only when their job is next in plan order, so every
        #: earlier completed result streams out (and gets journaled)
        #: first
        buffered: Dict[int, object] = {}
        try:
            for job in jobs:
                while job.index not in buffered:
                    index, blob = self._next_payload(
                        result_queue, workers
                    )
                    buffered[index] = pickle.loads(blob)
                payload = buffered.pop(job.index)
                if isinstance(payload, BaseException):
                    raise payload
                self._note_payload_stats(payload)
                yield decode_job_result(payload["result"], job,
                                        decode_store)
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
            for worker in workers:
                worker.join()
            # the job queue may still hold unpulled jobs when the
            # consumer closes the stream early; don't let their feeder
            # threads block interpreter shutdown
            for q in (job_queue, result_queue):
                q.cancel_join_thread()
                q.close()

    def _note_payload_stats(self, payload: dict) -> None:
        pid = payload["pid"]
        if payload.get("store") is not None:
            _note_worker_stats(self._worker_stats, pid, payload["store"])
        if payload.get("sat") is not None:
            _note_worker_stats(self._sat_worker_stats, pid, payload["sat"])

    def compile_stats(self) -> Dict[str, int]:
        """Aggregated per-worker store counters from the last ``map``
        (each worker ships its latest snapshot with every result);
        ``{}`` when the store is off."""
        if self._fallback is not None:
            return self._fallback.compile_stats()
        return _merge_worker_stats(self._worker_stats)

    def sat_stats(self) -> Dict[str, int]:
        """Aggregated per-worker SAT-workspace counters from the last
        ``map``; ``{}`` when sharing is off."""
        if self._fallback is not None:
            return self._fallback.sat_stats()
        return _merge_worker_stats(self._sat_worker_stats)

    def _next_payload(self, result_queue, workers: List) -> tuple:
        """Block for the next (index, payload) pair, watching for a
        silently-dead pool."""
        while True:
            try:
                return result_queue.get(timeout=self.poll_interval)
            except queue_module.Empty:
                if any(worker.is_alive() for worker in workers):
                    continue
                # all workers gone — allow one grace read for payloads
                # still in the queue's pipe buffer, then give up
                try:
                    return result_queue.get(timeout=1.0)
                except queue_module.Empty:
                    raise RuntimeError(
                        "work-stealing pool died without delivering "
                        "all results (worker killed?)"
                    ) from None
