"""The parallel executor: forked workers fed over socket pairs in the
portable job wire format.

``FleetExecutor`` is the campaign's one parallel executor: a
coordinator thread in the campaign process serves the plan's jobs to
worker processes forked on this host, each over its own
``socket.socketpair()``, speaking **length-prefixed JSON**.  Workers
are forked holding the plan's (frozen) jobs, so a lease names its one
job by ``index`` and ``fingerprint`` only, and a result frame carries
the index, the fingerprint and the job's
:func:`~repro.orchestrate.job.encode_result` entry — FAIL
counterexamples as canonical input frames, revalidated by replay on the
coordinator.  No pickle ever crosses the socket.

The transport preserves the executor streaming contract exactly
(``tests/test_executor_contract.py`` certifies it like every other
executor): results are buffered by job index and yielded in plan order,
worker errors re-raise at the failed job's plan-order turn, and the
orchestrator's :class:`~repro.orchestrate.checkpoint.CampaignCheckpoint`
journaling therefore works unchanged — a killed coordinator resumes
byte-identically, because resume is a property of the *orchestrator*
loop, not of any transport.

Coordinator thread
------------------

The per-worker reader threads only enqueue events.  One coordinator
thread drains them and does everything else — frame handling, leasing,
stall checks, respawns — under one :class:`threading.Condition`; the
consumer (the orchestrator's loop) only waits on that condition for its
next plan index or a stored :class:`FleetError`.  A worker that
finishes its lease is re-leased at once, while the consumer is still
journaling, caching or decoding earlier results.

Lease lifecycle
---------------

The coordinator hands each idle worker one *lease* at a time, and a
lease is one job: the pending deque holds the plan's jobs in plan
order, so the fleet pulls them first come, first served, and a worker
that finishes is re-leased the next job at once.  Workers heartbeat on
a fixed interval — also *during* long checks, from a background
thread — so liveness and progress are separate signals:

- a worker whose socket dies (SIGKILL, OOM, an exit before its first
  frame) is detected immediately at EOF; its leased job goes back to
  the front of the pending deque (``leases_reissued``);
- a worker that stops heartbeating for ``lease_timeout`` seconds is
  declared a *zombie*: its lease is revoked and re-queued, and any
  frame it sends later — a late result, a duplicate — is rejected
  (``results_rejected``), never accepted.  Acceptance is
  **at-most-once**, keyed by job fingerprint: a result frame is
  accepted only if it names the worker's active lease and that
  lease's job, which is still unanswered, and the frame's fingerprint
  matches the plan's job.
- lost workers are replaced through the launcher up to a bounded
  respawn budget; when no worker is left and the budget is spent, the
  stream raises instead of wedging.  At the end of the stream zombie
  and dead workers are killed, not waited for.

Every accepted result frame carries its worker's warm-state counter
snapshots; the coordinator keys them by the name it gave the worker at
launch (``w0``, ``w1``, …) — never by pid — and ``compile_stats()`` /
``sat_stats()`` sum the freshest snapshot of each worker.

Workers
-------

:class:`LocalFleetLauncher` forks each worker with one end of its
socket pair; the coordinator keeps the other.  Under the ``fork``
start method workers inherit the in-memory job list, so only job
*identity* (index and fingerprint) ever crosses the socket.  Engines
registered at runtime via :func:`~repro.formal.engine.register_engine`
reach workers only under ``fork``; on spawn-only platforms run such
campaigns serially.  A forked child also inherits the coordinator's
end of its own pair and of every earlier worker's pair: it closes them
all before serving, so that its socket reaches EOF when the
coordinator dies and no worker outlives it.  The launcher closes its
own copy of the child's end after the fork, so a worker that dies is
seen at once as EOF on the coordinator's end.  The launcher is also
the test seam: the fault suite launches scripted or thread-backed
workers through the same interface.
"""

from __future__ import annotations

import builtins
import collections
import json
import multiprocessing
import os
import queue as queue_module
import socket
import struct
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional

from ..formal.problems import CompiledProblemStore
from ..formal.satspace import SatWorkspace
from .executor import SerialExecutor
from .job import (
    CheckJob, JobResult, decode_result, encode_result, run_check_job,
)


class FleetError(RuntimeError):
    """A fleet transport failure the coordinator cannot recover from
    (all workers lost with the respawn budget spent, a launcher that
    cannot start workers)."""


class FrameError(FleetError):
    """A malformed or truncated wire frame: bad length prefix, short
    read, invalid UTF-8/JSON, or a non-object payload.  Raised loudly
    at the reading end; the coordinator responds by dropping that
    worker's connection and re-leasing its jobs — one bad peer never
    wedges the stream."""


#: hard upper bound on one frame's payload; anything larger is a
#: corrupt length prefix, not a real message (legitimate frames are
#: far smaller: a lease is about 120 bytes of JSON, a FAIL reply with
#: its counterexample frames about 1 KiB on the chip's blocks)
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def send_frame(sock: socket.socket, payload: dict) -> None:
    """Write one length-prefixed JSON frame: 4-byte big-endian length,
    then the UTF-8 JSON body.  Raises :class:`FrameError` when the
    payload is not JSON-able or exceeds :data:`MAX_FRAME_BYTES`."""
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise FrameError(f"frame payload is not JSON-able: {exc}") \
            from None
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    sock.sendall(_LENGTH.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one length-prefixed JSON frame.

    Returns ``None`` on a clean EOF at a frame boundary (the peer
    closed after a complete frame).  Any other shortfall fails loudly:
    a truncated prefix or body, a zero or absurd length, junk bytes, or
    a non-object payload raise :class:`FrameError` — corrupt transport
    must never be mistaken for an empty or absent message.
    """
    header = _recv_exact(sock, _LENGTH.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise FrameError(f"invalid frame length {length}")
    body = _recv_exact(sock, length, eof_ok=False)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"undecodable frame body: {exc}") from None
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    return payload


def _recv_exact(sock: socket.socket, count: int,
                eof_ok: bool) -> Optional[bytes]:
    """Read exactly ``count`` bytes, riding out fragmented reads.
    EOF before the first byte returns ``None`` when ``eof_ok`` (a
    frame boundary); EOF anywhere else is a truncated frame."""
    chunks: List[bytes] = []
    received = 0
    while received < count:
        chunk = sock.recv(min(65536, count - received))
        if not chunk:
            if eof_ok and received == 0:
                return None
            raise FrameError(
                f"truncated frame: expected {count} bytes, got {received}"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def _hangup(conn: socket.socket) -> None:
    """Actively hang up one connection: ``shutdown`` before ``close``.

    A bare ``close()`` is not enough when another thread is blocked in
    ``recv()`` on the same socket — the kernel keeps the open file
    description alive for the duration of that in-flight syscall, so
    the peer (and our reader thread) would block forever.
    ``shutdown(SHUT_RDWR)`` wakes the blocked reader with EOF and ends
    the peer's stream immediately."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        conn.close()
    except OSError:
        pass


def _rebuild_exception(exc_type: str, message: str) -> BaseException:
    """Reconstruct a worker-side exception from its wire description.
    Builtin exception types cross the socket faithfully (the contract
    battery expects ``ValueError("unknown method ...")`` to arrive as a
    ``ValueError``); anything else degrades to a ``RuntimeError``
    naming the original type."""
    cls = getattr(builtins, exc_type, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        try:
            return cls(message)
        except Exception:
            pass
    return RuntimeError(f"{exc_type}: {message}")


def _lease_frame(lease_id: int, job: CheckJob) -> dict:
    """The lease of one job: what a worker holding the plan needs to
    find the job (``index``) and to refuse it if its own copy differs
    (``fingerprint``)."""
    return {"type": "lease", "lease": lease_id, "index": job.index,
            "fingerprint": job.fingerprint}


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------

def _heartbeat_loop(send, interval: float, stop: threading.Event) -> None:
    """Background liveness signal: one heartbeat frame per interval,
    including while the main worker thread is deep in a long check —
    that separation is what lets the coordinator tell "slow" from
    "dead"."""
    while not stop.wait(interval):
        try:
            send({"type": "heartbeat"})
        except (OSError, FrameError):
            return


def _fleet_worker_main(worker_id: str, conn: socket.socket,
                       settings: dict, jobs: List[CheckJob]) -> None:
    """One fleet worker's whole life: serve leases on ``conn`` until
    shutdown (or the coordinator's end closes).

    ``jobs`` is the plan's job list, inherited in memory.  A lease
    names its job by ``index`` and ``fingerprint``; it is matched to
    the local job by index and its fingerprint cross-checked, so a
    worker never answers for a job it does not hold.

    A failing job answers with an error frame; the worker then keeps
    serving further leases.
    """
    jobs_by_index = {job.index: job for job in jobs}
    store = CompiledProblemStore() \
        if settings.get("compile_store", True) else None
    sat = SatWorkspace() if settings.get("share_sat", False) else None
    send_lock = threading.Lock()

    def _send(payload: dict) -> None:
        with send_lock:
            send_frame(conn, payload)

    stop = threading.Event()
    interval = float(settings.get("heartbeat_interval", 0.5))
    try:
        threading.Thread(target=_heartbeat_loop,
                         args=(_send, interval, stop),
                         daemon=True).start()
        while True:
            frame = recv_frame(conn)
            if frame is None or frame.get("type") == "shutdown":
                return
            if frame.get("type") != "lease":
                continue
            index = frame.get("index")
            reply = {"lease": frame.get("lease"), "index": index}
            job = jobs_by_index.get(index)
            if job is None or job.fingerprint != frame.get("fingerprint"):
                reply.update(type="error", exc_type="RuntimeError",
                             message=f"fleet worker {worker_id}: leased "
                                     f"job {index} does not match the "
                                     f"local plan (fingerprint mismatch)")
            else:
                try:
                    result = run_check_job(job, store,
                                           sat_workspace=sat).result
                except BaseException as exc:
                    reply.update(type="error",
                                 exc_type=type(exc).__name__,
                                 message=str(exc))
                else:
                    reply.update(
                        type="result", fingerprint=job.fingerprint,
                        result=encode_result(result),
                        store=store.stats() if store is not None
                        else None,
                        sat=sat.stats() if sat is not None else None,
                    )
            _send(reply)
    except (OSError, FrameError):
        return  # coordinator died or dropped us; local state is moot
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


def _forked_worker(worker_id: str, conn: socket.socket, settings: dict,
                   jobs: List[CheckJob],
                   coordinator_ends: List[socket.socket]) -> None:
    """Process entry of a forked worker: drop the coordinator's socket
    ends inherited through the fork — holding one would keep a dead
    coordinator's socket open, and the worker with it — then serve."""
    for end in coordinator_ends:
        end.close()
    _fleet_worker_main(worker_id, conn, settings, jobs)


# ----------------------------------------------------------------------
# the launcher
# ----------------------------------------------------------------------

def _pool_context():
    """Prefer fork (no re-import, cheap job shipping); fall back to the
    platform default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


class LocalFleetLauncher:
    """Fork fleet workers on this host.

    ``launch`` hands the child its end of the worker's socket pair and
    closes the parent's copy; ``coordinator_ends`` are the sockets the
    coordinator holds, which the child closes before serving.  ``stop``
    sends SIGKILL: a SIGSTOPped worker would never act on SIGTERM, and
    a worker holds nothing worth a graceful exit.
    """

    name = "local"

    def launch(self, worker_id: str, conn: socket.socket,
               settings: dict, jobs: List[CheckJob],
               coordinator_ends: List[socket.socket]):
        process = _pool_context().Process(
            target=_forked_worker,
            args=(worker_id, conn, settings, jobs, coordinator_ends),
            daemon=True,
        )
        try:
            process.start()
        finally:
            conn.close()  # the child holds the worker's end now
        return process

    def stop(self, handle) -> None:
        if handle.is_alive():
            handle.kill()

    def join(self, handle, timeout: Optional[float] = None) -> None:
        handle.join(timeout)


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------

def _note_worker_stats(worker_stats: Dict[str, dict], worker: str,
                       snapshot: dict) -> None:
    """Fold one worker's counter snapshot into the per-worker map.

    Snapshots are monotonic counters but arrive in completion order
    across leases, so the freshest snapshot per worker is the
    element-wise maximum, not the last one seen.
    """
    current = worker_stats.setdefault(worker, {})
    for key, value in snapshot.items():
        if value > current.get(key, 0):
            current[key] = value


def _merge_worker_stats(worker_stats: Dict[str, dict]) -> Dict[str, int]:
    """Sum the freshest per-worker counter snapshots (``{}`` when no
    worker shipped any)."""
    if not worker_stats:
        return {}
    merged = CompiledProblemStore.merge_stats(*worker_stats.values())
    merged["workers"] = len(worker_stats)
    return merged


class _Lease:
    """One outstanding lease: its wire id and its one job."""

    __slots__ = ("id", "job")

    def __init__(self, lease_id: int, job: CheckJob) -> None:
        self.id = lease_id
        self.job = job


class _WorkerState:
    """Coordinator-side view of one worker: its name, the
    coordinator's end of its socket pair, and its launcher handle."""

    __slots__ = ("name", "conn", "handle", "lease", "last_seen",
                 "zombie", "dead")

    def __init__(self, name: str, conn: socket.socket, handle) -> None:
        self.name = name
        self.conn = conn
        self.handle = handle
        self.lease: Optional[_Lease] = None
        self.last_seen = time.monotonic()
        self.zombie = False  # stalled: lease revoked, frames rejected
        self.dead = False    # connection gone


class _FleetRun:
    """All per-``map`` coordinator state: the workers, the lease
    ledger, and the plan-order result buffer.  Reader threads only
    enqueue events; the coordinator thread drains them, and every
    change to this state happens under ``cond``."""

    def __init__(self, executor: "FleetExecutor",
                 jobs: List[CheckJob]) -> None:
        self.executor = executor
        self.jobs = jobs
        self.unsettled = {job.index for job in jobs}
        self.settled: Dict[int, object] = {}
        #: jobs not leased yet, in plan order (a revoked lease's job
        #: goes back to the front)
        self.pending = collections.deque(jobs)
        self.events = queue_module.Queue()
        self.cond = threading.Condition()
        #: an unrecoverable coordinator failure, raised to the consumer
        #: when it next waits for an unsettled index
        self.error: Optional[BaseException] = None
        self.coordinator: Optional[threading.Thread] = None
        self.halted = False
        self.workers: Dict[str, _WorkerState] = {}
        self.next_lease_id = 0
        self.respawns_used = 0
        self.closed = False
        #: freshest warm-state counters per worker name, by kind
        self.worker_stats: Dict[str, Dict[str, dict]] = {
            "store": {}, "sat": {},
        }
        self.stats = {
            "workers_launched": 0,
            "workers_lost": 0,
            "leases_issued": 0,
            "leases_reissued": 0,
            "results_rejected": 0,
            "jobs_per_worker": {},
        }
        timeout = executor.lease_timeout
        self.tick = max(0.02, min(executor.heartbeat_interval,
                                  timeout / 4.0, 0.25))

    # -- startup -------------------------------------------------------
    def start(self) -> None:
        for _ in range(min(self.executor.workers, len(self.jobs))):
            self._launch_one()
        self.coordinator = threading.Thread(target=self._coordinate,
                                            daemon=True)
        self.coordinator.start()

    def _launch_one(self) -> None:
        name = f"w{len(self.workers)}"
        conn, worker_end = socket.socketpair()
        ends = [state.conn for state in self.workers.values()] + [conn]
        launcher = self.executor.launcher
        try:
            handle = launcher.launch(
                name, worker_end, self.executor._worker_settings(),
                self.jobs, ends,
            )
        except Exception as exc:
            conn.close()
            worker_end.close()
            raise FleetError(
                f"fleet launcher {launcher.name!r} failed to start "
                f"worker {name}: {exc}"
            ) from exc
        state = _WorkerState(name, conn, handle)
        self.workers[name] = state
        self.stats["workers_launched"] += 1
        self.stats["jobs_per_worker"][name] = 0
        threading.Thread(target=self._reader, args=(state,),
                         daemon=True).start()

    # -- reader threads ------------------------------------------------
    def _reader(self, state: _WorkerState) -> None:
        try:
            while True:
                frame = recv_frame(state.conn)
                if frame is None:
                    self.events.put(("gone", state, "connection closed"))
                    return
                self.events.put(("frame", state, frame))
        except (FrameError, OSError) as exc:
            self.events.put(("gone", state, str(exc)))

    # -- the coordinator thread ----------------------------------------
    def _coordinate(self) -> None:
        """Lease to idle workers, revoke stalled leases, replace lost
        workers, then handle the next event — until halted.  A failure
        is stored for the consumer instead of dying with the thread."""
        try:
            while True:
                with self.cond:
                    if self.halted:
                        return
                    self._dispatch()
                    self._check_stalls()
                    self._ensure_capacity()
                try:
                    event = self.events.get(timeout=self.tick)
                except queue_module.Empty:
                    continue
                self._handle(event)
        except Exception as exc:
            with self.cond:
                self.error = exc
                self.cond.notify_all()

    def _halt(self) -> None:
        """Stop the coordinator thread and wait for it (idempotent)."""
        with self.cond:
            self.halted = True
        self.events.put(("halt", None, None))
        thread = self.coordinator
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)

    def next_payload(self, index: int):
        """Wait until ``index`` is settled; return its payload dict (or
        the worker-side ``BaseException``).  Raises the coordinator's
        stored failure instead of waiting forever."""
        with self.cond:
            while index not in self.settled:
                if self.error is not None:
                    raise self.error
                self.cond.wait()
            return self.settled.pop(index)

    def _handle(self, event) -> None:
        kind, state, data = event
        with self.cond:
            if kind == "frame":
                self._handle_frame(state, data)
            elif kind == "gone":
                self._lose_worker(state)

    def _handle_frame(self, state: _WorkerState, frame: dict) -> None:
        state.last_seen = time.monotonic()
        frame_type = frame.get("type")
        if frame_type not in ("result", "error"):
            return  # a heartbeat: liveness only
        lease = state.lease
        index = frame.get("index")
        if state.zombie or state.dead or lease is None \
                or lease.id != frame.get("lease") \
                or index != lease.job.index:
            # late, duplicate, or revoked — at-most-once acceptance
            self.stats["results_rejected"] += 1
            return
        if frame_type == "result":
            if frame.get("fingerprint") != lease.job.fingerprint:
                # the index names the plan job, the fingerprint its
                # content: a worker answering for other content is a
                # protocol violation — reject and drop the worker
                self.stats["results_rejected"] += 1
                self._lose_worker(state)
                return
            self.settled[index] = frame
            self.stats["jobs_per_worker"][state.name] += 1
            for kind, snapshots in self.worker_stats.items():
                if frame.get(kind) is not None:
                    _note_worker_stats(snapshots, state.name, frame[kind])
        else:
            self.settled[index] = _rebuild_exception(
                str(frame.get("exc_type", "RuntimeError")),
                str(frame.get("message", "fleet worker error")),
            )
        self.unsettled.discard(index)
        state.lease = None  # idle — next _dispatch leases again
        self.cond.notify_all()

    # -- lease bookkeeping --------------------------------------------
    def _dispatch(self) -> None:
        for name in sorted(self.workers):
            if not self.pending:
                return
            state = self.workers[name]
            if state.dead or state.zombie or state.lease is not None:
                continue
            job = self.pending.popleft()
            lease = _Lease(self.next_lease_id, job)
            self.next_lease_id += 1
            try:
                send_frame(state.conn, _lease_frame(lease.id, job))
            except (OSError, FrameError):
                self.pending.appendleft(job)
                self._lose_worker(state)
                continue
            state.lease = lease
            self.stats["leases_issued"] += 1

    def _requeue(self, state: _WorkerState) -> None:
        """Put a lost or revoked lease's job back at the front."""
        lease = state.lease
        state.lease = None
        if lease is not None:
            self.pending.appendleft(lease.job)
            self.stats["leases_reissued"] += 1

    def _lose_worker(self, state: _WorkerState) -> None:
        """Connection-level loss (EOF, send failure, bad frame): the
        worker is gone for good — requeue its lease, close its end."""
        if state.dead:
            return
        state.dead = True
        if not state.zombie:
            self.stats["workers_lost"] += 1
        self._requeue(state)
        _hangup(state.conn)

    def _check_stalls(self) -> None:
        """Declare zombies: a leased worker that has not been heard
        from (results *or* heartbeats) within the lease timeout loses
        its lease.  The connection stays open — any frame it sends
        later is rejected by the at-most-once check, which is exactly
        the behaviour the fault suite certifies."""
        now = time.monotonic()
        timeout = self.executor.lease_timeout
        for state in self.workers.values():
            if state.dead or state.zombie or state.lease is None:
                continue
            if now - state.last_seen > timeout:
                state.zombie = True
                self.stats["workers_lost"] += 1
                self._requeue(state)

    def _ensure_capacity(self) -> None:
        """Replace lost workers (bounded respawn budget) and fail loudly
        instead of wedging when nobody is left to make progress."""
        if not self.unsettled:
            return
        live = sum(1 for state in self.workers.values()
                   if not state.dead and not state.zombie)
        if live >= min(self.executor.workers,
                       len(self.pending) + 1) and live > 0:
            return
        if live > 0 and not self.pending:
            return  # remaining work is leased to live workers
        if self.respawns_used < self.executor.max_respawns:
            self.respawns_used += 1
            self._launch_one()
            return
        if live == 0:
            raise FleetError(
                f"fleet: all workers lost with "
                f"{len(self.unsettled)} jobs unfinished and the "
                f"respawn budget ({self.executor.max_respawns}) spent"
            )

    # -- shutdown ------------------------------------------------------
    def finish(self) -> None:
        """Graceful end-of-stream: every job settled — stop the
        coordinator (a dismissed worker's EOF is not a loss), dismiss
        the live workers, kill the zombie and dead ones (a stalled
        process may never read its dismissal) and wait for them all."""
        self._halt()
        launcher = self.executor.launcher
        for state in self.workers.values():
            if not (state.dead or state.zombie):
                try:
                    send_frame(state.conn, {"type": "shutdown"})
                    continue
                except (OSError, FrameError):
                    pass
            launcher.stop(state.handle)
        for state in self.workers.values():
            launcher.join(state.handle, timeout=5.0)
        self.close()

    def close(self) -> None:
        """Tear everything down; idempotent, safe mid-stream."""
        if self.closed:
            return
        self._halt()
        self.closed = True
        launcher = self.executor.launcher
        for state in self.workers.values():
            try:
                launcher.stop(state.handle)
            except Exception:
                pass
            _hangup(state.conn)
        for state in self.workers.values():
            try:
                launcher.join(state.handle, timeout=2.0)
            except Exception:
                pass


class FleetExecutor:
    """The parallel executor: a coordinator thread leasing plan jobs to
    forked worker processes over socket pairs in the portable wire
    format.

    Same streaming contract as every other executor — results yield in
    plan order, errors re-raise at their plan turn, ``close()``
    mid-stream tears the fleet down and the executor is reusable — so
    checkpoints, caches, and report aggregation work unchanged.

    ``workers`` is the fleet size (default: CPU count).  ``launcher``
    starts the worker processes (default: :class:`LocalFleetLauncher`).
    ``lease_timeout`` is the no-heartbeat window after which a worker's
    lease is revoked and re-issued; ``heartbeat_interval`` is the
    workers' liveness cadence; ``max_respawns`` bounds replacement
    launches (default: the fleet size).  The warm state
    (``compile_store`` / ``share_sat``) is per worker process, never
    shared, which keeps reuse lock-free.  Each lease is one job, handed
    out in plan order to whichever worker is idle.

    Falls back to in-process serial execution for <=1 job or a 1-worker
    fleet, reporting ``fleet[serial-fallback]`` — a socket round-trip
    to one worker could only add overhead.
    """

    def __init__(self, workers: Optional[int] = None,
                 lease_timeout: float = 30.0,
                 heartbeat_interval: float = 0.5,
                 launcher=None,
                 max_respawns: Optional[int] = None,
                 compile_store: bool = True,
                 share_sat: bool = False) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if lease_timeout <= 0:
            raise ValueError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        self.workers = workers or os.cpu_count() or 1
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.launcher = launcher if launcher is not None \
            else LocalFleetLauncher()
        self.max_respawns = max_respawns if max_respawns is not None \
            else self.workers
        self.compile_store = compile_store
        self.share_sat = share_sat
        self._fell_back = False
        self._fallback: Optional[SerialExecutor] = None
        self._run: Optional[_FleetRun] = None

    @property
    def name(self) -> str:
        """Reports the *effective* mode: a 1-worker or <=1-job run
        never opens a socket, and stats must not claim it did."""
        if self._fell_back:
            return "fleet[serial-fallback]"
        return "fleet"

    def _worker_settings(self) -> dict:
        return {
            "compile_store": self.compile_store,
            "share_sat": self.share_sat,
            "heartbeat_interval": self.heartbeat_interval,
        }

    def map(self, jobs: Iterable[CheckJob]) -> Iterator[JobResult]:
        """Stream results in plan order off the fleet: leases go out to
        whichever workers are idle, completions are buffered by index,
        and each result (or worker error) surfaces exactly at its plan
        turn — re-leasing behind the scenes whenever a worker dies or
        stalls."""
        jobs = list(jobs)
        if len(jobs) <= 1 or self.workers == 1:
            self._fell_back = True
            self._run = None
            self._fallback = SerialExecutor(
                compile_store=self.compile_store,
                share_sat=self.share_sat,
            )
            yield from self._fallback.map(jobs)
            return
        self._fell_back = False
        self._fallback = None
        # the parent's own store only pays for FAIL-trace decodes (a
        # recompile per failing module)
        decode_store = CompiledProblemStore() if self.compile_store \
            else None
        run = _FleetRun(self, jobs)
        self._run = run
        try:
            run.start()
            for job in jobs:
                payload = run.next_payload(job.index)
                if isinstance(payload, BaseException):
                    raise payload
                yield JobResult(job.index, decode_result(
                    payload["result"], job, decode_store))
            # reached when the consumer drives the generator past the
            # last result (the orchestrator always does): dismiss the
            # fleet gracefully
            run.finish()
        finally:
            run.close()

    def _worker_totals(self, kind: str) -> Dict[str, int]:
        """Sum of the last run's freshest per-worker snapshots."""
        if self._run is None:
            return {}
        with self._run.cond:
            return _merge_worker_stats(self._run.worker_stats[kind])

    def compile_stats(self) -> Dict[str, int]:
        """Aggregated per-worker store counters from the last ``map``;
        ``{}`` when the store is off."""
        if self._fallback is not None:
            return self._fallback.compile_stats()
        return self._worker_totals("store")

    def sat_stats(self) -> Dict[str, int]:
        """Aggregated per-worker SAT-workspace counters from the last
        ``map``; ``{}`` when sharing is off."""
        if self._fallback is not None:
            return self._fallback.sat_stats()
        return self._worker_totals("sat")

    def fleet_stats(self) -> Dict[str, object]:
        """Transport bookkeeping from the last ``map`` — workers
        launched/lost, leases issued/re-issued, rejected (late or
        duplicate) results, and per-worker accepted-job counts.  The
        orchestrator surfaces this as ``report.stats["fleet"]``; a
        serial-fallback (or not-yet-run) executor reports ``{}``."""
        if self._run is None:
            return {}
        with self._run.cond:
            return {key: (dict(value) if isinstance(value, dict)
                          else value)
                    for key, value in self._run.stats.items()}
