"""Multi-host fleet executor: a socket-fanout coordinator over the
portable job wire format.

``FleetExecutor`` is the campaign's first cross-host executor: a
coordinator thread in the campaign process serves the plan's jobs over
TCP to worker processes, speaking **length-prefixed JSON** built
entirely from the PR-5 wire codec — :meth:`CheckJob.spec` requests out,
:func:`~repro.orchestrate.job.encode_job_result` replies back, FAIL
counterexamples as canonical input frames revalidated by replay on the
coordinator.  No pickle ever crosses the socket, so a worker can run on
any host that holds the design sources.

The transport preserves the executor streaming contract exactly
(``tests/test_executor_contract.py`` certifies it like every other
executor): results are buffered by job index and yielded in plan order,
worker errors re-raise at the failed job's plan-order turn, and the
orchestrator's :class:`~repro.orchestrate.checkpoint.CampaignCheckpoint`
journaling therefore works unchanged — a killed coordinator resumes
byte-identically, because resume is a property of the *orchestrator*
loop, not of any transport.

Lease lifecycle
---------------

The coordinator hands each worker one *lease* at a time: a batch of
jobs from the configured
:class:`~repro.orchestrate.policy.SchedulingPolicy` (module-affinity
batches keep a worker's ``CompiledProblemStore`` / ``SatWorkspace``
warm for a whole module group, exactly as in the work-stealing pool).
Workers heartbeat on a fixed interval — also *during* long checks,
from a background thread — so liveness and progress are separate
signals:

- a worker whose socket dies (SIGKILL, OOM, network) is detected
  immediately at EOF; its lease's unanswered jobs are re-queued at the
  front of the pending deque (``leases_reissued``);
- a worker that stops heartbeating for ``lease_timeout`` seconds is
  declared a *zombie*: its lease is revoked and re-queued, and any
  frame it sends later — a late result, a duplicate — is rejected
  (``results_rejected``), never accepted.  Acceptance is
  **at-most-once**, keyed by job fingerprint: a result frame is
  accepted only if its lease is still the job's active lease, the job
  is still unanswered, and the frame's fingerprint matches the plan's
  job.
- lost workers are replaced through the launcher up to a bounded
  respawn budget; when no worker is left and the budget is spent, the
  stream raises instead of wedging.

Launchers
---------

Worker processes are started by a pluggable launcher:

- :class:`LocalFleetLauncher` (default) forks worker processes on this
  host — under the ``fork`` start method the workers inherit the
  in-memory job list, so only job *identity* (specs, fingerprints)
  ever crosses the socket;
- :class:`SshFleetLauncher` is the multi-host stub with the same
  interface: it spawns ``ssh <host> python -m repro fleet worker
  --config ... --connect host:port`` per worker.  Remote workers
  re-derive the plan from the config file
  (:func:`jobs_from_config` — planning is deterministic) and refuse
  any leased spec whose fingerprint does not match their local plan,
  so a drifted checkout can never return a verdict for the wrong RTL.
"""

from __future__ import annotations

import builtins
import collections
import json
import os
import queue as queue_module
import socket
import struct
import subprocess
import threading
import time
import uuid
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .executor import (
    SerialExecutor, _build_sat, _build_store, _merge_worker_stats,
    _note_worker_stats, _pool_context,
)
from .job import (
    CheckJob, JobResult, decode_job_result, encode_job_result,
    run_check_job,
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
#: corrupt length prefix, not a real message (the largest legitimate
#: frame — a module-affinity lease or a FAIL reply — is a few hundred
#: KiB of JSON)
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
    no FIN is sent and the peer (and our reader thread) block forever.
    ``shutdown(SHUT_RDWR)`` wakes the blocked reader with EOF and sends
    the FIN immediately."""
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


def _fleet_worker_main(worker_id: str, host: str, port: int, token: str,
                       settings: dict,
                       jobs: Optional[List[CheckJob]]) -> None:
    """One fleet worker's whole life: connect, say hello, serve leases
    until shutdown (or the coordinator's socket dies).

    ``jobs`` is the local job universe — inherited in-memory from the
    forking :class:`LocalFleetLauncher`, or re-derived from the config
    file by ``python -m repro fleet worker``.  A lease carries job
    *specs* only; each spec is matched to the local job by index and
    its fingerprint cross-checked, so a worker can never run (or
    answer for) a job its sources do not reproduce exactly.

    Error semantics mirror the work-stealing pool's ``_steal_worker``:
    a failing job answers with an error frame and poisons the rest of
    its lease (same error per remaining job — the stream dies at the
    first failure's plan position, but every leased job must still be
    answered); the worker then keeps serving further leases.
    """
    jobs_by_index = {job.index: job for job in (jobs or [])}
    store = _build_store(settings.get("compile_store", True),
                         settings.get("store_options"))
    sat = _build_sat(settings.get("share_sat", False),
                     settings.get("sat_options"))
    try:
        sock = socket.create_connection((host, port), timeout=10.0)
    except OSError:
        return  # coordinator already gone — nothing to serve
    sock.settimeout(None)
    send_lock = threading.Lock()

    def _send(payload: dict) -> None:
        with send_lock:
            send_frame(sock, payload)

    stop = threading.Event()
    interval = float(settings.get("heartbeat_interval", 0.5))
    try:
        _send({"type": "hello", "worker": worker_id,
               "pid": os.getpid(), "token": token})
        threading.Thread(target=_heartbeat_loop,
                         args=(_send, interval, stop),
                         daemon=True).start()
        while True:
            frame = recv_frame(sock)
            if frame is None or frame.get("type") == "shutdown":
                return
            if frame.get("type") != "lease":
                continue
            lease_id = frame.get("lease")
            failed: Optional[Tuple[str, str]] = None
            for spec in frame.get("jobs", []):
                index = spec.get("index")
                if failed is None:
                    job = jobs_by_index.get(index)
                    if job is None or \
                            job.fingerprint != spec.get("fingerprint"):
                        failed = ("RuntimeError",
                                  f"fleet worker {worker_id}: leased "
                                  f"job {index} does not match the "
                                  f"local plan (fingerprint mismatch)")
                    else:
                        order = spec.get("engine_order")
                        job.engine_order = tuple(order) \
                            if order is not None else None
                        try:
                            job_result = run_check_job(
                                job, store, sat_workspace=sat,
                            )
                        except BaseException as exc:
                            failed = (type(exc).__name__, str(exc))
                        else:
                            _send({
                                "type": "result",
                                "lease": lease_id,
                                "index": index,
                                "fingerprint": job.fingerprint,
                                "result": encode_job_result(job_result),
                                "pid": os.getpid(),
                                "store": store.stats()
                                if store is not None else None,
                                "sat": sat.stats()
                                if sat is not None else None,
                            })
                            continue
                _send({"type": "error", "lease": lease_id,
                       "index": index, "exc_type": failed[0],
                       "message": failed[1]})
    except (OSError, FrameError):
        return  # coordinator died or dropped us; local state is moot
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass


def jobs_from_config(config) -> List[CheckJob]:
    """Re-derive the campaign's job list from a
    :class:`~repro.orchestrate.config.CampaignConfig` — the replan
    path a remote (ssh-launched) worker takes.  Planning is
    deterministic (same blocks, same engines ⇒ same jobs, indices, and
    fingerprints), so the coordinator's lease specs match by
    construction; any drift is caught by the worker's per-lease
    fingerprint cross-check."""
    from ..chip import ComponentChip
    from .planner import plan_campaign
    only = list(config.blocks) if config.blocks is not None else None
    blocks = ComponentChip(only_blocks=only).blocks
    plan = plan_campaign(
        blocks, config.build_engines(), lint=config.lint,
        coi_fingerprints=config.coi_fingerprints or "module",
    )
    return list(plan.jobs)


def run_fleet_worker(config, connect: str, worker_id: str,
                     token: str) -> int:
    """``python -m repro fleet worker`` entry: replan from the config,
    dial the coordinator, serve leases until shutdown."""
    host, sep, port_text = connect.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"--connect must be HOST:PORT, got {connect!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"--connect must be HOST:PORT, got {connect!r}"
        ) from None
    settings = {
        "compile_store": config.compile_store,
        "store_options": config.compile_store_options(),
        "share_sat": config.sat_workspace,
        "sat_options": config.sat_workspace_options(),
        "heartbeat_interval": config.fleet_heartbeat_interval,
    }
    _fleet_worker_main(worker_id, host, port, token, settings,
                       jobs_from_config(config))
    return 0


# ----------------------------------------------------------------------
# launchers
# ----------------------------------------------------------------------

class LocalFleetLauncher:
    """Fork fleet workers on this host (the test/CI launcher).

    The launch context prefers the ``fork`` start method, so workers
    inherit the coordinator's in-memory job list — job bodies never
    cross the socket, only :meth:`CheckJob.spec` identities do.
    """

    name = "local"

    def launch(self, worker_id: str, address: Tuple[str, int],
               token: str, settings: dict,
               jobs: Optional[List[CheckJob]]):
        context = _pool_context()
        process = context.Process(
            target=_fleet_worker_main,
            args=(worker_id, address[0], address[1], token, settings,
                  jobs),
            daemon=True,
        )
        process.start()
        return process

    def alive(self, handle) -> bool:
        return handle.is_alive()

    def stop(self, handle) -> None:
        if handle.is_alive():
            handle.terminate()

    def join(self, handle, timeout: Optional[float] = None) -> None:
        handle.join(timeout)


class SshFleetLauncher:
    """Multi-host launcher stub: one ``ssh`` subprocess per worker,
    running ``python -m repro fleet worker`` on a round-robin host.

    Same interface as :class:`LocalFleetLauncher`, so the coordinator
    is launcher-agnostic.  Remote workers replan from ``config_path``
    (which must resolve on the remote host) and dial back to
    ``connect_host`` (the address remote hosts reach the coordinator
    at — bind the executor to ``host="0.0.0.0"`` and advertise a real
    interface here).  This is deliberately a *stub*: command
    construction and the interface are unit-tested, but CI certifies
    the fleet transport through the local launcher — the wire protocol
    is identical either way.
    """

    name = "ssh"

    def __init__(self, hosts: Iterable[str],
                 config_path: str = "campaign.toml",
                 python: str = "python3",
                 ssh_command: Tuple[str, ...] = ("ssh",),
                 connect_host: Optional[str] = None) -> None:
        self.hosts = tuple(hosts)
        if not self.hosts:
            raise ValueError(
                "ssh launcher needs at least one host "
                "(spec: ssh:host1,host2,...)"
            )
        self.config_path = config_path
        self.python = python
        self.ssh_command = tuple(ssh_command)
        self.connect_host = connect_host
        self._next_host = 0

    def command(self, host: str, worker_id: str,
                address: Tuple[str, int], token: str) -> Tuple[str, ...]:
        """The exact argv one worker launch runs (pure — unit-testable
        without an ssh daemon)."""
        connect = f"{self.connect_host or address[0]}:{address[1]}"
        return (*self.ssh_command, host,
                self.python, "-m", "repro", "fleet", "worker",
                "--config", self.config_path,
                "--connect", connect,
                "--worker-id", worker_id,
                "--token", token)

    def launch(self, worker_id: str, address: Tuple[str, int],
               token: str, settings: dict,
               jobs: Optional[List[CheckJob]]):
        host = self.hosts[self._next_host % len(self.hosts)]
        self._next_host += 1
        return subprocess.Popen(
            self.command(host, worker_id, address, token)
        )

    def alive(self, handle) -> bool:
        return handle.poll() is None

    def stop(self, handle) -> None:
        if handle.poll() is None:
            handle.terminate()

    def join(self, handle, timeout: Optional[float] = None) -> None:
        try:
            handle.wait(timeout)
        except subprocess.TimeoutExpired:
            pass


#: launcher spec vocabulary for ``[fleet] launcher`` — ``local`` or
#: ``ssh:host1,host2,...``
FLEET_LAUNCHERS = ("local", "ssh")


def parse_launcher_spec(spec: str, config_path: str = "campaign.toml"):
    """Resolve a launcher spec string into a launcher instance.
    Grammar: ``local`` | ``ssh:host1,host2,...``."""
    if not isinstance(spec, str):
        raise ValueError(
            f"fleet launcher spec must be a string, got {spec!r}"
        )
    text = spec.strip()
    if text == "local":
        return LocalFleetLauncher()
    kind, sep, arg = text.partition(":")
    if kind.strip() == "ssh":
        hosts = tuple(h.strip() for h in arg.split(",") if h.strip())
        if not sep or not hosts:
            raise ValueError(
                f"fleet launcher spec {spec!r}: ssh needs hosts, "
                f"e.g. ssh:host1,host2"
            )
        return SshFleetLauncher(hosts, config_path=config_path)
    raise ValueError(
        f"unknown fleet launcher {spec!r}; expected 'local' or "
        f"'ssh:host1,host2,...'"
    )


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------

class _Lease:
    """One outstanding batch: its wire id, the unit's jobs, and the
    indices still unanswered."""

    __slots__ = ("id", "unit", "remaining")

    def __init__(self, lease_id: int, unit: List[CheckJob]) -> None:
        self.id = lease_id
        self.unit = unit
        self.remaining = {job.index for job in unit}


class _WorkerState:
    """Coordinator-side view of one worker connection."""

    __slots__ = ("name", "conn", "lease", "last_seen", "pid",
                 "zombie", "dead")

    def __init__(self, name: str, conn: socket.socket) -> None:
        self.name = name
        self.conn = conn
        self.lease: Optional[_Lease] = None
        self.last_seen = time.monotonic()
        self.pid: Optional[int] = None
        self.zombie = False  # stalled: lease revoked, frames rejected
        self.dead = False    # connection gone


class _FleetRun:
    """All per-``map`` coordinator state: the TCP server, worker
    bookkeeping, the lease ledger, and the plan-order result buffer.
    Runs entirely on the consumer's thread — reader threads only
    enqueue events — so no lock guards any of it."""

    def __init__(self, executor: "FleetExecutor",
                 jobs: List[CheckJob]) -> None:
        self.executor = executor
        self.jobs = jobs
        self.jobs_by_index = {job.index: job for job in jobs}
        self.unsettled = {job.index for job in jobs}
        self.settled: Dict[int, object] = {}
        self.pending_units = collections.deque()
        self.events = queue_module.Queue()
        self.workers: Dict[str, _WorkerState] = {}
        self.by_conn: Dict[socket.socket, _WorkerState] = {}
        self.handles: Dict[str, object] = {}
        self.launch_times: Dict[str, float] = {}
        self.conns: List[socket.socket] = []
        self.server: Optional[socket.socket] = None
        self.token = uuid.uuid4().hex
        self.next_lease_id = 0
        self.next_worker = 0
        self.respawns_used = 0
        self.closed = False
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
        # a launched worker that never says hello within this window is
        # written off (and replaced), so a wedged launch cannot hang
        # the stream
        self.hello_timeout = max(executor.lease_timeout, 10.0)

    # -- startup -------------------------------------------------------
    def start(self) -> None:
        executor = self.executor
        units = executor.scheduling.batches(self.jobs)
        if sorted(job.index for unit in units for job in unit) != \
                sorted(job.index for job in self.jobs):
            raise RuntimeError(
                f"scheduling policy {executor.scheduling.name!r} lost "
                f"or duplicated jobs while batching"
            )
        self.pending_units.extend(units)
        self.server = socket.create_server(
            (executor.host, executor.port)
        )
        self.server.settimeout(1.0)
        self.address = (executor.host, self.server.getsockname()[1])
        threading.Thread(target=self._acceptor, daemon=True).start()
        worker_count = min(executor.workers, len(units))
        for _ in range(worker_count):
            self._launch_one()

    def _launch_one(self) -> None:
        name = f"w{self.next_worker}"
        self.next_worker += 1
        try:
            handle = self.executor.launcher.launch(
                name, self.address, self.token,
                self.executor._worker_settings(), self.jobs,
            )
        except Exception as exc:
            raise FleetError(
                f"fleet launcher {self.executor.launcher.name!r} "
                f"failed to start worker {name}: {exc}"
            ) from exc
        self.handles[name] = handle
        self.launch_times[name] = time.monotonic()
        self.stats["workers_launched"] += 1

    # -- reader/acceptor threads --------------------------------------
    def _acceptor(self) -> None:
        while True:
            try:
                conn, _addr = self.server.accept()
            except socket.timeout:
                if self.closed:
                    return
                continue
            except OSError:
                return  # server closed — run is over
            self.events.put(("accepted", conn, None))

    def _reader(self, conn: socket.socket) -> None:
        try:
            while True:
                frame = recv_frame(conn)
                if frame is None:
                    self.events.put(("gone", conn, "connection closed"))
                    return
                self.events.put(("frame", conn, frame))
        except (FrameError, OSError) as exc:
            self.events.put(("gone", conn, str(exc)))

    # -- the consumer-thread pump -------------------------------------
    def next_payload(self, index: int):
        """Pump events until ``index`` is settled; return its payload
        dict (or the worker-side ``BaseException``)."""
        while index not in self.settled:
            self._dispatch()
            self._check_stalls()
            self._ensure_capacity()
            try:
                event = self.events.get(timeout=self.tick)
            except queue_module.Empty:
                continue
            self._handle(event)
        return self.settled.pop(index)

    def _handle(self, event) -> None:
        kind, conn, data = event
        if kind == "accepted":
            self.conns.append(conn)
            threading.Thread(target=self._reader, args=(conn,),
                             daemon=True).start()
        elif kind == "frame":
            self._handle_frame(conn, data)
        elif kind == "gone":
            state = self.by_conn.get(conn)
            if state is not None:
                self._lose_worker(state)

    def _handle_frame(self, conn: socket.socket, frame: dict) -> None:
        frame_type = frame.get("type")
        state = self.by_conn.get(conn)
        if frame_type == "hello":
            if frame.get("token") != self.token:
                # a stray connection to our port: drop it, never lease
                _hangup(conn)
                return
            name = str(frame.get("worker") or f"anon{len(self.workers)}")
            state = _WorkerState(name, conn)
            state.pid = frame.get("pid")
            self.workers[name] = state
            self.by_conn[conn] = state
            self.stats["jobs_per_worker"].setdefault(name, 0)
            return
        if state is None:
            return  # frames before hello (or after a token reject)
        state.last_seen = time.monotonic()
        if frame_type == "heartbeat":
            return
        if frame_type not in ("result", "error"):
            return
        lease = state.lease
        index = frame.get("index")
        if state.zombie or state.dead or lease is None \
                or lease.id != frame.get("lease") \
                or index not in lease.remaining:
            # late, duplicate, or revoked — at-most-once acceptance
            self.stats["results_rejected"] += 1
            return
        if frame_type == "result":
            job = self.jobs_by_index[index]
            if frame.get("fingerprint") != job.fingerprint:
                # a worker answering for the wrong content is a
                # protocol violation: reject and drop the worker
                self.stats["results_rejected"] += 1
                self._lose_worker(state)
                return
            self.settled[index] = frame
            self.stats["jobs_per_worker"][state.name] = \
                self.stats["jobs_per_worker"].get(state.name, 0) + 1
        else:
            self.settled[index] = _rebuild_exception(
                str(frame.get("exc_type", "RuntimeError")),
                str(frame.get("message", "fleet worker error")),
            )
        self.unsettled.discard(index)
        lease.remaining.discard(index)
        if not lease.remaining:
            state.lease = None  # idle — next _dispatch leases again

    # -- lease bookkeeping --------------------------------------------
    def _dispatch(self) -> None:
        if not self.pending_units:
            return
        for name in sorted(self.workers):
            if not self.pending_units:
                return
            state = self.workers[name]
            if state.dead or state.zombie or state.lease is not None:
                continue
            unit = self.pending_units.popleft()
            lease = _Lease(self.next_lease_id, unit)
            self.next_lease_id += 1
            try:
                send_frame(state.conn, {
                    "type": "lease",
                    "lease": lease.id,
                    "jobs": [job.spec() for job in unit],
                })
            except (OSError, FrameError):
                self.pending_units.appendleft(unit)
                self._lose_worker(state)
                continue
            state.lease = lease
            self.stats["leases_issued"] += 1

    def _requeue(self, state: _WorkerState) -> None:
        lease = state.lease
        state.lease = None
        if lease is None or not lease.remaining:
            return
        unit = [job for job in lease.unit
                if job.index in lease.remaining]
        self.pending_units.appendleft(unit)
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
        now = time.monotonic()
        for name in list(self.handles):
            if name in self.workers:
                continue
            handle = self.handles[name]
            launched = self.launch_times.get(name, now)
            if not self.executor.launcher.alive(handle):
                # died before hello
                del self.handles[name]
                self.stats["workers_lost"] += 1
            elif now - launched > self.hello_timeout:
                # wedged before hello: write it off and replace
                self.executor.launcher.stop(handle)
                del self.handles[name]
                self.stats["workers_lost"] += 1
        live = sum(1 for state in self.workers.values()
                   if not state.dead and not state.zombie)
        coming = sum(1 for name in self.handles
                     if name not in self.workers)
        capacity = live + coming
        if capacity >= min(self.executor.workers,
                           max(1, len(self.pending_units) + 1)) \
                and capacity > 0:
            return
        if capacity > 0 and not self.pending_units:
            return  # remaining work is leased to live workers
        if self.respawns_used < self.executor.max_respawns:
            self.respawns_used += 1
            self._launch_one()
            return
        if capacity == 0:
            raise FleetError(
                f"fleet: all workers lost with "
                f"{len(self.unsettled)} jobs unfinished and the "
                f"respawn budget ({self.executor.max_respawns}) spent"
            )

    # -- shutdown ------------------------------------------------------
    def finish(self) -> None:
        """Graceful end-of-stream: every job settled — dismiss the
        workers and wait for local processes to exit."""
        for state in self.workers.values():
            if state.dead:
                continue
            try:
                send_frame(state.conn, {"type": "shutdown"})
            except (OSError, FrameError):
                pass
        for handle in self.handles.values():
            self.executor.launcher.join(handle, timeout=5.0)
        self.close()

    def close(self) -> None:
        """Tear everything down; idempotent, safe mid-stream."""
        if self.closed:
            return
        self.closed = True
        if self.server is not None:
            try:
                self.server.close()
            except OSError:
                pass
        for handle in self.handles.values():
            try:
                self.executor.launcher.stop(handle)
            except Exception:
                pass
        for handle in self.handles.values():
            try:
                self.executor.launcher.join(handle, timeout=2.0)
            except Exception:
                pass
        for conn in self.conns:
            _hangup(conn)


class FleetExecutor:
    """Socket-fanout executor: a TCP coordinator leasing plan jobs to
    launcher-started worker processes over the portable wire format.

    Same streaming contract as every other executor — results yield in
    plan order, errors re-raise at their plan turn, ``close()``
    mid-stream tears the fleet down and the executor is reusable — so
    checkpoints, caches, and report aggregation work unchanged.

    ``workers`` is the fleet size (default: CPU count).  ``launcher``
    is a launcher instance or spec string (``"local"`` — the default —
    or ``"ssh:host1,host2"``); ``host``/``port`` are the coordinator's
    bind address (port 0 = ephemeral).  ``lease_timeout`` is the
    no-heartbeat window after which a worker's lease is revoked and
    re-issued; ``heartbeat_interval`` is the workers' liveness cadence;
    ``max_respawns`` bounds replacement launches (default: the fleet
    size).  The warm state (``compile_store`` / ``share_sat`` and
    their option dicts) is per worker process, exactly as in the
    work-stealing pool; ``scheduling`` picks the
    lease granularity (module-affinity units keep one module's warm
    state on one worker).

    Falls back to in-process serial execution for <=1 job or a 1-worker
    fleet, reporting ``fleet[serial-fallback]`` — a socket round-trip
    to one local worker could only add overhead.
    """

    def __init__(self, workers: Optional[int] = None,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 lease_timeout: float = 30.0,
                 heartbeat_interval: float = 0.5,
                 launcher=None,
                 scheduling=None,
                 max_respawns: Optional[int] = None,
                 compile_store: bool = True,
                 store_options: Optional[dict] = None,
                 share_sat: bool = False,
                 sat_options: Optional[dict] = None) -> None:
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
        if not 0 <= port <= 65535:
            raise ValueError(f"port must be 0..65535, got {port}")
        self.workers = workers or os.cpu_count() or 1
        self.host = host
        self.port = port
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        if launcher is None:
            launcher = LocalFleetLauncher()
        elif isinstance(launcher, str):
            launcher = parse_launcher_spec(launcher)
        self.launcher = launcher
        if scheduling is None:
            from .policy import FifoScheduling
            scheduling = FifoScheduling()
        self.scheduling = scheduling
        self.max_respawns = max_respawns if max_respawns is not None \
            else self.workers
        self.compile_store = compile_store
        self.store_options = store_options
        self.share_sat = share_sat
        self.sat_options = sat_options
        self._fell_back = False
        self._fallback: Optional[SerialExecutor] = None
        self._run: Optional[_FleetRun] = None
        self._worker_stats: Dict[object, dict] = {}
        self._sat_worker_stats: Dict[object, dict] = {}

    @property
    def name(self) -> str:
        """Reports the *effective* mode, like the work-stealing pool:
        a 1-worker or <=1-job run never opens a socket."""
        if self._fell_back:
            return "fleet[serial-fallback]"
        return "fleet"

    def _worker_settings(self) -> dict:
        return {
            "compile_store": self.compile_store,
            "store_options": self.store_options,
            "share_sat": self.share_sat,
            "sat_options": self.sat_options,
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
        decode_store = _build_store(self.compile_store,
                                    self.store_options)
        run = _FleetRun(self, jobs)
        self._run = run
        try:
            run.start()
            for job in jobs:
                payload = run.next_payload(job.index)
                if isinstance(payload, BaseException):
                    raise payload
                self._note_payload_stats(payload)
                yield decode_job_result(payload["result"], job,
                                        decode_store)
            # reached when the consumer drives the generator past the
            # last result (the orchestrator always does): dismiss the
            # fleet gracefully
            run.finish()
        finally:
            run.close()

    def _note_payload_stats(self, payload: dict) -> None:
        pid = payload.get("pid")
        if payload.get("store") is not None:
            _note_worker_stats(self._worker_stats, pid, payload["store"])
        if payload.get("sat") is not None:
            _note_worker_stats(self._sat_worker_stats, pid,
                               payload["sat"])

    def compile_stats(self) -> Dict[str, int]:
        """Aggregated per-worker store counters from the last ``map``;
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

    def fleet_stats(self) -> Dict[str, object]:
        """Transport bookkeeping from the last ``map`` — workers
        launched/lost, leases issued/re-issued, rejected (late or
        duplicate) results, and per-worker accepted-job counts.  The
        orchestrator surfaces this as ``report.stats["fleet"]``; a
        serial-fallback (or not-yet-run) executor reports ``{}``."""
        if self._run is None:
            return {}
        return {key: (dict(value) if isinstance(value, dict) else value)
                for key, value in self._run.stats.items()}
