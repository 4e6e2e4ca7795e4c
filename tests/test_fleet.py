"""Fleet transport fault injection and wire-format fuzzing.

The contract battery (``tests/test_executor_contract.py``) certifies
that :class:`FleetExecutor` streams like every other executor when
nothing goes wrong.  This suite certifies what the socket transport
adds on top:

- the length-prefixed JSON framing survives arbitrarily fragmented
  reads and fails loudly (``FrameError``) on truncated, corrupt, or
  non-object frames — never hangs, never mistakes damage for data;
- a SIGKILLed worker's lease is re-issued and the final report is
  byte-identical to a serial run; so is a worker that exits before
  its first frame;
- a SIGKILLed *coordinator* resumes from the checkpoint journal into a
  byte-identical report, and none of its workers outlives it;
- a zombie worker (silent past the lease timeout) loses its lease, and
  its late/duplicate results are rejected by at-most-once acceptance;
  a SIGSTOPped one is killed when the stream ends, so the campaign
  process exits; a long check that keeps heartbeating keeps its lease;
- a peer that sends garbage frames is dropped and re-leased around —
  one bad peer never wedges the stream;
- a lease names each job by index and fingerprint only;
  a worker refuses an entry its own plan does not hold, and the
  coordinator refuses a result for other content than the plan job's;
- a launcher that cannot keep workers alive, or a job that kills every
  worker that takes it, exhausts the respawn budget into a loud
  ``FleetError`` instead of a wedge;
- workers talk over socket pairs — the fleet never listens on a port —
  and leasing runs on the coordinator thread, so a parked consumer
  never idles the workers;
- warm-state counters are kept per worker name, so workers that share
  a pid (threads here) are summed, not merged.
"""

import dataclasses
import json
import multiprocessing
import os
import queue
import random
import signal
import socket
import struct
import sys
import threading
import time

import pytest

from repro.chip import ComponentChip
from repro.core.report import format_table2
from repro.formal.engine import CheckResult, PASS, register_engine
from repro.formal.engine import _ENGINES  # test-only registry cleanup
from repro.orchestrate import (
    CampaignCheckpoint, CampaignOrchestrator, CompiledProblemStore,
    EngineConfig, FleetExecutor, LocalFleetLauncher,
    ModuleAffinityScheduling, SerialExecutor, decode_result,
    encode_result, plan_campaign, run_check_job,
)
from repro.orchestrate.fleet import (
    FleetError, FrameError, MAX_FRAME_BYTES, _fleet_worker_main,
    _lease_entry, recv_frame, send_frame,
)

#: jobs in the tiny two-module plan (asserted in the fixture)
TOTAL_JOBS = 17


def _engines(**overrides):
    overrides.setdefault("sat_conflicts", 500_000)
    overrides.setdefault("bdd_nodes", 5_000_000)
    return (EngineConfig(**overrides),)


@pytest.fixture(scope="module")
def tiny_blocks():
    """Two modules, one seeded defect — PASS and FAIL mixed, so
    counterexample frames cross the socket in every scenario."""
    chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
    return [("C", chip.blocks[0][1][:2])]


@pytest.fixture(scope="module")
def tiny_plan(tiny_blocks):
    plan = plan_campaign(tiny_blocks, _engines())
    assert len(plan.jobs) == TOTAL_JOBS
    return plan


def _outcome(job_result):
    return (job_result.index, job_result.result.name,
            job_result.result.status, job_result.result.engine,
            job_result.result.depth)


@pytest.fixture(scope="module")
def serial_results(tiny_plan):
    return list(SerialExecutor().map(tiny_plan.jobs))


@pytest.fixture(scope="module")
def serial_outcomes(serial_results):
    return [_outcome(r) for r in serial_results]


@pytest.fixture(scope="module")
def reference(tiny_blocks):
    """The uninterrupted serial report every faulted fleet run must
    still reproduce byte-for-byte."""
    return CampaignOrchestrator(tiny_blocks, engines=_engines()).run()


# ----------------------------------------------------------------------
# framing: fragmented reads, truncation, corruption, fuzz
# ----------------------------------------------------------------------

class _ChunkSocket:
    """In-memory stream stub: ``sendall`` appends to a buffer,
    ``recv`` returns it back in deliberately tiny (optionally
    randomized) chunks, then a clean EOF — the worst-case fragmented
    TCP peer, deterministic and threadless."""

    def __init__(self, rng=None, max_chunk=7):
        self.buffer = bytearray()
        self.rng = rng
        self.max_chunk = max_chunk

    def sendall(self, data):
        self.buffer.extend(data)

    def feed(self, data):
        self.buffer.extend(data)

    def recv(self, limit):
        if not self.buffer:
            return b""
        take = self.max_chunk if self.rng is None \
            else self.rng.randint(1, self.max_chunk)
        take = min(take, limit, len(self.buffer))
        out = bytes(self.buffer[:take])
        del self.buffer[:take]
        return out


def _random_payload(rng, depth=0):
    kinds = ["int", "float", "str", "bool", "null"]
    if depth < 2:
        kinds += ["list", "dict"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randint(-10**9, 10**9)
    if kind == "float":
        return rng.randint(-10**6, 10**6) / 128.0
    if kind == "str":
        alphabet = "abc é☃世界\"\\\n"
        return "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 12)))
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "null":
        return None
    if kind == "list":
        return [_random_payload(rng, depth + 1)
                for _ in range(rng.randint(0, 4))]
    return {f"k{i}": _random_payload(rng, depth + 1)
            for i in range(rng.randint(0, 4))}


class TestFraming:
    def test_roundtrip_byte_at_a_time(self):
        sock = _ChunkSocket(max_chunk=1)
        payload = {"type": "result", "lease": 3, "index": 7,
                   "fingerprint": "f" * 64}
        send_frame(sock, payload)
        assert recv_frame(sock) == payload
        assert recv_frame(sock) is None  # clean EOF at frame boundary

    def test_lease_entries_roundtrip_fragmented(self, tiny_plan):
        rng = random.Random(11)
        sock = _ChunkSocket(rng=rng)
        for job in tiny_plan.jobs:
            send_frame(sock, {"type": "lease", "lease": 0,
                              "jobs": [_lease_entry(job)]})
        for job in tiny_plan.jobs:
            frame = recv_frame(sock)
            assert frame["jobs"] == [{"index": job.index,
                                      "fingerprint": job.fingerprint}]
        assert recv_frame(sock) is None

    def test_fail_results_roundtrip_fragmented(self, tiny_plan,
                                               serial_results):
        """FAIL replies — counterexample trace and all — must survive
        the worst-case fragmented read and still replay on decode."""
        fails = [r for r in serial_results if r.result.status == "fail"]
        assert fails, "fixture must produce at least one FAIL"
        rng = random.Random(13)
        for job_result in fails:
            job = tiny_plan.jobs[job_result.index]
            sock = _ChunkSocket(rng=rng)
            send_frame(sock, {"type": "result", "index": job.index,
                              "fingerprint": job.fingerprint,
                              "result": encode_result(job_result.result)})
            frame = recv_frame(sock)
            assert frame["fingerprint"] == job.fingerprint
            decoded = decode_result(frame["result"], job,
                                    CompiledProblemStore())
            assert (decoded.name, decoded.status, decoded.engine,
                    decoded.depth) == _outcome(job_result)[1:]
            assert decoded.trace is not None
            assert decoded.trace.replay()
            assert decoded.trace.canonical_frames() == \
                job_result.result.trace.canonical_frames()

    def test_truncated_frame_raises_at_every_cut(self):
        whole = _ChunkSocket()
        send_frame(whole, {"k": "truncation probe", "n": [1, 2, 3]})
        wire = bytes(whole.buffer)
        for cut in range(1, len(wire)):
            sock = _ChunkSocket(max_chunk=3)
            sock.feed(wire[:cut])
            with pytest.raises(FrameError, match="truncated"):
                recv_frame(sock)

    def test_zero_length_prefix_raises(self):
        sock = _ChunkSocket()
        sock.feed(struct.pack(">I", 0))
        with pytest.raises(FrameError, match="invalid frame length"):
            recv_frame(sock)

    def test_absurd_length_prefix_raises(self):
        sock = _ChunkSocket()
        sock.feed(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x")
        with pytest.raises(FrameError, match="invalid frame length"):
            recv_frame(sock)

    def test_invalid_utf8_body_raises(self):
        sock = _ChunkSocket()
        sock.feed(struct.pack(">I", 4) + b"\xff\xfe\x00\x01")
        with pytest.raises(FrameError, match="undecodable"):
            recv_frame(sock)

    def test_non_object_payload_raises(self):
        sock = _ChunkSocket()
        body = b"[1,2]"
        sock.feed(struct.pack(">I", len(body)) + body)
        with pytest.raises(FrameError, match="must be an object"):
            recv_frame(sock)

    def test_unsendable_payload_raises(self):
        with pytest.raises(FrameError, match="not JSON-able"):
            send_frame(_ChunkSocket(), {"bad": {1, 2}})

    def test_oversize_payload_raises(self):
        with pytest.raises(FrameError, match="exceeds"):
            send_frame(_ChunkSocket(),
                       {"pad": "x" * (MAX_FRAME_BYTES + 1)})

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fuzz_payloads_roundtrip(self, seed):
        rng = random.Random(seed)
        sock = _ChunkSocket(rng=rng)
        payloads = [{"p": _random_payload(rng)} for _ in range(25)]
        for payload in payloads:
            send_frame(sock, payload)
        for payload in payloads:
            assert recv_frame(sock) == payload
        assert recv_frame(sock) is None

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_fuzz_junk_bytes_never_hang_or_pass_as_data(self, seed):
        """Random wire garbage must terminate promptly in FrameError
        (or clean EOF) — never block, never decode into a frame."""
        rng = random.Random(seed)
        for _ in range(50):
            sock = _ChunkSocket(rng=rng)
            sock.feed(bytes(rng.randrange(256)
                            for _ in range(rng.randint(0, 64))))
            try:
                frame = recv_frame(sock)
            except FrameError:
                continue
            assert frame is None or isinstance(frame, dict)


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------

class TrackingLauncher(LocalFleetLauncher):
    """Local launcher that keeps every process handle so the test can
    land a signal on a real worker pid."""

    def __init__(self):
        self.handles = []

    def launch(self, worker_id, conn, settings, jobs, coordinator_ends):
        handle = super().launch(worker_id, conn, settings, jobs,
                                coordinator_ends)
        self.handles.append(handle)
        return handle


class PidFileLauncher(LocalFleetLauncher):
    """Local launcher that writes each worker's pid to a file, for a
    test process that is not the coordinator and cannot see its
    handles."""

    def __init__(self, directory):
        self.directory = directory

    def launch(self, worker_id, conn, settings, jobs, coordinator_ends):
        handle = super().launch(worker_id, conn, settings, jobs,
                                coordinator_ends)
        with open(os.path.join(self.directory, worker_id), "w") as out:
            out.write(str(handle.pid))
        return handle


class ExitingFirstLauncher(LocalFleetLauncher):
    """The first worker is a real forked process that exits before it
    sends a single frame; every later launch is a real worker."""

    def __init__(self):
        self.first = None

    def launch(self, worker_id, conn, settings, jobs, coordinator_ends):
        if self.first is not None:
            return super().launch(worker_id, conn, settings, jobs,
                                  coordinator_ends)
        self.first = multiprocessing.get_context("fork").Process(
            target=os._exit, args=(0,), daemon=True)
        try:
            self.first.start()
        finally:
            conn.close()
        return self.first


class _ScriptedWorker(threading.Thread):
    """In-process fake worker on the worker's end of the socket pair:
    takes one lease, then misbehaves on cue."""

    def __init__(self, sock, script):
        super().__init__(daemon=True)
        self.sock = sock
        self.script = script
        self.lease_frame = None
        self.leased = threading.Event()
        self.go = threading.Event()
        self.sent = threading.Event()
        self._aborted = threading.Event()

    def run(self):
        try:
            self.sock.settimeout(60.0)
            frame = recv_frame(self.sock)
            if frame is not None and frame.get("type") == "lease":
                self.lease_frame = frame
                self.leased.set()
                self.script(self)
            # hold the connection open (a zombie's socket survives its
            # lease) until the launcher tears us down
            self._aborted.wait(60.0)
        except (OSError, FrameError):
            pass
        finally:
            self.sock.close()

    def abort(self):
        self._aborted.set()
        self.sock.close()


class ScriptedFirstLauncher(LocalFleetLauncher):
    """First launch is the scripted fake; every later launch is a real
    forked worker, so the campaign always finishes."""

    def __init__(self, script):
        self.script = script
        self.fake = None

    def launch(self, worker_id, conn, settings, jobs, coordinator_ends):
        if self.fake is None:
            self.fake = _ScriptedWorker(conn, self.script)
            self.fake.start()
            return self.fake
        return super().launch(worker_id, conn, settings, jobs,
                              coordinator_ends)

    def stop(self, handle):
        if isinstance(handle, _ScriptedWorker):
            handle.abort()
        else:
            super().stop(handle)


class StillbornLauncher:
    """Launcher whose workers are dead on arrival (their end of the
    socket pair closes at once) — the no-wedge path must burn the
    respawn budget and then raise."""

    name = "stillborn"

    def launch(self, worker_id, conn, settings, jobs, coordinator_ends):
        conn.close()
        return None

    def stop(self, handle):
        pass

    def join(self, handle, timeout=None):
        pass


class DeadThenFailingLauncher(StillbornLauncher):
    """The first workers are dead on arrival; every replacement launch
    fails outright — so the failure is raised on the coordinator
    thread, which must hand it to the consumer."""

    def __init__(self, initial):
        self.initial = initial
        self.launches = 0

    def launch(self, worker_id, conn, settings, jobs, coordinator_ends):
        self.launches += 1
        if self.launches > self.initial:
            raise OSError("no host left to start a worker on")
        return super().launch(worker_id, conn, settings, jobs,
                              coordinator_ends)


#: the test process: fault engines below act only inside fleet workers
_TEST_PID = os.getpid()


class _WorkerFault(Exception):
    """A non-builtin exception raised inside a worker."""


def _spin_engine(checker, options):
    """A CPU-bound check: two seconds of pure-Python work."""
    deadline = time.process_time() + 2.0
    while time.process_time() < deadline:
        pass
    return CheckResult(checker.ts.name, PASS, "test-spin")


def _exit_engine(checker, options):
    """Kills the worker that runs it."""
    if os.getpid() != _TEST_PID:
        os._exit(3)
    raise RuntimeError("test-exit ran outside a fleet worker")


def _raise_engine(checker, options):
    raise _WorkerFault("injected worker fault")


@pytest.fixture()
def fault_engines():
    """Registers the fault engines for one test (workers fork after
    registration, so they inherit them)."""
    engines = {"test-spin": _spin_engine, "test-exit": _exit_engine,
               "test-raise": _raise_engine}
    for name, engine in engines.items():
        register_engine(name, engine)
    try:
        yield
    finally:
        for name in engines:
            _ENGINES.pop(name, None)


def _with_engine(job, method):
    return dataclasses.replace(job, engines=(EngineConfig(method=method),))


def _running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    if os.path.isdir("/proc"):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestWorkerFaults:
    def test_sigkilled_worker_lease_reissued_results_identical(
            self, tiny_plan, serial_outcomes):
        """SIGKILL a worker holding a module-affinity lease after its
        first result: the unanswered jobs must be re-leased and the
        stream must stay identical to serial."""
        launcher = TrackingLauncher()
        executor = FleetExecutor(
            workers=2, launcher=launcher,
            scheduling=ModuleAffinityScheduling(),
            heartbeat_interval=0.1,
        )
        stream = executor.map(tiny_plan.jobs)
        results = [next(stream)]
        os.kill(launcher.handles[0].pid, signal.SIGKILL)
        results.extend(stream)
        assert [_outcome(r) for r in results] == serial_outcomes
        stats = executor.fleet_stats()
        assert stats["workers_lost"] >= 1
        assert stats["leases_reissued"] >= 1
        assert stats["workers_launched"] >= 3  # the replacement

    def test_sigkilled_worker_report_byte_identical(self, tiny_blocks,
                                                    reference):
        launcher = TrackingLauncher()
        killed = []

        def progress(line):
            if not killed and launcher.handles:
                os.kill(launcher.handles[0].pid, signal.SIGKILL)
                killed.append(True)

        report = CampaignOrchestrator(
            tiny_blocks, engines=_engines(),
            executor=FleetExecutor(
                workers=2, launcher=launcher,
                scheduling=ModuleAffinityScheduling(),
                heartbeat_interval=0.1,
            ),
        ).run(progress=progress)
        assert killed
        assert report.canonical_bytes() == reference.canonical_bytes()
        assert report.stats["fleet"]["workers_lost"] >= 1

    def test_zombie_lease_revoked_and_late_results_rejected(
            self, tiny_plan, serial_outcomes):
        """A worker that takes a lease and then goes silent past the
        lease timeout loses the lease; the late result it finally sends
        — and the duplicate after it — are rejected, and the fleet's
        answers still match serial exactly."""

        def zombie(worker):
            # silence: no heartbeats, no results, until the test has
            # watched the lease be revoked and re-served
            if not worker.go.wait(30.0):
                return
            lease = worker.lease_frame
            entry = lease["jobs"][0]
            late = {"type": "result", "lease": lease["lease"],
                    "index": entry["index"],
                    "fingerprint": entry["fingerprint"],
                    "result": {"bogus": True}, "pid": 0}
            send_frame(worker.sock, late)
            send_frame(worker.sock, late)  # and a duplicate
            worker.sent.set()

        launcher = ScriptedFirstLauncher(zombie)
        executor = FleetExecutor(
            workers=2, launcher=launcher,
            scheduling=ModuleAffinityScheduling(),
            lease_timeout=1.5, heartbeat_interval=0.2,
        )
        stream = executor.map(tiny_plan.jobs)
        # consuming all but the last result forces the zombie's unit
        # through revocation + re-lease (the fake never answers)
        results = [next(stream) for _ in range(TOTAL_JOBS - 1)]
        assert launcher.fake.leased.is_set()
        run = executor._run
        assert run.stats["leases_reissued"] >= 1
        launcher.fake.go.set()
        assert launcher.fake.sent.wait(10.0)
        # pump the event queue (consumer-thread discipline: the
        # generator is parked between next() calls) until both late
        # frames have been seen and rejected
        deadline = time.monotonic() + 10.0
        while run.stats["results_rejected"] < 2 \
                and time.monotonic() < deadline:
            try:
                event = run.events.get(timeout=0.05)
            except queue.Empty:
                continue
            run._handle(event)
        results.extend(stream)
        assert [_outcome(r) for r in results] == serial_outcomes
        stats = executor.fleet_stats()
        assert stats["results_rejected"] >= 2
        assert stats["leases_reissued"] >= 1
        assert stats["workers_lost"] >= 1

    def test_garbage_frames_drop_peer_without_wedging(
            self, tiny_plan, serial_outcomes):
        """A peer that answers its lease with wire garbage is dropped
        (FrameError at the reader), its lease re-issued, and the
        campaign completes untouched."""

        def garbage(worker):
            worker.sock.sendall(struct.pack(">I", 9) + b"not json!")
            worker.sent.set()

        launcher = ScriptedFirstLauncher(garbage)
        executor = FleetExecutor(
            workers=2, launcher=launcher,
            scheduling=ModuleAffinityScheduling(),
            heartbeat_interval=0.1,
        )
        results = list(executor.map(tiny_plan.jobs))
        assert [_outcome(r) for r in results] == serial_outcomes
        stats = executor.fleet_stats()
        assert stats["workers_lost"] >= 1
        assert stats["leases_reissued"] >= 1

    def test_worker_exiting_before_its_first_frame_is_replaced(
            self, tiny_plan, serial_outcomes):
        """A real forked worker that exits before it sends anything is
        seen as EOF on the coordinator's end of its socket pair and
        replaced; the results still match serial."""
        launcher = ExitingFirstLauncher()
        executor = FleetExecutor(workers=2, launcher=launcher,
                                 heartbeat_interval=0.1)
        results = list(executor.map(tiny_plan.jobs))
        assert [_outcome(r) for r in results] == serial_outcomes
        assert launcher.first.exitcode == 0
        stats = executor.fleet_stats()
        assert stats["workers_lost"] >= 1
        assert stats["workers_launched"] >= 3
        assert stats["jobs_per_worker"]["w0"] == 0

    def test_long_check_keeps_its_lease(self, tiny_plan, fault_engines):
        """A check that computes for 2 s under a 0.5 s lease timeout
        keeps its lease: the worker's heartbeat thread speaks for it."""
        jobs = [_with_engine(job, "test-spin")
                for job in tiny_plan.jobs[:2]]
        executor = FleetExecutor(workers=2, lease_timeout=0.5,
                                 heartbeat_interval=0.1)
        results = list(executor.map(jobs))
        assert [(r.result.status, r.result.engine) for r in results] == \
            [("pass", "test-spin")] * 2
        stats = executor.fleet_stats()
        assert stats["workers_lost"] == 0
        assert stats["leases_reissued"] == 0
        assert stats["results_rejected"] == 0

    def test_job_killing_every_worker_spends_the_respawn_budget(
            self, tiny_plan, fault_engines):
        """A job that kills whichever worker takes it goes back to the
        front of the queue each time, until the respawn budget is
        spent: a FleetError, never a wedge."""
        jobs = [_with_engine(tiny_plan.jobs[0], "test-exit")] \
            + list(tiny_plan.jobs[1:])
        executor = FleetExecutor(workers=2, max_respawns=3,
                                 heartbeat_interval=0.1)
        with pytest.raises(FleetError, match="respawn budget"):
            list(executor.map(jobs))
        stats = executor.fleet_stats()
        assert stats["workers_launched"] == 5
        assert stats["workers_lost"] == 5

    def test_non_builtin_worker_error_arrives_as_runtime_error(
            self, tiny_plan, fault_engines):
        """A worker exception of a type the coordinator cannot rebuild
        arrives as a RuntimeError naming that type, at its plan turn."""
        jobs = list(tiny_plan.jobs[:2]) \
            + [_with_engine(tiny_plan.jobs[2], "test-raise")]
        executor = FleetExecutor(workers=2, heartbeat_interval=0.1)
        yielded = []
        with pytest.raises(RuntimeError) as raised:
            for job_result in executor.map(jobs):
                yielded.append(job_result.index)
        assert type(raised.value) is RuntimeError
        assert str(raised.value) == "_WorkerFault: injected worker fault"
        assert yielded == [0, 1]

    def test_all_workers_lost_raises_instead_of_wedging(self,
                                                        tiny_plan):
        executor = FleetExecutor(
            workers=2, launcher=StillbornLauncher(),
            max_respawns=1, lease_timeout=1.0,
        )
        with pytest.raises(FleetError, match="respawn budget"):
            list(executor.map(tiny_plan.jobs))

    def test_failed_respawn_reaches_the_consumer(self, tiny_plan):
        """A replacement launch that fails on the coordinator thread
        surfaces in the consuming thread as a FleetError naming the
        launcher — never a silently dead coordinator and a wedge."""
        launcher = DeadThenFailingLauncher(initial=2)
        executor = FleetExecutor(workers=2, launcher=launcher,
                                 lease_timeout=1.0)
        with pytest.raises(FleetError, match="fleet launcher 'stillborn' "
                                             "failed to start worker w2"):
            list(executor.map(tiny_plan.jobs))
        assert launcher.launches == 3
        assert not executor._run.coordinator.is_alive()


class TestLeaseWire:
    """Workers are forked holding the (frozen) plan, so the wire names a
    job by index and fingerprint only, and a result frame answers with
    the index, the fingerprint and the result entry."""

    def test_lease_entries_carry_index_and_fingerprint(
            self, tiny_plan, serial_outcomes):
        """The scripted first worker records every lease it is given
        and answers it the way a real worker does, from the two entry
        keys and its own copy of the plan."""
        leases = []

        def minimal_worker(worker):
            frame = worker.lease_frame
            while frame is not None and frame.get("type") == "lease":
                leases.append(frame)
                for entry in frame["jobs"]:
                    job = tiny_plan.jobs[entry["index"]]
                    send_frame(worker.sock, {
                        "type": "result", "lease": frame["lease"],
                        "index": job.index,
                        "fingerprint": job.fingerprint,
                        "result": encode_result(run_check_job(job).result),
                    })
                frame = recv_frame(worker.sock)
            worker.abort()

        launcher = ScriptedFirstLauncher(minimal_worker)
        executor = FleetExecutor(workers=2, launcher=launcher,
                                 heartbeat_interval=0.1)
        results = list(executor.map(tiny_plan.jobs))
        assert [_outcome(r) for r in results] == serial_outcomes
        assert leases
        entries = [entry for lease in leases for entry in lease["jobs"]]
        assert all(set(entry) == {"index", "fingerprint"}
                   for entry in entries)
        stats = executor.fleet_stats()
        assert stats["jobs_per_worker"]["w0"] == len(entries)
        assert stats["results_rejected"] == 0

    def test_worker_refuses_an_entry_it_does_not_hold(self, tiny_plan):
        """An entry whose fingerprint differs from the worker's own job
        (or whose index the worker has no job for) is answered with an
        error frame, never run."""
        coordinator, worker_end = socket.socketpair()
        worker = threading.Thread(
            target=_fleet_worker_main,
            args=("w0", worker_end, {"heartbeat_interval": 60.0},
                  tiny_plan.jobs),
            daemon=True)
        worker.start()
        try:
            coordinator.settimeout(30.0)
            foreign = {"index": 0, "fingerprint": "0" * 64}
            unknown = dict(_lease_entry(tiny_plan.jobs[0]), index=10**6)
            for lease, entry in enumerate((foreign, unknown)):
                send_frame(coordinator, {"type": "lease", "lease": lease,
                                         "jobs": [entry]})
                frame = recv_frame(coordinator)
                assert frame["type"] == "error"
                assert frame["index"] == entry["index"]
                assert "fingerprint mismatch" in frame["message"]
            send_frame(coordinator, {"type": "shutdown"})
            worker.join(10.0)
            assert not worker.is_alive()
        finally:
            coordinator.close()

    def test_result_for_other_content_is_rejected(self, tiny_plan,
                                                  serial_outcomes):
        """A result frame for the active lease and an unanswered index
        is still refused when its fingerprint is not the plan job's:
        the worker is dropped, its lease re-issued, and the stream
        matches serial."""

        def impostor(worker):
            lease = worker.lease_frame
            entry = lease["jobs"][0]
            job = tiny_plan.jobs[entry["index"]]
            send_frame(worker.sock, {
                "type": "result", "lease": lease["lease"],
                "index": entry["index"], "fingerprint": "0" * 64,
                "result": encode_result(run_check_job(job).result),
            })
            worker.sent.set()

        launcher = ScriptedFirstLauncher(impostor)
        executor = FleetExecutor(workers=2, launcher=launcher,
                                 heartbeat_interval=0.1)
        results = list(executor.map(tiny_plan.jobs))
        assert launcher.fake.sent.is_set()
        assert [_outcome(r) for r in results] == serial_outcomes
        stats = executor.fleet_stats()
        assert stats["results_rejected"] >= 1
        assert stats["workers_lost"] >= 1
        assert stats["leases_reissued"] >= 1
        assert stats["jobs_per_worker"]["w0"] == 0


class ThreadLauncher(LocalFleetLauncher):
    """Runs each fleet worker in a thread of this process, so every
    worker reports the same pid."""

    name = "thread"

    def launch(self, worker_id, conn, settings, jobs, coordinator_ends):
        thread = threading.Thread(
            target=_fleet_worker_main,
            args=(worker_id, conn, settings, jobs),
            daemon=True,
        )
        thread.start()
        return thread

    def stop(self, handle):
        pass  # the coordinator's hangup ends a thread worker


class TestCoordinatorThread:
    def test_fleet_never_listens_on_a_port(self, tiny_plan,
                                           serial_outcomes, monkeypatch):
        """Workers get socket pairs: a fleet run opens no listening
        socket anyone else could connect to."""
        listened = []
        listen = socket.socket.listen

        def recording_listen(sock, *args):
            listened.append(sock)
            return listen(sock, *args)

        monkeypatch.setattr(socket.socket, "listen", recording_listen)
        executor = FleetExecutor(workers=2, heartbeat_interval=0.1)
        results = list(executor.map(tiny_plan.jobs))
        assert [_outcome(r) for r in results] == serial_outcomes
        assert listened == []

    def test_clean_run_loses_no_worker(self, tiny_plan, serial_outcomes):
        """Dismissing the fleet at the end of a clean run is not a
        loss: the coordinator stops before the workers hang up."""
        executor = FleetExecutor(workers=2, heartbeat_interval=0.1)
        results = list(executor.map(tiny_plan.jobs))
        assert [_outcome(r) for r in results] == serial_outcomes
        stats = executor.fleet_stats()
        assert stats["workers_launched"] == 2
        assert stats["workers_lost"] == 0
        assert stats["leases_reissued"] == 0
        assert stats["results_rejected"] == 0
        assert sum(stats["jobs_per_worker"].values()) == TOTAL_JOBS

    def test_close_mid_stream_stops_the_coordinator(self, tiny_plan):
        executor = FleetExecutor(workers=2, heartbeat_interval=0.1)
        stream = executor.map(tiny_plan.jobs)
        next(stream)
        run = executor._run
        assert run.coordinator.is_alive()
        stream.close()
        assert not run.coordinator.is_alive()
        assert len(run.workers) == 2
        assert all(state.conn.fileno() == -1
                   for state in run.workers.values())

    def test_stress_more_workers_than_cores(self, tiny_plan,
                                            serial_outcomes):
        """More workers than cores, dense heartbeats and a tiny thread
        switch interval: no result, lease or counter update may be lost
        between the coordinator thread and the consumer."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            executor = FleetExecutor(workers=(os.cpu_count() or 1) + 2,
                                     heartbeat_interval=0.02)
            results = list(executor.map(tiny_plan.jobs))
        finally:
            sys.setswitchinterval(interval)
        assert [_outcome(r) for r in results] == serial_outcomes
        stats = executor.fleet_stats()
        assert stats["leases_issued"] == TOTAL_JOBS
        assert sum(stats["jobs_per_worker"].values()) == TOTAL_JOBS
        assert stats["workers_lost"] == 0
        assert stats["results_rejected"] == 0

    def test_leasing_never_waits_for_the_consumer(self, tiny_plan):
        """With the consumer parked after its first result, idle
        workers keep getting leases until every FIFO unit is out."""
        executor = FleetExecutor(workers=2, heartbeat_interval=0.1)
        stream = executor.map(tiny_plan.jobs)
        try:
            next(stream)
            deadline = time.monotonic() + 30.0
            while executor.fleet_stats()["leases_issued"] < TOTAL_JOBS \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert executor.fleet_stats()["leases_issued"] == TOTAL_JOBS
        finally:
            stream.close()


class TestWarmStateCounters:
    def test_workers_sharing_a_pid_are_summed(self):
        """Two workers reporting one pid still count as two workers,
        and their compile counters add up to one compile per executed
        job: block C's 101 jobs hold 32 distinct checks (C01–C03,
        C04–C06 and C07–C12 are renamed copies), and only those run."""
        blocks = ComponentChip(only_blocks=["C"]).blocks
        serial = CampaignOrchestrator(blocks,
                                      executor=SerialExecutor()).run()
        assert serial.stats["coi"]["jobs_executed"] == 32
        serial_run = serial.stats["compile_store"]["run"]
        assert serial_run["design_hits"] + \
            serial_run["design_misses"] == 32
        report = CampaignOrchestrator(
            blocks,
            executor=FleetExecutor(workers=2, launcher=ThreadLauncher(),
                                   heartbeat_interval=0.1),
        ).run()
        assert report.canonical_bytes() == serial.canonical_bytes()
        per_worker = report.stats["fleet"]["jobs_per_worker"]
        assert sorted(per_worker) == ["w0", "w1"]
        assert sum(per_worker.values()) == 32
        run_stats = report.stats["compile_store"]["run"]
        assert run_stats["workers"] == 2
        assert run_stats["design_hits"] + \
            run_stats["design_misses"] == 32

    def test_sat_counters_of_workers_sharing_a_pid_are_summed(self):
        """The SAT-workspace counters follow the same rule: two
        workers, and one lease per session a job takes, as in serial."""
        blocks = ComponentChip(only_blocks=["C"]).blocks
        serial = CampaignOrchestrator(
            blocks, executor=SerialExecutor(share_sat=True)).run()
        executor = FleetExecutor(workers=2, launcher=ThreadLauncher(),
                                 share_sat=True, heartbeat_interval=0.1)
        report = CampaignOrchestrator(blocks, executor=executor).run()
        assert report.canonical_bytes() == serial.canonical_bytes()
        sat = executor.sat_stats()
        assert sat["workers"] == 2
        assert sat["leases"] == serial.stats["sat_workspace"]["leases"]


class TestConstructor:
    @pytest.mark.parametrize("kwargs", [
        dict(workers=0), dict(lease_timeout=0),
        dict(heartbeat_interval=0),
    ], ids=["workers", "lease_timeout", "heartbeat_interval"])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            FleetExecutor(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(host="127.0.0.1"), dict(port=0),
    ], ids=["host", "port"])
    def test_removed_bind_arguments(self, kwargs):
        """Workers get socket pairs, so there is no address to bind."""
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            FleetExecutor(workers=2, **kwargs)


def _stopped_worker_run(jobs, expected, report_path):
    """Child-process body: SIGSTOP one worker of a 2-worker fleet after
    the first result, finish the stream, and write what it saw.  The
    process then exits through multiprocessing's exit handler, which
    joins every child it still knows of."""
    launcher = TrackingLauncher()
    executor = FleetExecutor(workers=2, launcher=launcher,
                             lease_timeout=1.0, heartbeat_interval=0.1)
    stream = executor.map(jobs)
    results = [next(stream)]
    stopped = launcher.handles[0].pid
    with open(report_path + ".pid", "w") as out:
        out.write(str(stopped))
    os.kill(stopped, signal.SIGSTOP)
    results.extend(stream)
    with open(report_path, "w") as out:
        json.dump({
            "identical": [_outcome(r) for r in results] == expected,
            "stopped_running": _running(stopped),
            "children": len(multiprocessing.active_children()),
            "stats": executor.fleet_stats(),
        }, out)


class TestStoppedWorker:
    def test_stopped_worker_is_killed_and_the_process_exits(
            self, tiny_plan, serial_outcomes, tmp_path):
        """A SIGSTOPped worker becomes a zombie and its lease is
        re-issued; when the stream ends it is killed, not waited for,
        so the campaign process exits instead of blocking forever in
        its exit handler."""
        report = tmp_path / "report.json"
        child = multiprocessing.get_context("fork").Process(
            target=_stopped_worker_run,
            args=(tiny_plan.jobs, serial_outcomes, str(report)))
        child.start()
        child.join(30.0)
        if child.is_alive():
            stopped = tmp_path / "report.json.pid"
            if stopped.exists():
                os.kill(int(stopped.read_text()), signal.SIGKILL)
            child.kill()
            child.join()
            pytest.fail("campaign process still running after 30 s")
        assert child.exitcode == 0
        seen = json.loads(report.read_text())
        assert seen["identical"]
        assert not seen["stopped_running"]
        assert seen["children"] == 0
        assert seen["stats"]["workers_lost"] >= 1
        assert seen["stats"]["leases_reissued"] >= 1


def _fleet_campaign(blocks, journal_path, pid_dir=None):
    """Child-process campaign on a 2-worker fleet, throttled so the
    parent can land a SIGKILL mid-stream."""
    launcher = PidFileLauncher(pid_dir) if pid_dir else None
    CampaignOrchestrator(
        blocks, engines=_engines(),
        executor=FleetExecutor(workers=2, heartbeat_interval=0.1,
                               launcher=launcher),
        checkpoint=CampaignCheckpoint(journal_path),
    ).run(progress=lambda line: time.sleep(0.03))


def _kill_coordinator_midway(tiny_blocks, journal, pid_dir=None):
    """Run :func:`_fleet_campaign` in a forked child and SIGKILL it
    once five results are journaled."""
    context = multiprocessing.get_context("fork")
    child = context.Process(target=_fleet_campaign,
                            args=(tiny_blocks, str(journal), pid_dir))
    child.start()
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if journal.exists() and \
                    len(journal.read_text().splitlines()) >= 6:
                break
            time.sleep(0.005)
        else:
            pytest.fail("child fleet campaign never journaled "
                        "5 entries")
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.join()


class TestCoordinatorKill:
    def test_sigkilled_coordinator_resumes_byte_identical(
            self, tiny_blocks, reference, tmp_path):
        """SIGKILL the whole coordinator process mid-campaign, then
        resume from the journal — on a fresh fleet — into a report
        byte-identical to the uninterrupted serial run."""
        journal = tmp_path / "journal.jsonl"
        _kill_coordinator_midway(tiny_blocks, journal)
        resumed = CampaignOrchestrator(
            tiny_blocks, engines=_engines(),
            executor=FleetExecutor(workers=2, heartbeat_interval=0.1),
            checkpoint=CampaignCheckpoint(journal),
        ).run(resume=True)
        replayed = resumed.stats["journal_replayed"]
        assert 0 < replayed < TOTAL_JOBS
        assert resumed.canonical_bytes() == reference.canonical_bytes()
        assert format_table2(resumed) == format_table2(reference)

    def test_workers_exit_when_their_coordinator_is_killed(
            self, tiny_blocks, tmp_path):
        """No worker outlives a SIGKILLed coordinator: each one drops
        the coordinator's socket ends it inherited through the fork,
        so its own socket reaches EOF when the coordinator dies."""
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        _kill_coordinator_midway(tiny_blocks, tmp_path / "journal.jsonl",
                                 str(pid_dir))
        pids = [int(path.read_text()) for path in pid_dir.iterdir()]
        assert len(pids) >= 2
        deadline = time.monotonic() + 30.0
        while any(_running(pid) for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)  # leave no orphan behind
        assert survivors == []
