"""Service-layer certification: the verdict store's service extras,
submission queue, HTTP API, and the daemon's crash story.

The acceptance bar mirrors the executor/checkpoint suites: a campaign
served through the daemon — cold, as a fully cache-hit re-submission,
and re-submitted after a mid-run daemon SIGKILL, resuming from the
verdicts the store committed — must produce
``CampaignReport.canonical_bytes`` identical to a serial in-process
run, and two clients posting the same config must get one underlying
job run.  The daemon keeps no journal of its own.  The store's corruption matrix and shared-path behaviour are
``tests/test_orchestrate.py``'s subject.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro import __version__ as repro_version
from repro.chip import ComponentChip
from repro.formal.engine import PASS, CheckResult
from repro.orchestrate import CampaignOrchestrator, ResultCache
from repro.orchestrate.config import CampaignConfig, ConfigError
from repro.orchestrate.stats import STATS_SCHEMA, counter_groups
from repro.service import (
    CampaignQueue, ServiceClient, ServiceDaemon, ServiceError,
)

#: jobs in the tiny two-module plan; pinned by the reference fixture
TOTAL_JOBS = 17


def _tiny_blocks():
    """Two modules of block C, one seeded defect — FAIL verdicts (with
    traces that must re-validate on every hit) land in the store."""
    chip = ComponentChip(defects={"B2"}, only_blocks=["C"])
    return [("C", chip.blocks[0][1][:2])]


def _service_blocks(config):
    """blocks_provider for daemons under test: every config maps to
    the tiny fixture scope (module-level so fork children can use it)."""
    return _tiny_blocks()


@pytest.fixture(scope="module")
def tiny_blocks():
    return _tiny_blocks()


@pytest.fixture(scope="module")
def reference(tiny_blocks):
    """The serial in-process run every served campaign must reproduce
    byte-for-byte (default config — the same one tests submit)."""
    report = CampaignOrchestrator(tiny_blocks,
                                  config=CampaignConfig()).run()
    assert report.total_properties == TOTAL_JOBS
    assert report.by_status("fail"), "fixture must produce FAILs"
    return report


def _db_campaign(blocks, db):
    return CampaignOrchestrator(blocks, config=CampaignConfig(),
                                cache=db).run()


def _journals(data_dir):
    """The checkpoint journals in a daemon's data directory (the daemon
    writes none: its store is the one persistence path)."""
    if not os.path.isdir(data_dir):
        return []
    return [name for name in os.listdir(data_dir)
            if name.startswith("journal-") and name.endswith(".jsonl")]


def _stored_rows(path):
    """Committed verdict rows in a store file, read from outside (0
    until the writer has created the table)."""
    import sqlite3
    if not os.path.exists(path):
        return 0
    conn = sqlite3.connect(path, timeout=1.0)
    try:
        return conn.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0]
    except sqlite3.Error:
        return 0
    finally:
        conn.close()


def _json_cache(path, entries, **header):
    """Write a JSON cache in the format before the SQLite store."""
    payload = {"version": 1, "repro_version": repro_version,
               "entries": entries}
    payload.update(header)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


# ======================================================================
# The verdict store's service extras: counters, provenance, migration
# ======================================================================

class TestVerdictStore:
    def test_campaign_through_store_is_byte_identical_and_then_all_hits(
            self, tiny_blocks, reference, tmp_path):
        db = ResultCache(str(tmp_path / "verdicts.sqlite"))
        cold = _db_campaign(tiny_blocks, db)
        assert cold.canonical_bytes() == reference.canonical_bytes()
        assert cold.stats["cache_misses"] == TOTAL_JOBS
        assert len(db) == TOTAL_JOBS
        warm = _db_campaign(tiny_blocks, db)
        assert warm.canonical_bytes() == reference.canonical_bytes()
        assert warm.stats["cache_misses"] == 0
        assert warm.stats["cache_hits"] == TOTAL_JOBS
        stats = db.stats()
        assert stats["stored"] == TOTAL_JOBS
        assert stats["hits"] == TOTAL_JOBS
        assert stats["unsafe_evicted"] == 0
        assert stats["entries"] == TOTAL_JOBS

    def test_survives_reopen(self, tiny_blocks, reference, tmp_path):
        path = str(tmp_path / "verdicts.sqlite")
        db = ResultCache(path)
        _db_campaign(tiny_blocks, db)
        db.close()
        warm = _db_campaign(tiny_blocks, ResultCache(path))
        assert warm.stats["cache_misses"] == 0
        assert warm.canonical_bytes() == reference.canonical_bytes()

    def test_provenance_row(self, tiny_blocks, tmp_path):
        db = ResultCache(str(tmp_path / "verdicts.sqlite"))
        _db_campaign(tiny_blocks, db)
        plan = CampaignOrchestrator(tiny_blocks,
                                    config=CampaignConfig()).plan()
        job = plan.jobs[0]
        row = db.get(job.fingerprint)
        assert row["fingerprint"] == job.fingerprint
        assert row["module"] == job.module.name
        assert row["category"] == job.category
        assert row["status"] in ("pass", "fail", "timeout", "unknown")
        assert isinstance(row["stored_at"], float)
        assert isinstance(row["entry"], dict)
        assert db.get("no-such-fingerprint") is None

    def test_engine_history_survives_reopen(self, tiny_blocks, tmp_path):
        """The adaptive portfolio policy must see the same historical
        winners from a reopened store as from the one that stored
        them."""
        path = str(tmp_path / "verdicts.sqlite")
        db = ResultCache(path)
        _db_campaign(tiny_blocks, db)
        history = db.engine_history()
        db.close()
        assert ResultCache(path).engine_history() == history
        assert history, "fixture must produce definitive verdicts"

    def test_import_cache_migrates_and_second_run_hits(
            self, tiny_blocks, reference, tmp_path):
        source = ResultCache(str(tmp_path / "source.sqlite"))
        _db_campaign(tiny_blocks, source)
        plan = CampaignOrchestrator(tiny_blocks,
                                    config=CampaignConfig()).plan()
        cache_path = str(tmp_path / "legacy-cache.json")
        _json_cache(cache_path, {
            job.fingerprint: source.get(job.fingerprint)["entry"]
            for job in plan.jobs})
        db = ResultCache(str(tmp_path / "verdicts.sqlite"))
        assert db.import_cache(cache_path) == TOTAL_JOBS
        assert len(db) == TOTAL_JOBS
        served = _db_campaign(tiny_blocks, db)
        assert served.stats["cache_misses"] == 0
        assert served.canonical_bytes() == reference.canonical_bytes()
        assert db.stats()["imported"] == TOTAL_JOBS
        # importing again is idempotent: nothing in the file is newer
        assert db.import_cache(cache_path) == 0

    def test_import_rejects_rotten_or_foreign_caches(self, tmp_path):
        db = ResultCache(str(tmp_path / "verdicts.sqlite"))
        missing = str(tmp_path / "nope.json")
        assert db.import_cache(missing) == 0
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert db.import_cache(str(garbage)) == 0
        foreign = str(tmp_path / "foreign.json")
        _json_cache(foreign, {"fp": {"status": "pass"}},
                    repro_version="0.0.0-not-this-build")
        assert db.import_cache(foreign) == 0
        assert len(db) == 0
        assert not os.path.exists(db.path)  # nothing stored, no file

    def test_import_skips_malformed_provenance(self, tmp_path):
        """An entry whose provenance SQLite cannot bind is skipped, and
        a stamp it cannot store counts as oldest; the rest import and
        the store keeps its rows."""
        db = ResultCache(str(tmp_path / "verdicts.sqlite"))
        db.store("kept", CheckResult("p", PASS, "kind"))
        legacy = str(tmp_path / "legacy.json")
        _json_cache(legacy, {
            "list-module": {"status": "pass", "module": ["a", "b"]},
            "dict-engine": {"status": "pass", "engine": {"x": 1}},
            "good": {"status": "pass", "engine": "kind", "stored_at": 1.0},
            "nan-stamp": {"status": "pass", "stored_at": float("nan")},
        })
        assert db.import_cache(legacy) == 2
        db.close()
        reopened = ResultCache(db.path)
        assert len(reopened) == 3
        assert reopened.get("nan-stamp")["stored_at"] == 0.0
        assert "kept" in reopened and "good" in reopened
        assert db.stats()["resets"] == 0


# ======================================================================
# Submission queue: in-flight dedup, one run for N clients
# ======================================================================

class TestCampaignQueue:
    def test_duplicate_inflight_submissions_share_one_run(
            self, reference, tmp_path):
        db = ResultCache(str(tmp_path / "verdicts.sqlite"))
        queue = CampaignQueue(db, str(tmp_path / "svc"),
                              blocks_provider=_service_blocks,
                              throttle=0.05)
        try:
            config = CampaignConfig()
            first, deduped_first = queue.submit(config, tenant="a")
            second, deduped_second = queue.submit(config, tenant="b")
            assert not deduped_first
            assert deduped_second
            assert second is first  # one run, two subscribers
            assert first.finished.wait(timeout=120.0)
            assert first.state == "done"
            assert first.canonical == \
                reference.canonical_bytes().decode("utf-8")
            # one underlying job run — not one per client
            assert first.executed == TOTAL_JOBS
            assert db.stats()["stored"] == TOTAL_JOBS
            assert first.journal_replayed == 0
            assert _journals(queue.data_dir) == []
            metrics = queue.metrics()
            assert metrics["totals"]["submissions"] == 2
            assert metrics["totals"]["deduped"] == 1
            assert metrics["totals"]["jobs_executed"] == TOTAL_JOBS
        finally:
            queue.close()
            db.close()

    def test_distinct_configs_queue_separately(self, tmp_path):
        db = ResultCache(str(tmp_path / "verdicts.sqlite"))
        queue = CampaignQueue(db, str(tmp_path / "svc"),
                              blocks_provider=_service_blocks,
                              throttle=0.05)
        try:
            first, _ = queue.submit(CampaignConfig())
            second, deduped = queue.submit(
                CampaignConfig(engines="auto"))
            assert not deduped
            assert second is not first
            assert first.finished.wait(timeout=120.0)
            assert second.finished.wait(timeout=120.0)
            assert {first.state, second.state} == {"done"}
            assert _journals(queue.data_dir) == []
        finally:
            queue.close()
            db.close()

    def test_completed_run_resubmission_is_all_verdict_hits(
            self, reference, tmp_path):
        db = ResultCache(str(tmp_path / "verdicts.sqlite"))
        queue = CampaignQueue(db, str(tmp_path / "svc"),
                              blocks_provider=_service_blocks)
        try:
            config = CampaignConfig()
            first, _ = queue.submit(config)
            assert first.finished.wait(timeout=120.0)
            # the campaign's truth lives in the db, never in a journal
            assert _journals(queue.data_dir) == []
            again, deduped = queue.submit(config)
            assert not deduped  # first run already finished
            assert again.finished.wait(timeout=120.0)
            assert again.executed == 0
            assert again.verdict_hits == TOTAL_JOBS
            assert again.canonical == first.canonical == \
                reference.canonical_bytes().decode("utf-8")
            assert _journals(queue.data_dir) == []
        finally:
            queue.close()
            db.close()


# ======================================================================
# The HTTP boundary
# ======================================================================

@pytest.fixture()
def daemon(tmp_path):
    daemon = ServiceDaemon(
        CampaignConfig(cache_path=str(tmp_path / "verdicts.sqlite")),
        port=0, data_dir=str(tmp_path / "svc"),
        blocks_provider=_service_blocks,
    ).start()
    yield daemon
    daemon.close()


class TestServiceApi:
    def test_healthz_and_metrics_schema(self, daemon):
        client = ServiceClient(daemon.url)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["verdicts"] == 0
        metrics = client.metrics()
        assert metrics["stats_schema"] == STATS_SCHEMA
        assert metrics["queue"]["totals"] == {}
        assert metrics["verdict_db"]["entries"] == 0

    def test_cold_run_then_cache_hit_resubmission(self, daemon,
                                                  reference):
        client = ServiceClient(daemon.url)
        config = CampaignConfig()
        ticket = client.submit(config, tenant="alpha")
        assert not ticket["deduped"]
        assert ticket["config_digest"] == config.digest()
        status = client.wait(ticket["id"], timeout=120.0)
        assert status["state"] == "done"
        assert status["stats_schema"] == STATS_SCHEMA
        assert status["jobs"] == TOTAL_JOBS
        assert status["executed"] == TOTAL_JOBS
        assert status["verdict_hits"] == 0
        # the acceptance bar: served bytes == serial in-process bytes
        assert status["canonical"] == \
            reference.canonical_bytes().decode("utf-8")
        assert "orchestrator" in status["counter_groups"]

        again = client.submit(config, tenant="beta")
        final = client.wait(again["id"], timeout=120.0)
        assert final["executed"] == 0
        assert final["verdict_hits"] == TOTAL_JOBS
        assert final["canonical"] == status["canonical"]
        # /metrics must prove the re-submission ran zero jobs
        metrics = client.metrics()
        assert metrics["queue"]["tenants"]["beta"]["jobs_executed"] == 0
        assert metrics["queue"]["tenants"]["beta"]["verdict_hits"] == \
            TOTAL_JOBS
        assert metrics["queue"]["tenants"]["alpha"]["jobs_executed"] \
            == TOTAL_JOBS
        assert metrics["verdict_db"]["entries"] == TOTAL_JOBS

    def test_concurrent_duplicate_posts_one_underlying_run(
            self, daemon, reference):
        """Two clients racing the same config: one run id, one job
        run, byte-identical reports on both sides."""
        client = ServiceClient(daemon.url)
        config = CampaignConfig()
        tickets = [None, None]

        def post(slot, tenant):
            tickets[slot] = client.submit(config, tenant=tenant)

        threads = [
            threading.Thread(target=post, args=(slot, tenant))
            for slot, tenant in ((0, "racer-a"), (1, "racer-b"))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert tickets[0]["id"] == tickets[1]["id"]
        assert sorted(t["deduped"] for t in tickets) == [False, True]
        finals = [client.wait(t["id"], timeout=120.0) for t in tickets]
        assert finals[0]["canonical"] == finals[1]["canonical"] == \
            reference.canonical_bytes().decode("utf-8")
        assert finals[0]["executed"] == TOTAL_JOBS
        totals = client.metrics()["queue"]["totals"]
        assert totals["submissions"] == 2
        assert totals["deduped"] == 1
        assert totals["jobs_executed"] == TOTAL_JOBS

    def test_watch_streams_events_then_status(self, daemon):
        client = ServiceClient(daemon.url)
        ticket = client.submit(CampaignConfig())
        events, status = [], None
        for message in client.watch(ticket["id"]):
            if "event" in message:
                events.append(message["event"])
            else:
                status = message["status"]
        assert status is not None and status["state"] == "done"
        assert len(events) == TOTAL_JOBS  # one line per property
        assert all(":" in line for line in events)

    def test_verdict_endpoint_serves_provenance(self, daemon,
                                                tiny_blocks):
        client = ServiceClient(daemon.url)
        ticket = client.submit(CampaignConfig())
        client.wait(ticket["id"], timeout=120.0)
        plan = CampaignOrchestrator(tiny_blocks,
                                    config=CampaignConfig()).plan()
        job = plan.jobs[0]
        verdict = client.verdict(job.fingerprint)
        assert verdict["module"] == job.module.name
        assert verdict["category"] == job.category
        with pytest.raises(ServiceError) as exc:
            client.verdict("not-a-fingerprint")
        assert exc.value.status == 404

    def test_config_toml_submission(self, daemon):
        config = CampaignConfig()
        payload = {"config_toml": config.to_toml()}
        import urllib.request
        request = urllib.request.Request(
            f"{daemon.url}/v1/campaigns",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     "X-Tenant": "toml-tenant"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            ticket = json.loads(response.read())
        assert ticket["config_digest"] == config.digest()
        status = ServiceClient(daemon.url).wait(ticket["id"],
                                                timeout=120.0)
        assert status["state"] == "done"
        assert status["tenant"] == "toml-tenant"

    def test_api_errors(self, daemon):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceError) as exc:
            client.status("c999999-nope")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/v1/campaigns",
                            {"config": {"bogus_section": {}}})
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/v1/campaigns", {})
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/v2/nothing")
        assert exc.value.status == 404
        # an unreachable daemon is a ServiceError, not a traceback
        dead = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError):
            dead.healthz()


# ======================================================================
# The crash story: SIGKILL the daemon mid-run, restart, resume
# ======================================================================

def _daemon_child(db_path, data_dir, port):
    """Child process: a throttled daemon (~50 ms per property) so the
    parent can land a SIGKILL mid-campaign."""
    daemon = ServiceDaemon(
        CampaignConfig(cache_path=db_path), host="127.0.0.1", port=port,
        data_dir=data_dir, blocks_provider=_service_blocks,
        throttle=0.05,
    )
    daemon.serve_forever()


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestDaemonKillResume:
    def test_sigkilled_daemon_resumes_byte_identical(
            self, reference, tmp_path):
        """Kill the whole daemon process mid-campaign; a restarted
        daemon on the same database and data dir, handed the same
        config, must resume from the verdicts the store committed
        into the same bytes — and a third submission must be a pure
        verdict-cache hit."""
        db_path = str(tmp_path / "verdicts.sqlite")
        data_dir = str(tmp_path / "svc")
        port = _free_port()
        context = multiprocessing.get_context("fork")
        child = context.Process(target=_daemon_child,
                                args=(db_path, data_dir, port))
        child.start()
        config = CampaignConfig()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5.0)
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    client.healthz()
                    break
                except ServiceError:
                    time.sleep(0.05)
            else:
                pytest.fail("daemon child never came up")
            client.submit(config)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if _stored_rows(db_path) >= 5:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("served campaign never committed verdicts")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.join()

        # restart on the same state, re-submit the same config
        daemon = ServiceDaemon(
            CampaignConfig(cache_path=db_path), port=0,
            data_dir=data_dir, blocks_provider=_service_blocks,
        ).start()
        try:
            survivor = ServiceClient(daemon.url)
            resumed = survivor.submit(config)
            status = survivor.wait(resumed["id"], timeout=120.0)
            assert status["state"] == "done"
            assert 0 < status["verdict_hits"] < TOTAL_JOBS
            assert status["journal_replayed"] == 0
            assert status["canonical"] == \
                reference.canonical_bytes().decode("utf-8")
            assert status["verdict_hits"] + status["executed"] \
                == TOTAL_JOBS

            # third submission: everything is in the verdict db now
            third = survivor.submit(config)
            final = survivor.wait(third["id"], timeout=120.0)
            assert final["executed"] == 0
            assert final["journal_replayed"] == 0
            assert final["verdict_hits"] == TOTAL_JOBS
            assert final["canonical"] == status["canonical"]
            metrics = survivor.metrics()
            assert metrics["queue"]["totals"]["verdict_hits"] >= \
                TOTAL_JOBS
            assert _journals(data_dir) == []
        finally:
            daemon.close()


# ======================================================================
# [service] config section
# ======================================================================

class TestServiceConfigSection:
    def test_defaults_are_absent_and_unserialized(self):
        config = CampaignConfig()
        assert config.service_host is None
        assert config.service_port is None
        assert config.service_data_dir is None
        # absent fields serialize to nothing: pre-service configs
        # keep their digests
        assert "service" not in config.to_dict()

    def test_round_trip_and_digest(self):
        config = CampaignConfig(service_host="0.0.0.0",
                                service_port=9000,
                                service_data_dir="out/svc")
        data = config.to_dict()
        assert data["service"] == {
            "host": "0.0.0.0", "port": 9000, "data_dir": "out/svc",
        }
        clone = CampaignConfig.from_toml(config.to_toml())
        assert clone == config
        assert clone.digest() == config.digest()
        assert clone.digest() != CampaignConfig().digest()

    @pytest.mark.parametrize("kwargs", [
        {"service_port": -1},
        {"service_port": 65536},
        {"service_port": "8357"},
        {"service_host": ""},
        {"service_host": 17},
        {"service_data_dir": ""},
        {"service_data_dir": b"x"},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CampaignConfig(**kwargs)

    def test_daemon_resolves_section(self, tmp_path):
        config = CampaignConfig(
            service_host="127.0.0.1", service_port=0,
            service_data_dir=str(tmp_path / "state"),
        )
        daemon = ServiceDaemon(config,
                               blocks_provider=_service_blocks)
        try:
            assert daemon.db.path == \
                os.path.join(str(tmp_path / "state"), "verdicts.sqlite")
            assert daemon.queue.data_dir == str(tmp_path / "state")
            assert daemon.address[0] == "127.0.0.1"
            assert daemon.address[1] > 0  # ephemeral port resolved
        finally:
            daemon.close()

    def test_db_path_argument_removed(self, tmp_path):
        """The store is named by the config's ``[cache] path`` only."""
        with pytest.raises(TypeError, match="db_path"):
            ServiceDaemon(CampaignConfig(), port=0,
                          db_path=str(tmp_path / "verdicts.sqlite"))

    def test_daemon_serves_the_campaign_cache(self, tmp_path):
        """One path for the one store: a verdict settled by a campaign
        run from the example config is a hit for a daemon started on
        the same config."""
        config = dataclasses.replace(
            CampaignConfig.load(os.path.join(
                os.path.dirname(__file__), "..", "examples",
                "campaign.toml")),
            cache_path=str(tmp_path / "campaign-cache.sqlite"),
            checkpoint_path=str(tmp_path / "campaign.journal"),
            service_port=0, service_data_dir=str(tmp_path / "svc"))
        ran = CampaignOrchestrator(_tiny_blocks(), config=config).run()
        assert ran.stats["cache_misses"] == TOTAL_JOBS
        with open(config.checkpoint_path, "rb") as handle:
            journal = handle.read()
        daemon = ServiceDaemon(config,
                               blocks_provider=_service_blocks).start()
        try:
            assert daemon.db.path == config.cache_path
            client = ServiceClient(daemon.url)
            ticket = client.submit(config)
            status = client.wait(ticket["id"], timeout=120.0)
            assert status["state"] == "done"
            assert status["executed"] == 0
            assert status["verdict_hits"] == TOTAL_JOBS
            assert status["canonical"] == \
                ran.canonical_bytes().decode("utf-8")
        finally:
            daemon.close()
        # the daemon ignores the config's journal: the CLI run's
        # journal is untouched, and none appears in the data dir
        with open(config.checkpoint_path, "rb") as handle:
            assert handle.read() == journal
        assert _journals(config.service_data_dir) == []

    def test_daemon_serves_verdicts_stored_while_it_runs(self, tmp_path):
        """A campaign that settles its verdicts after the daemon opened
        the shared store is still served: a miss in the daemon's index
        reads the row."""
        path = str(tmp_path / "shared.sqlite")
        ResultCache(path).store("seed", CheckResult("p", PASS, "kind"))
        config = CampaignConfig(cache_path=path, service_port=0,
                                service_data_dir=str(tmp_path / "svc"))
        daemon = ServiceDaemon(config,
                               blocks_provider=_service_blocks).start()
        try:
            ran = CampaignOrchestrator(_tiny_blocks(),
                                       config=config).run()
            assert ran.stats["cache_misses"] == TOTAL_JOBS
            client = ServiceClient(daemon.url)
            job = CampaignOrchestrator(_tiny_blocks(),
                                       config=config).plan().jobs[0]
            assert client.verdict(job.fingerprint)["module"] == \
                job.module.name
            status = client.wait(client.submit(config)["id"],
                                 timeout=120.0)
            assert status["executed"] == 0
            assert status["verdict_hits"] == TOTAL_JOBS
        finally:
            daemon.close()


# ======================================================================
# Presets and the stats schema
# ======================================================================

class TestPresets:
    def test_every_preset_parses(self):
        from repro.cli import PRESET_NAMES, resolve_config_path
        for name in PRESET_NAMES:
            path = resolve_config_path(f"preset:{name}")
            assert os.path.exists(path)
            CampaignConfig.load(path)  # must not raise

    def test_plain_paths_pass_through(self):
        from repro.cli import resolve_config_path
        assert resolve_config_path("some/file.toml") == "some/file.toml"

    def test_unknown_preset_is_a_config_error(self):
        from repro.cli import resolve_config_path
        with pytest.raises(ConfigError, match="unknown preset"):
            resolve_config_path("preset:hourly")

    def test_smoke_preset_is_the_fast_one(self):
        from repro.cli import resolve_config_path
        config = CampaignConfig.load(resolve_config_path("preset:smoke"))
        assert config.executor == "serial"
        assert config.blocks == ("C",)


class TestStatsSchema:
    def test_reports_carry_the_schema_stamp(self, reference):
        assert reference.stats["stats_schema"] == STATS_SCHEMA

    def test_counter_groups_shape(self, reference):
        groups = counter_groups(reference.stats)
        assert groups["orchestrator"]["jobs"] == TOTAL_JOBS
        assert "engine_attempts" in groups
        assert "compile_store_run" in groups
        for counters in groups.values():
            assert all(isinstance(v, int) and not isinstance(v, bool)
                       for v in counters.values())

    def test_tolerates_foreign_shapes(self):
        assert counter_groups({}) == {}
        assert counter_groups({"fleet": "not-a-dict",
                               "jobs": "many"}) == {}


class TestCliSubmit:
    def test_submit_exit_code_mirrors_campaign_run(self, daemon,
                                                   tmp_path, capsys):
        from repro.cli import main
        config_path = tmp_path / "campaign.toml"
        config_path.write_text(CampaignConfig().to_toml())
        code = main(["submit", "--config", str(config_path),
                     "--url", daemon.url])
        out = capsys.readouterr().out
        # the tiny fixture seeds a defect, so the campaign FAILs: the
        # CLI must say so and exit 1, exactly like `campaign run`
        assert code == 1
        assert "FAILURES" in out
        assert f"{TOTAL_JOBS} jobs" in out
