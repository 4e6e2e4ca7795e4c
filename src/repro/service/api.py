"""The verification-as-a-service HTTP boundary.

:class:`ServiceDaemon` hosts the whole service on a stdlib
``ThreadingHTTPServer``: one shared verdict store (a
:class:`~repro.orchestrate.cache.ResultCache`), one
:class:`~repro.service.queue.CampaignQueue`, and a JSON API.  The
endpoint surface (the table :data:`SERVICE_ENDPOINTS` is what
``docs/service.md`` is drift-checked against):

- ``POST /v1/campaigns`` — submit a campaign by config.  The body is
  ``{"config": {...}}`` (the nested ``CampaignConfig.to_dict`` form)
  or ``{"config_toml": "..."}`` (a TOML file's text), plus an optional
  ``"tenant"`` (the ``X-Tenant`` header works too).  Responds 202 with
  the run id; an identical config already in flight responds with the
  *same* run id and ``"deduped": true``.  400 names the config error.
- ``GET /v1/campaigns/<id>`` — status snapshot.  ``?wait=SECS``
  long-polls until the run finishes (or the wait elapses);
  ``?watch=1`` streams progress as newline-delimited JSON — one
  ``{"event": ...}`` line per checked property, closed by one
  ``{"status": {...}}`` line when the run settles.
- ``GET /v1/verdicts/<fingerprint>`` — the raw stored verdict with
  provenance (module, category, engine, status, stored-at), 404 when
  the fingerprint is unknown.
- ``GET /healthz`` — liveness: ok, uptime, verdict count.
- ``GET /metrics`` — the versioned counter schema
  (:data:`~repro.orchestrate.stats.STATS_SCHEMA`): per-tenant
  metering from the queue plus the store's hit/miss/evict counters.

The daemon is embeddable (``ServiceDaemon(config).start()`` in tests)
and standalone (``python -m repro serve``, which calls
:meth:`serve_forever`).  Bind address, port, and data directory resolve
from the config's ``[service]`` section, the store path from
``[cache] path``, with defaults chosen for a localhost deployment.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..orchestrate.cache import ResultCache
from ..orchestrate.config import CampaignConfig, ConfigError
from ..orchestrate.stats import STATS_SCHEMA
from .queue import DONE, ERROR, CampaignQueue

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8357
DEFAULT_DATA_DIR = "out/service"

#: (method, path template, summary) — the public surface, one row per
#: endpoint; docs/service.md must document every row
#: (tools/check_docs.py enforces it)
SERVICE_ENDPOINTS = (
    ("POST", "/v1/campaigns",
     "submit a campaign by config; dedupes identical in-flight configs"),
    ("GET", "/v1/campaigns/<id>",
     "status snapshot; ?wait=SECS long-poll, ?watch=1 NDJSON stream"),
    ("GET", "/v1/verdicts/<fingerprint>",
     "raw stored verdict with provenance"),
    ("GET", "/healthz", "liveness and verdict count"),
    ("GET", "/metrics",
     "versioned counters: per-tenant metering + verdict-db stats"),
)


class ServiceDaemon:
    """The long-running service: verdict store + submission queue +
    HTTP server, owned together and shut down together.  The store is
    the config's ``[cache] path``, else ``<data_dir>/verdicts.sqlite``
    — so a daemon started on a campaign's config serves that
    campaign's verdicts."""

    def __init__(self, config: Optional[CampaignConfig] = None, *,
                 host: Optional[str] = None,
                 port: Optional[int] = None,
                 data_dir: Optional[str] = None,
                 blocks_provider=None,
                 throttle: float = 0.0) -> None:
        import os
        config = config if config is not None else CampaignConfig()
        self.config = config
        self.data_dir = data_dir or config.service_data_dir \
            or DEFAULT_DATA_DIR
        self.db = ResultCache(
            config.cache_path
            or os.path.join(self.data_dir, "verdicts.sqlite"))
        self.queue = CampaignQueue(self.db, self.data_dir,
                                   blocks_provider=blocks_provider,
                                   throttle=throttle)
        self.started_at = time.time()
        bind_host = host or config.service_host or DEFAULT_HOST
        bind_port = port if port is not None else (
            config.service_port if config.service_port is not None
            else DEFAULT_PORT)
        self._server = ThreadingHTTPServer((bind_host, bind_port),
                                           _Handler)
        self._server.daemon_threads = True
        self._server.service = self  # the handler's way back in
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port resolved even when the
        config asked for an ephemeral one (``port = 0``)."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceDaemon":
        """Serve in a background thread (the embeddable form)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="service-daemon", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (``python -m repro serve``)."""
        self._serving = True
        self._server.serve_forever()

    def close(self) -> None:
        if self._serving:
            # shutdown() handshakes with a serve loop and would block
            # forever if none ever ran (a constructed-but-never-served
            # daemon still owns its socket, queue, and store)
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self.queue.close():  # a worker still running keeps the store
            self.db.close()


class _Handler(BaseHTTPRequestHandler):
    """Route table over the daemon's queue and verdict store.  One handler
    thread per connection (ThreadingHTTPServer), so a ``?watch=1``
    stream blocking on a running campaign never starves the other
    endpoints."""

    # HTTP/1.0: the response body is delimited by connection close,
    # which is what lets the watch stream write lines as they happen
    # without chunked-encoding bookkeeping
    protocol_version = "HTTP/1.0"

    @property
    def daemon(self) -> ServiceDaemon:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # the daemon's stdout is not an access log

    # -- helpers -------------------------------------------------------
    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    # -- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        if parsed.path != "/v1/campaigns":
            self._error(404, f"no such endpoint: POST {parsed.path}")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
        except ValueError as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return
        try:
            if "config_toml" in body:
                config = CampaignConfig.from_toml(body["config_toml"])
            elif "config" in body:
                config = CampaignConfig.from_dict(body["config"])
            else:
                raise ConfigError(
                    "body needs a 'config' table or 'config_toml' text"
                )
        except ConfigError as exc:
            self._error(400, str(exc))
            return
        tenant = body.get("tenant") \
            or self.headers.get("X-Tenant") or "default"
        if not isinstance(tenant, str) or not tenant:
            self._error(400, "tenant must be a non-empty string")
            return
        try:
            run, deduped = self.daemon.queue.submit(config, tenant)
        except RuntimeError as exc:  # queue shut down
            self._error(503, str(exc))
            return
        self._send_json(202, {
            "id": run.id,
            "deduped": deduped,
            "state": run.state,
            "config_digest": run.config_digest,
        })

    # -- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        parts = [part for part in parsed.path.split("/") if part]
        if parsed.path == "/healthz":
            self._send_json(200, {
                "status": "ok",
                "version": __version__,
                "uptime_seconds": time.time() - self.daemon.started_at,
                "verdicts": len(self.daemon.db),
            })
        elif parsed.path == "/metrics":
            self._send_json(200, {
                "stats_schema": STATS_SCHEMA,
                "version": __version__,
                "uptime_seconds": time.time() - self.daemon.started_at,
                "queue": self.daemon.queue.metrics(),
                "verdict_db": self.daemon.db.stats(),
            })
        elif parts[:2] == ["v1", "campaigns"] and len(parts) == 3:
            self._campaign_status(parts[2], query)
        elif parts[:2] == ["v1", "verdicts"] and len(parts) == 3:
            verdict = self.daemon.db.get(parts[2])
            if verdict is None:
                self._error(404, f"unknown fingerprint {parts[2]!r}")
            else:
                self._send_json(200, verdict)
        else:
            self._error(404, f"no such endpoint: GET {parsed.path}")

    def _campaign_status(self, run_id: str, query: dict) -> None:
        run = self.daemon.queue.get(run_id)
        if run is None:
            self._error(404, f"unknown campaign {run_id!r}")
            return
        if query.get("watch", ["0"])[0] not in ("0", ""):
            self._watch(run)
            return
        wait = query.get("wait")
        if wait:
            try:
                timeout = float(wait[0])
            except ValueError:
                self._error(400, f"wait must be seconds, got {wait[0]!r}")
                return
            run.finished.wait(timeout=timeout)
        self._send_json(200, run.snapshot())

    def _watch(self, run) -> None:
        """Stream the run as NDJSON: every progress event as it lands,
        then the final status snapshot."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()

        def emit(payload: dict) -> None:
            self.wfile.write(
                json.dumps(payload, sort_keys=True).encode("utf-8")
                + b"\n")
            self.wfile.flush()

        sent = 0
        try:
            while True:
                with run.changed:
                    while sent >= len(run.events) \
                            and run.state not in (DONE, ERROR):
                        run.changed.wait(timeout=1.0)
                    fresh = run.events[sent:]
                    state = run.state
                for line in fresh:
                    emit({"event": line})
                sent += len(fresh)
                if state in (DONE, ERROR) and sent >= len(run.events):
                    emit({"status": run.snapshot()})
                    return
        except (ConnectionError, BrokenPipeError):
            return  # subscriber hung up mid-stream — their loss alone
