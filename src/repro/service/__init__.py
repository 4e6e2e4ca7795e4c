"""Verification as a service — daemon, queue, verdict database, client.

The service layer turns the batch campaign CLI into a long-running
daemon: clients submit campaign configs over HTTP, identical in-flight
submissions collapse onto one run, and every settled job verdict lands
in a shared content-addressed SQLite database so any client anywhere
re-submitting an identical (RTL, PSL, engine-config) triple gets an
instant cached verdict instead of a re-check.

The pieces, bottom up:

- :class:`~repro.orchestrate.cache.ResultCache` — the WAL-mode
  SQLite verdict store every campaign uses; the daemon opens one and
  hands it to each campaign it runs, and serves its provenance rows
  and metering counters.
- :mod:`repro.service.queue` — :class:`CampaignQueue`, the async
  submission path: config-digest dedup of in-flight campaigns, one
  orchestrator run per unique config into the shared store, per-tenant
  metering.
- :mod:`repro.service.api` — :class:`ServiceDaemon`, the
  ``ThreadingHTTPServer`` JSON boundary (``/v1/campaigns``,
  ``/v1/verdicts``, ``/healthz``, ``/metrics``).
- :mod:`repro.service.client` — :class:`ServiceClient`, the
  ``urllib`` bridge the CLI's ``serve``/``submit`` commands and the CI
  smoke job drive.

See ``docs/service.md`` for the endpoint table, deployment notes, and
the migration path for JSON caches.
"""

from .api import DEFAULT_HOST, DEFAULT_PORT, SERVICE_ENDPOINTS, \
    ServiceDaemon
from .client import ServiceClient, ServiceError
from .queue import CampaignQueue, CampaignRun

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "SERVICE_ENDPOINTS",
    "ServiceDaemon",
    "ServiceClient",
    "ServiceError",
    "CampaignQueue",
    "CampaignRun",
]
