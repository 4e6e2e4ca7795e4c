"""Incremental result cache — fingerprint-keyed, on-disk, verdict-safe.

The cache maps a :func:`~repro.orchestrate.job.job_fingerprint` (a
content hash of module RTL + vunit PSL + assertion + engine portfolio)
to a serialized :class:`CheckResult`.  Because the key covers the full
input of the check, a hit can only replay a verdict for a problem
identical up to the module's and vunit's names; any edit to the RTL,
the properties, or the engine configuration changes the fingerprint
and forces a re-check.  That is what makes ECO regression incremental:
only modules the ECO actually touched miss the cache.

Safety rules, in order of importance:

1. **Never a wrong verdict.**  Anything suspicious — unreadable or
   truncated file, unknown status, malformed entry or trace — degrades
   to a cache *miss* and the property is re-checked from scratch.  The
   store also pins its schema version and the ``repro`` package version
   and opens as empty on mismatch, since the fingerprint covers engine
   *configuration* but not engine *implementation*.  The one hole left
   open: a custom engine registered at runtime that changes behaviour
   under the same name and package version — delete the store after
   changing one.
2. **Counterexamples stay validated.**  A cached FAIL stores the trace's
   input frames; on a hit the assertion is recompiled, the trace is
   rebuilt against the fresh transition system, and it must replay as a
   real violation — otherwise the entry is discarded as a miss.
3. **Cheap hits.**  The store is read once, into an in-memory index,
   when the cache is opened, so a hit runs no SQL; PASS/TIMEOUT/UNKNOWN
   hits skip compilation and the engines entirely, and only FAIL hits
   pay one compile for trace replay.  A miss reads its row once more,
   so a verdict another process stored since is still found.

The store is one WAL-mode SQLite file at ``path`` (``-wal``/``-shm``
companions while open): a ``meta`` table pins the two versions, and one
``verdicts`` row per fingerprint holds the entry and its provenance
columns (module, category, engine, status, cone, ``stored_at``).
Every :meth:`ResultCache.store` commits its own row — a killed campaign
loses at most the verdict in flight — as an upsert on ``stored_at``, so
campaigns and the service daemon sharing one path keep each other's
verdicts, the newest per fingerprint winning.
An entry found unsafe is deleted only if the row is no newer than the
copy this cache read, so a rival's fresh re-check survives.  The first
store creates the file (``campaign report`` writes nothing), and
``sqlite3`` is imported only when a file is opened.  The connection
belongs to the opening process: forked fleet workers never touch it.
The store has no size bound: it keeps every verdict it is given, one
row per fingerprint (617 for the full chip's 2047 assertions: a renamed
copy of a check shares its fingerprint), and a hit writes nothing.

The entry codec (:func:`~repro.orchestrate.job.encode_result` /
:func:`~repro.orchestrate.job.decode_result`, re-exported here) is
shared with the checkpoint journal and the executors' wire format, with
the same FAIL-must-replay rule.  JSON caches (the format before SQLite)
open as empty; :meth:`ResultCache.import_cache` migrates them.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Optional, Tuple

from .. import __version__
from ..formal.engine import CheckResult, FAIL, PASS
from .job import CheckJob, decode_result, encode_result  # noqa: F401

#: the ``meta`` rows a readable store carries (schema v4 dropped v3's
#: ``used_at`` recency column; v5 keys verdicts by name-free
#: fingerprints; older stores open as empty)
_META = {"schema": "5", "repro_version": __version__}

#: provenance columns of a ``verdicts`` row, copied from the entry
_PROVENANCE = ("module", "category", "engine", "status", "cone")

#: one row, if no other version has re-pinned the store since it was read
_SELECT = (
    "SELECT entry, stored_at FROM verdicts WHERE fingerprint = :fingerprint"
    " AND (SELECT value FROM meta WHERE key = 'schema') = :schema AND"
    " (SELECT value FROM meta WHERE key = 'repro_version') = :repro_version"
)

#: SQLITE_CORRUPT, SQLITE_NOTADB: the only primary codes that reset a store
_CORRUPT = (11, 26)

_UPSERT = (
    "INSERT INTO verdicts (fingerprint, entry, module, category, engine,"
    " status, cone, stored_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
    " ON CONFLICT (fingerprint) DO UPDATE SET entry = excluded.entry,"
    " module = excluded.module, category = excluded.category,"
    " engine = excluded.engine, status = excluded.status,"
    " cone = excluded.cone, stored_at = excluded.stored_at"
    " WHERE excluded.stored_at > verdicts.stored_at"
)


class ResultCache:
    """On-disk SQLite store of check results keyed by content fingerprint.

    Besides the orchestrator's interface it serves the service daemon:
    provenance rows (:meth:`get`), metering counters (:meth:`stats`)
    and the migration of JSON caches (:meth:`import_cache`).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._conn = None
        #: serialises the connection's users (see _connect)
        self._lock = threading.RLock()
        #: metering counters served by the service's /metrics
        self._counters = dict.fromkeys(
            ("hits", "misses", "stored", "unsafe_evicted", "imported",
             "resets"), 0)
        #: fingerprint -> entry
        self._entries: Dict[str, dict] = self._load()

    # ------------------------------------------------------------------
    def _connect(self):
        import sqlite3
        # the service daemon opens the store on its main thread and
        # uses it from its queue worker and HTTP threads (under _lock)
        conn = sqlite3.connect(self.path, isolation_level=None,
                               check_same_thread=False)
        # every store commits on its own; NORMAL keeps that durable
        # against a killed process without an fsync per verdict
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _load(self) -> Dict[str, dict]:
        """Read the store into the index; a missing or unreadable file,
        or one from another schema or package version, reads as empty
        (the first store then replaces it)."""
        if not os.path.exists(self.path):
            return {}
        import sqlite3
        conn = None
        try:
            conn = self._connect()
            if dict(conn.execute("SELECT key, value FROM meta")) \
                    != _META:
                raise sqlite3.DatabaseError("another version's store")
            entries = {}
            for fingerprint, payload, stored_at in conn.execute(
                    "SELECT fingerprint, entry, stored_at FROM verdicts"):
                entries[fingerprint] = _entry(payload, stored_at)
        except sqlite3.Error:
            if conn is not None:
                conn.close()
            return {}
        self._conn = conn
        return entries

    def _create(self):
        """Open the store for writing: create it, wipe one written by
        another version, and reject one that fails its integrity check
        (this cache could not read it, and no rival has replaced it)."""
        import sqlite3
        if not os.path.exists(self.path):
            # build the file aside and link it into place: creation is
            # atomic, and no two processes race to switch one shared
            # file into WAL mode (the loser fails as "locked")
            os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                        exist_ok=True)
            staged = f"{self.path}.{os.getpid()}.new"
            conn = sqlite3.connect(staged)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.close()
            try:
                os.link(staged, self.path)
            except FileExistsError:
                pass  # a rival created it first
            finally:
                os.remove(staged)
        conn = self._connect()
        try:
            if conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
                conn.execute("PRAGMA journal_mode=WAL")  # not our file
            conn.execute("BEGIN IMMEDIATE")
            conn.execute("CREATE TABLE IF NOT EXISTS meta ("
                         " key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            meta = dict(conn.execute("SELECT key, value FROM meta"))
            if meta != _META:
                self._counters["resets"] += bool(meta)
                conn.execute("DROP TABLE IF EXISTS verdicts")
                conn.execute("DELETE FROM meta")
                conn.executemany("INSERT INTO meta VALUES (?, ?)",
                                 sorted(_META.items()))
            elif conn.execute("PRAGMA quick_check").fetchone()[0] != "ok":
                error = sqlite3.DatabaseError("store failed quick_check")
                error.sqlite_errorcode = _CORRUPT[0]
                raise error
            conn.execute(
                "CREATE TABLE IF NOT EXISTS verdicts ("
                " fingerprint TEXT PRIMARY KEY, entry TEXT NOT NULL,"
                " module TEXT, category TEXT, engine TEXT, status TEXT,"
                " cone TEXT, stored_at REAL NOT NULL)")
            conn.execute("COMMIT")
        except BaseException:
            conn.close()
            raise
        return conn

    def _execute(self, sql: str, params: Tuple = ()):
        """Run one write, opening the store first if need be; a store
        SQLite finds corrupt is replaced by an empty one (degrade to
        miss).  Any other error (locked, closed, a bad parameter) says
        nothing about the store's content and is raised."""
        import sqlite3
        with self._lock:
            try:
                if self._conn is None:
                    self._conn = self._create()
                return self._conn.execute(sql, params)
            except sqlite3.DatabaseError as error:
                if getattr(error, "sqlite_errorcode", 0) & 255 not in _CORRUPT:
                    raise
                self.close()
                remove_store(self.path)
                self._counters["resets"] += 1
                self._conn = self._create()
                return self._conn.execute(sql, params)

    def _read(self, fingerprint: str) -> Optional[dict]:
        """The store's row for ``fingerprint`` (not in the index: stored
        by another process since this cache read the store), or None."""
        with self._lock:
            if self._conn is None:
                return None
            import sqlite3
            try:
                row = self._conn.execute(
                    _SELECT, dict(_META, fingerprint=fingerprint)).fetchone()
            except sqlite3.Error:
                return None
        return None if row is None else _entry(*row)

    def flush(self) -> None:
        """Fold the WAL into the main file so the store is one
        self-contained file between campaigns.  The verdicts are
        already durable: every store committed its row."""
        with self._lock:
            if self._conn is None:
                return
            self._execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        """Release the connection (a later write opens it again)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def _upsert(self, fingerprint: str, entry: dict) -> bool:
        """Write ``entry`` unless the store holds a newer verdict for
        ``fingerprint``; returns whether the row was written."""
        return self._execute(_UPSERT, (
            fingerprint, json.dumps(entry, default=repr),
            *(entry.get(column) for column in _PROVENANCE),
            entry["stored_at"],
        )).rowcount > 0

    # ------------------------------------------------------------------
    def store(self, fingerprint: str, result: CheckResult,
              job: Optional[CheckJob] = None) -> None:
        """Record one result (trace frames included for FAIL), committed
        at once.

        Entries are stamped with a wall-clock ``stored_at`` (what the
        upsert arbitrates concurrent writers by) and, when the
        producing ``job`` is given, with its module name and property
        category — the key the adaptive portfolio policy's engine
        history (:meth:`engine_history`) is aggregated under.
        """
        entry = encode_result(result)
        entry["stored_at"] = time.time()
        if job is not None:
            entry["module"] = job.module.name
            entry["category"] = job.category
            if job.cone_digest:
                # provenance: which cone this verdict was keyed under
                # (cone-fingerprinted entries are shared across
                # cone-equal modules — see repro.formal.coi)
                entry["cone"] = job.cone_digest
        self._upsert(fingerprint, entry)
        self._entries[fingerprint] = entry
        self._counters["stored"] += 1

    # ------------------------------------------------------------------
    def engine_history(self) -> Dict[Tuple[Optional[str], str], str]:
        """Historical winning engines, from the cached verdicts.

        Returns ``{(module name, category): method}`` — the portfolio
        stage (or single engine) that most recently produced a
        definitive PASS/FAIL for that module/category — plus
        category-wide fallbacks under ``(None, category)``.  Entries
        are scanned in ``stored_at`` order, so the newest verdict wins;
        this is what :class:`~repro.orchestrate.policy.AdaptivePortfolio`
        seeds its attempt ordering from.  An entry counts for the one
        module that produced it, not for the renamed copies (or
        cone-equal modules) that share its fingerprint.
        """
        history: Dict[Tuple[Optional[str], str], str] = {}
        for entry in sorted(self._entries.values(),
                            key=lambda entry: entry["stored_at"]):
            method = _winning_method(entry)
            if method is None:
                continue
            category = entry.get("category")
            if not isinstance(category, str):
                continue
            history[(None, category)] = method
            module = entry.get("module")
            if isinstance(module, str):
                history[(module, category)] = method
        return history

    # ------------------------------------------------------------------
    def lookup(self, fingerprint: str, job: CheckJob,
               store=None) -> Optional[CheckResult]:
        """Return the cached :class:`CheckResult` for ``fingerprint``,
        or ``None`` (a miss) when absent or not provably sound.

        ``store`` (a :class:`~repro.formal.problems.CompiledProblemStore`)
        amortises the FAIL-replay compiles across lookups.  A miss in
        the index reads the store once, for a verdict another process
        stored since.
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            # one point read, for a rival's verdict stored since
            entry = self._read(fingerprint)
            if entry is None:
                self._counters["misses"] += 1
                return None
            self._entries[fingerprint] = entry
        try:
            result = decode_result(entry, job, store)
        except Exception:
            # unknown status, failed replay... — all degrade to a miss
            # and an eviction, never a wrong verdict; a rival's newer
            # row is a fresh verdict, not this one, and stays
            del self._entries[fingerprint]
            self._execute(
                "DELETE FROM verdicts WHERE fingerprint = ?"
                " AND stored_at <= ?", (fingerprint, entry["stored_at"]))
            self._counters["unsafe_evicted"] += 1
            self._counters["misses"] += 1
            return None
        self._counters["hits"] += 1
        return result

    # -- service extensions --------------------------------------------
    def get(self, fingerprint: str) -> Optional[dict]:
        """The raw stored verdict with provenance, as served by
        ``GET /v1/verdicts/<fingerprint>`` — no replay validation (the
        payload is data about the store, not a trusted verdict; a
        campaign consuming it goes through :meth:`lookup`)."""
        entry = self._entries.get(fingerprint) or self._read(fingerprint)
        if entry is None:
            return None
        row = {column: entry.get(column) for column in _PROVENANCE}
        row.update(fingerprint=fingerprint, stored_at=entry["stored_at"],
                   entry=entry)
        return row

    def import_cache(self, path: str) -> int:
        """Migrate a JSON cache file (``{"version": 1, "repro_version",
        "entries": {fingerprint: entry}}``) into this store, newest
        ``stored_at`` winning per fingerprint.  Returns how many entries
        were imported; an unreadable file, or one from another format or
        package version, imports nothing, and so does an entry whose
        provenance fields are not strings."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError):
            return 0
        if not isinstance(raw, dict) \
                or raw.get("version") != 1 \
                or raw.get("repro_version") != __version__ \
                or not isinstance(raw.get("entries"), dict):
            return 0
        imported = 0
        for fingerprint, entry in raw["entries"].items():
            if not isinstance(entry, dict) or not all(
                    isinstance(entry.get(column), (str, type(None)))
                    for column in _PROVENANCE):
                continue
            entry = dict(entry, stored_at=_stored_at(entry))
            if self._upsert(fingerprint, entry):
                self._entries[fingerprint] = entry
                imported += 1
        self._counters["imported"] += imported
        return imported

    def stats(self) -> Dict[str, int]:
        """Metering counters plus the live entry count, for /metrics."""
        return dict(self._counters, entries=len(self))


def remove_store(path: str) -> None:
    """Delete a store file with its ``-wal``/``-shm`` companions (a
    WAL left beside a new file at the same path would be read into
    it)."""
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


def _entry(payload, stored_at: float) -> dict:
    """A row's entry stamped with its ``stored_at``; an undecodable or
    non-object entry is the bare stamp, which :meth:`lookup` evicts."""
    try:
        entry = json.loads(payload)
    except (TypeError, ValueError):
        entry = None
    entry = entry if isinstance(entry, dict) else {}
    entry["stored_at"] = stored_at
    return entry


def _stored_at(entry: dict) -> float:
    """A JSON entry's write timestamp; entries from before the stamp
    was introduced (or mangled ones: NaN, which SQLite stores as NULL,
    infinities, non-numbers) count as oldest."""
    value = entry.get("stored_at")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return float(value) if number and abs(value) < 1e300 else 0.0


def _winning_method(entry: dict) -> Optional[str]:
    """The portfolio stage (or engine) that settled a cached entry,
    or ``None`` for non-definitive / unintelligible entries."""
    if entry.get("status") not in (PASS, FAIL):
        return None
    stats = entry.get("stats")
    attempts = stats.get("portfolio") if isinstance(stats, dict) else None
    if isinstance(attempts, list) and attempts:
        last = attempts[-1]
        if isinstance(last, dict) and isinstance(last.get("engine"), str):
            return last["engine"]
        return None
    engine = entry.get("engine")
    if not isinstance(engine, str) or not engine:
        return None
    # "portfolio:auto:kind" -> "auto:kind" -> stage method "auto"
    if engine.startswith("portfolio:"):
        engine = engine[len("portfolio:"):]
    return engine.split(":", 1)[0] or None
