"""Declarative campaign configuration — one serializable object.

A :class:`CampaignConfig` captures *everything* that parameterises a
formal campaign — engine portfolio, executor, result cache,
checkpoint journal, warm-state switches, resource budgets, scope — as
plain frozen data.  That buys the methodology its missing property: a
campaign's full configuration is

- **serializable** — ``to_dict()`` / ``from_dict()`` round-trip through
  plain JSON-able dicts, and ``to_toml()`` / ``CampaignConfig.load()``
  through a TOML file, so one ``campaign.toml`` reproduces the whole
  run (``python -m repro campaign run --config campaign.toml``);
- **diffable** — two configs differ exactly where their TOML differs;
- **fingerprinted** — :meth:`digest` hashes the canonical dict, is
  stable under key order, and is stamped into
  ``CampaignReport.stats["config_digest"]`` so every report names the
  configuration that produced it.

Compact string specs stand in for object graphs:

- ``executor = "fleet:4"`` — ``serial`` or ``fleet[:N]`` (the
  parallel pool of :mod:`repro.orchestrate.fleet`: forked worker
  processes fed by one coordinator thread, which leases one job at a
  time, in plan order, to whichever worker is idle); ``N`` is the
  worker count, defaulting to the machine's CPU count;
- ``engines = "portfolio:kind,bdd-combined,pobdd"`` — a single engine
  name runs one stage; ``portfolio:`` prefixes a comma-separated stage
  ladder; bare ``portfolio`` is the default ladder
  (:data:`~repro.orchestrate.job.DEFAULT_PORTFOLIO_METHODS`).

Malformed specs raise :class:`ConfigError` naming the offending value
and the accepted grammar.  ``CampaignOrchestrator`` and the
``FormalCampaign`` façade both build their components from a config
(``CampaignOrchestrator(blocks, config=...)``); the legacy per-component
kwargs are still accepted as overrides and map onto the config
defaults (see :mod:`repro.orchestrate.orchestrator`).

The default config **is** the default campaign: the classic budgets,
serial executor, no cache, no checkpoint — with one deliberate change
of default: ``engines = "portfolio:kind,bdd-combined"``.  Campaigns
run an explicit two-stage portfolio instead of the single ``auto``
engine.  The ladder is algorithmically identical to ``auto``'s
internal induction-then-BDD fallback, but at the portfolio layer it
gains the attempt log and portfolio-invariant report canonicalization.
Every job tries its stages in the order the spec lists them: to try a
stage first, list it first.  The engine spec participates in job
fingerprints, so the flip invalidates result caches written under the
old default — ``engines = "auto"`` is the one-line opt-out (see
``docs/configuration.md``).

``[sat] workspace`` switches the shared incremental SAT workspace
(:class:`~repro.formal.satspace.SatWorkspace`) on or off.  On by
default: verdicts, depths, and counterexample bytes are
sharing-invariant (binding ``sat_conflicts`` budgets are the
documented exception), and warm sessions are measurably cheaper on
the default campaign.

``[compile] store`` switches the content-addressed
:class:`~repro.formal.problems.CompiledProblemStore` every compile
path runs through.  Both switches are runtime wiring: they participate
in the *config* digest (the report names the configuration that
produced it) but never in job fingerprints — warm state changes the
cost of a check, not its verdict, so warmed and cold runs replay each
other's cached results.  Their capacities are class constants of the
layers they bound (``SatWorkspace.MAX_SESSIONS`` / ``CLUSTER_LIMIT``,
``CompiledProblemStore.MAX_DESIGNS``), not config knobs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from ..formal.engine import registered_engines
from .job import DEFAULT_PORTFOLIO_METHODS, EngineConfig, portfolio


class ConfigError(ValueError):
    """A malformed campaign configuration (bad spec, unknown key,
    wrong type).  Subclasses ``ValueError`` so ad-hoc callers can catch
    broadly; the message always names the offending value."""


#: executor spec kinds
_EXECUTOR_KINDS = ("serial", "fleet")


def parse_executor_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Parse an executor spec into ``(kind, processes)``.

    Grammar: ``serial`` | ``fleet[:N]``.  ``N`` is the fleet's worker
    count and must be a positive integer; ``serial`` takes no
    argument.
    """
    if not isinstance(spec, str):
        raise ConfigError(f"executor spec must be a string, got {spec!r}")
    kind_text, sep, arg = spec.partition(":")
    kind = kind_text.strip()
    if kind not in _EXECUTOR_KINDS:
        raise ConfigError(
            f"unknown executor {kind!r} in spec {spec!r}; "
            f"expected serial or fleet[:N]"
        )
    if not sep:
        return kind, None
    if kind == "serial":
        raise ConfigError(
            f"executor spec {spec!r}: serial takes no worker count"
        )
    try:
        processes = int(arg)
    except ValueError:
        processes = 0
    if processes < 1:
        raise ConfigError(
            f"executor spec {spec!r}: worker count must be a positive "
            f"integer, got {arg!r}"
        )
    return kind, processes


def parse_engines_spec(spec: str) -> Tuple[str, ...]:
    """Parse an engines spec into the ordered stage-method tuple.

    Grammar: ``<engine>`` (single stage) | ``portfolio`` (the default
    ladder) | ``portfolio:m1,m2,...`` (explicit ladder).  Every method
    must be a registered engine; duplicates are rejected.
    """
    if not isinstance(spec, str):
        raise ConfigError(f"engines spec must be a string, got {spec!r}")
    text = spec.strip()
    if text == "portfolio":
        return DEFAULT_PORTFOLIO_METHODS
    if text.startswith("portfolio:"):
        methods = tuple(
            method.strip()
            for method in text[len("portfolio:"):].split(",")
            if method.strip()
        )
        if not methods:
            raise ConfigError(
                f"engines spec {spec!r}: portfolio needs at least one "
                f"stage, e.g. portfolio:kind,bdd-combined"
            )
    else:
        methods = (text,)
    known = registered_engines()
    for method in methods:
        if method not in known:
            raise ConfigError(
                f"engines spec {spec!r}: unknown engine {method!r}; "
                f"registered engines are {known}"
            )
    if len(set(methods)) != len(methods):
        raise ConfigError(
            f"engines spec {spec!r}: duplicate stages"
        )
    return methods


#: (TOML section, key) -> dataclass field, in documentation order.
#: ``to_dict``/``from_dict``/``to_toml`` and the docs drift-checker in
#: ``tools/check_docs.py`` all derive from this one table.
CONFIG_SCHEMA: Dict[str, Dict[str, str]] = {
    "campaign": {
        "blocks": "blocks",
    },
    "engines": {
        "spec": "engines",
        "sat_conflicts": "sat_conflicts",
        "bdd_nodes": "bdd_nodes",
    },
    "execution": {
        "executor": "executor",
    },
    "sat": {
        "workspace": "sat_workspace",
    },
    "compile": {
        "store": "compile_store",
    },
    "coi": {
        "fingerprints": "coi_fingerprints",
    },
    "scenario": {
        "seed": "scenario_seed",
        "blocks": "scenario_blocks",
        "modules_per_block": "scenario_modules_per_block",
        "datapath_width": "scenario_datapath_width",
        "pipeline_depth": "scenario_pipeline_depth",
        "error_report_width": "scenario_error_report_width",
        "classes": "scenario_classes",
        "sites_per_module": "scenario_sites_per_module",
        "triage": "scenario_triage",
        "sim_cycles": "scenario_sim_cycles",
    },
    "service": {
        "host": "service_host",
        "port": "service_port",
        "data_dir": "service_data_dir",
    },
    "cache": {
        "path": "cache_path",
    },
    "checkpoint": {
        "path": "checkpoint_path",
    },
}


@dataclass(frozen=True)
class CampaignConfig:
    """The full, serializable configuration of one formal campaign.

    Every field is plain data with a TOML slot (see
    :data:`CONFIG_SCHEMA` for the section/key layout); ``None`` means
    "absent" (unbounded budget, no cache, full chip...).  Instances are
    frozen — derive variants with :func:`dataclasses.replace`.
    """

    #: chip-block subset to campaign over (``None`` = every block);
    #: consumed by the CLI, carried (and digested) for everyone else
    blocks: Optional[Tuple[str, ...]] = None

    #: engine spec — single engine or ``portfolio:...`` ladder.  The
    #: default portfolio mirrors ``auto``'s internal induction-then-BDD
    #: fallback as explicit stages; ``engines = "auto"`` opts back out
    #: (note: the spec is fingerprinted, so flipping it misses caches
    #: written under the other default)
    engines: str = "portfolio:kind,bdd-combined"
    #: per-stage SAT conflict budget (``None`` = unlimited)
    sat_conflicts: Optional[int] = 200_000
    #: per-stage BDD node budget (``None`` = unlimited)
    bdd_nodes: Optional[int] = 2_000_000

    #: executor spec — ``serial`` | ``fleet[:N]``
    executor: str = "serial"

    #: shared incremental SAT workspaces (per worker): clustered
    #: per-(module, vunit) CNFs with learned-clause retention across
    #: assertions.  Verdict- and byte-invariant (failing traces are
    #: re-derived cold); the exception is a *binding*
    #: ``sat_conflicts`` budget, where retained clauses can shift the
    #: conflict count either way
    sat_workspace: bool = True

    #: content-addressed compiled-problem store (per worker; off = every
    #: check elaborates its design cold)
    compile_store: bool = True

    #: ``[coi]`` — cone-of-influence content addressing
    #: (:mod:`repro.formal.coi`).  Defaults to ``None`` ("absent":
    #: legacy module-digest fingerprints), so configs written before
    #: the section existed keep their digests.  Unlike the
    #: ``[compile]`` knobs, ``fingerprints`` *does* change job
    #: fingerprints — "cone" keys each job by its assertion's cone
    #: digest, so caches written under one mode miss under the other
    #: job fingerprint scope: ``"module"`` (default) or ``"cone"``
    coi_fingerprints: Optional[str] = None

    #: ``[scenario]`` — the chip-family / mutation-sweep knobs consumed
    #: by ``python -m repro scenario sweep`` and
    #: :func:`repro.scenario.sweep.sweep_from_config`.  All default to
    #: ``None`` ("absent": the scenario layer supplies its own
    #: defaults), so configs written before the section existed keep
    #: their digests.  The config layer validates only shape — defect
    #: *class names* are the scenario layer's vocabulary (this module
    #: never imports the chip layer)
    #: family RNG seed
    scenario_seed: Optional[int] = None
    #: generated blocks per family
    scenario_blocks: Optional[int] = None
    #: modules per generated block (one wide module + generic leaves)
    scenario_modules_per_block: Optional[int] = None
    #: datapath bits per wide-module pipeline stage
    scenario_datapath_width: Optional[int] = None
    #: wide-module pipeline depth
    scenario_pipeline_depth: Optional[int] = None
    #: HE report outputs cap for generated generic leaves
    scenario_error_report_width: Optional[int] = None
    #: defect classes to seed (``None`` = all)
    scenario_classes: Optional[Tuple[str, ...]] = None
    #: per-module cap on seeded defect sites (``None`` = every site)
    scenario_sites_per_module: Optional[int] = None
    #: run the sim-then-formal triage mode
    scenario_triage: Optional[bool] = None
    #: random-simulation budget per mutant in triage mode
    scenario_sim_cycles: Optional[int] = None

    #: ``[service]`` — the verification-as-a-service daemon's knobs
    #: (``python -m repro serve``; see :mod:`repro.service` and
    #: ``docs/service.md``).  All default to ``None`` ("absent": the
    #: service layer supplies its own defaults), so configs written
    #: before the section existed keep their digests
    #: daemon bind host (service default: 127.0.0.1)
    service_host: Optional[str] = None
    #: daemon bind port (service default: 8357; 0 = ephemeral)
    service_port: Optional[int] = None
    #: daemon state directory — the default home of its verdict
    #: store (service default: out/service)
    service_data_dir: Optional[str] = None

    #: result-cache path (``None`` = no cache); also the store the
    #: service daemon opens (default: <data_dir>/verdicts.sqlite)
    cache_path: Optional[str] = None

    #: checkpoint-journal path (``None`` = no checkpoint)
    checkpoint_path: Optional[str] = None

    #: the budgets: bounded by default, and lifted by the explicit
    #: string ``"unlimited"`` (TOML has no null), which is also how
    #: ``None`` serializes, or a round-trip would restore the bound
    _BUDGETS = ("sat_conflicts", "bdd_nodes")

    def __post_init__(self) -> None:
        for name in self._BUDGETS:
            if getattr(self, name) == "unlimited":
                object.__setattr__(self, name, None)
        if self.blocks is not None:
            if isinstance(self.blocks, str):
                # tuple("CE") would silently split into ('C', 'E')
                raise ConfigError(
                    f"blocks must be a list of block names, "
                    f"got the bare string {self.blocks!r}"
                )
            object.__setattr__(self, "blocks", tuple(self.blocks))
            for block in self.blocks:
                if not isinstance(block, str):
                    raise ConfigError(
                        f"blocks must be block-name strings, "
                        f"got {block!r}"
                    )
        parse_executor_spec(self.executor)
        parse_engines_spec(self.engines)
        for name in self._BUDGETS:
            # 0 is legal: a budget that trips immediately (every stage
            # TIMEOUTs) — used to exercise exhaustion paths
            value = getattr(self, name)
            if value is not None and (not _is_int(value) or value < 0):
                raise ConfigError(
                    f"{name} must be a non-negative integer or absent, "
                    f"got {value!r}"
                )
        for name in ("compile_store", "sat_workspace"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(
                    f"{name} must be a boolean, "
                    f"got {getattr(self, name)!r}"
                )
        for name in ("cache_path", "checkpoint_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(
                    f"{name} must be a path string or absent, "
                    f"got {value!r}"
                )
        if self.coi_fingerprints is not None \
                and self.coi_fingerprints not in ("module", "cone"):
            raise ConfigError(
                f"coi_fingerprints must be \"module\" or \"cone\" "
                f"(or absent), got {self.coi_fingerprints!r}"
            )
        if self.scenario_seed is not None and (
                not _is_int(self.scenario_seed) or self.scenario_seed < 0):
            raise ConfigError(
                f"scenario_seed must be a non-negative integer or "
                f"absent, got {self.scenario_seed!r}"
            )
        for name in ("scenario_blocks", "scenario_modules_per_block",
                     "scenario_datapath_width", "scenario_pipeline_depth",
                     "scenario_error_report_width",
                     "scenario_sites_per_module", "scenario_sim_cycles"):
            value = getattr(self, name)
            if value is not None and (not _is_int(value) or value < 1):
                raise ConfigError(
                    f"{name} must be a positive integer or absent, "
                    f"got {value!r}"
                )
        if self.scenario_triage is not None \
                and not isinstance(self.scenario_triage, bool):
            raise ConfigError(
                f"scenario_triage must be a boolean or absent, "
                f"got {self.scenario_triage!r}"
            )
        for name in ("service_host", "service_data_dir"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, str)
                                          and value):
                raise ConfigError(
                    f"{name} must be a non-empty string or absent, "
                    f"got {value!r}"
                )
        if self.service_port is not None and (
                not _is_int(self.service_port)
                or not 0 <= self.service_port <= 65535):
            raise ConfigError(
                f"service_port must be an integer in 0..65535 "
                f"(0 = ephemeral) or absent, got {self.service_port!r}"
            )
        if self.scenario_classes is not None:
            if isinstance(self.scenario_classes, str):
                # tuple("p1") would silently split into characters
                raise ConfigError(
                    f"scenario classes must be a list of defect-class "
                    f"names, got the bare string "
                    f"{self.scenario_classes!r}"
                )
            object.__setattr__(self, "scenario_classes",
                               tuple(self.scenario_classes))
            for cls_name in self.scenario_classes:
                if not isinstance(cls_name, str):
                    raise ConfigError(
                        f"scenario classes must be defect-class name "
                        f"strings, got {cls_name!r}"
                    )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """Nested plain-data form (TOML layout): section -> key ->
        value.  ``None`` fields are omitted (TOML has no null) — except
        the budgets, whose *default* is bounded, where ``None`` means
        "explicitly unlimited" and is serialized as the string
        ``"unlimited"`` so the round-trip cannot silently restore the
        bound.  The inverse of :meth:`from_dict` —
        round-tripping is the identity."""
        data: Dict[str, Dict[str, object]] = {}
        for section, keys in CONFIG_SCHEMA.items():
            values = {}
            for key, field_name in keys.items():
                value = getattr(self, field_name)
                if value is None:
                    if field_name not in self._BUDGETS:
                        continue
                    value = "unlimited"
                values[key] = list(value) if isinstance(value, tuple) \
                    else value
            if values:
                data[section] = values
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignConfig":
        """Build a config from :meth:`to_dict`'s (or a parsed TOML
        file's) nested form.  Unknown sections or keys raise
        :class:`ConfigError` — a typo must not silently fall back to a
        default."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"config must be a table of sections, got {data!r}"
            )
        kwargs: Dict[str, object] = {}
        for section, values in data.items():
            keys = CONFIG_SCHEMA.get(section)
            if keys is None:
                raise ConfigError(
                    f"unknown config section [{section}]; expected "
                    f"{tuple(CONFIG_SCHEMA)}"
                )
            if not isinstance(values, dict):
                raise ConfigError(
                    f"config section [{section}] must be a table, "
                    f"got {values!r}"
                )
            for key, value in values.items():
                field_name = keys.get(key)
                if field_name is None:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}]; "
                        f"expected one of {tuple(keys)}"
                    )
                kwargs[field_name] = value
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def digest(self) -> str:
        """SHA-256 of the canonical serialized form — stable under dict
        key order and across to_dict/from_dict round-trips.  Stamped
        into ``CampaignReport.stats["config_digest"]``."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- TOML ----------------------------------------------------------
    def to_toml(self) -> str:
        """Serialize to TOML text (the ``--config`` file format)."""
        lines = []
        for section, values in self.to_dict().items():
            if lines:
                lines.append("")
            lines.append(f"[{section}]")
            for key, value in values.items():
                lines.append(f"{key} = {_toml_value(value)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str) -> "CampaignConfig":
        """Parse TOML text into a config (strict, like
        :meth:`from_dict`)."""
        import tomllib
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"invalid TOML: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "CampaignConfig":
        """Read a config from a TOML file."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") \
                from None
        return cls.from_toml(text)

    # -- component builders --------------------------------------------
    def build_engines(self) -> Tuple[EngineConfig, ...]:
        """The engine portfolio this config describes — one
        :class:`EngineConfig` per stage, sharing the two budgets; the
        engine tuning knobs keep their :class:`EngineConfig` defaults
        (pass ``engines=portfolio(..., max_k=...)`` to the orchestrator
        to change them)."""
        return portfolio(*parse_engines_spec(self.engines),
                         sat_conflicts=self.sat_conflicts,
                         bdd_nodes=self.bdd_nodes)

    def build_executor(self):
        """The executor this config describes, wired with the
        compile-store and SAT-workspace switches."""
        from .executor import SerialExecutor
        from .fleet import FleetExecutor
        kind, processes = parse_executor_spec(self.executor)
        warm = dict(compile_store=self.compile_store,
                    share_sat=self.sat_workspace)
        if kind == "serial":
            return SerialExecutor(**warm)
        return FleetExecutor(workers=processes, **warm)

    def build_cache(self):
        """The :class:`~repro.orchestrate.cache.ResultCache`, or
        ``None`` when no path is configured."""
        if self.cache_path is None:
            return None
        from .cache import ResultCache
        return ResultCache(self.cache_path)

    def build_checkpoint(self):
        """The :class:`~repro.orchestrate.checkpoint.CampaignCheckpoint`,
        or ``None`` when no path is configured."""
        if self.checkpoint_path is None:
            return None
        from .checkpoint import CampaignCheckpoint
        return CampaignCheckpoint(self.checkpoint_path)


def _is_int(value: object) -> bool:
    """True for real integers (bool is excluded — TOML and JSON both
    distinguish them, and ``sat_conflicts = true`` should be an
    error)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _toml_value(value: object) -> str:
    """Render one config value as TOML (strings, booleans, numbers,
    and string lists are the whole value vocabulary)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise ConfigError(f"value {value!r} has no TOML form")


#: every dataclass field must have exactly one CONFIG_SCHEMA slot —
#: fail at import time, not in a user's half-serialized config
_mapped = [f for keys in CONFIG_SCHEMA.values() for f in keys.values()]
assert sorted(_mapped) == sorted(f.name for f in fields(CampaignConfig)), \
    "CONFIG_SCHEMA out of sync with CampaignConfig fields"
assert len(_mapped) == len(set(_mapped)), \
    "CONFIG_SCHEMA maps a field twice"
del _mapped
