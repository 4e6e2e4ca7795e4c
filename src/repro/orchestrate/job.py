"""Check jobs — the unit of work of the campaign orchestrator.

One :class:`CheckJob` is a single property check: a leaf module, one of
its stereotype vunits, one asserted property, and the engine portfolio
to try.  Jobs are:

- **self-contained** — the job holds everything needed to run the
  check, so an executor runs it in-process or in a forked worker that
  inherited the plan;
- **content-addressed** — :func:`job_fingerprint` hashes the module's
  emitted Verilog and the vunit's PSL text, both without their header
  names (:func:`identity_digest`), the assertion name, and the engine
  portfolio, so an unchanged check always maps to the same key (the
  result cache's index, see :mod:`repro.orchestrate.cache`), and so
  does a renamed copy of it: the campaign checks such a copy once and
  reuses the verdict.  The exact per-component text digests also ride
  on the job (``module_digest``, ``vunit_digest``) and key the shared
  warm state: the :class:`~repro.formal.problems.CompiledProblemStore`
  every compile path runs through, and the SAT sessions;
- **engine-agnostic** — the portfolio is an ordered tuple of
  :class:`EngineConfig` stages tried until one returns a definitive
  PASS/FAIL verdict, generalising the old hardcoded ``auto`` fallback.

The module also owns the job layer's serialization codec:
:func:`encode_result` / :func:`decode_result` turn one
:class:`~repro.formal.engine.CheckResult` into a JSON-able entry and
back.  The result cache, the checkpoint journal and the fleet's result
frames all speak it, and every decode enforces the FAIL-must-replay
rule.  A FAIL's counterexample travels as its canonical input frames
only (what report consumers render), not as the compiled transition
system it replays on; the receiving side recompiles the job through
its :class:`CompiledProblemStore` and revalidates the trace by replay.
A :class:`CheckJob` itself never crosses a process boundary: fleet
workers are forked holding the plan's jobs, so a lease names each job
by index and fingerprint (:mod:`repro.orchestrate.fleet`).  Jobs are
frozen, so the plan a forked worker holds cannot drift from the
coordinator's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Optional, Tuple

from ..formal.budget import ResourceBudget
from ..formal.engine import (
    CheckResult, EngineOptions, FAIL, PASS, TIMEOUT, UNKNOWN, ModelChecker,
)
from ..formal.problems import CompiledProblemStore, content_digest
from ..formal.satspace import SatWorkspace
from ..formal.trace import Trace
from ..psl.ast import VUnit
from ..psl.compile import asserted_property, compile_assertion, problem_name
from ..rtl.module import Module
from ..rtl.verilog import emit_module


@dataclass(frozen=True)
class EngineConfig:
    """One engine invocation: method, tuning knobs, resource limits.

    ``sat_conflicts`` / ``bdd_nodes`` are the deterministic budget
    limits (``None`` = unlimited); a fresh :class:`ResourceBudget` is
    built per check so retries and portfolio stages never share spent
    counters.
    """

    method: str = "auto"
    max_bound: int = 60
    max_k: int = 40
    unique_states: bool = True
    num_window_vars: int = 2
    sat_conflicts: Optional[int] = None
    bdd_nodes: Optional[int] = None

    def make_budget(self) -> ResourceBudget:
        """A fresh budget carrying this config's limits — built once
        per check so stages and retries never share spent counters."""
        return ResourceBudget(sat_conflicts=self.sat_conflicts,
                              bdd_nodes=self.bdd_nodes)

    #: :class:`EngineOptions` fields that are execution-time wiring,
    #: not plan-level tuning knobs: they have no EngineConfig
    #: counterpart, are injected by the job runner, and stay out of
    #: fingerprints.  Every *other* option field must exist on the
    #: config — ``options()`` raises AttributeError otherwise, so a
    #: knob added to EngineOptions without its config counterpart
    #: fails loudly instead of silently defaulting.
    RUNTIME_OPTION_FIELDS = frozenset({"sat_workspace"})

    def options(self) -> EngineOptions:
        """The :class:`EngineOptions` slice of this config — derived
        from the option dataclass's own fields, so a knob added there
        (and here) flows through dispatch and fingerprints without
        further bookkeeping.  :data:`RUNTIME_OPTION_FIELDS` keep their
        defaults — the job runner injects those at execution time."""
        return EngineOptions(**{
            f.name: getattr(self, f.name) for f in fields(EngineOptions)
            if f.name not in self.RUNTIME_OPTION_FIELDS
        })

    def describe(self) -> Dict[str, object]:
        """Stable, JSON-able description used in fingerprints.

        Runtime wiring (:data:`RUNTIME_OPTION_FIELDS`) is excluded: a
        shared solver session changes the cost of a check, never a
        PASS/FAIL verdict, so it must not perturb content
        fingerprints — warmed and cold runs replay each other's cached
        results.
        """
        options = asdict(self.options())
        for name in self.RUNTIME_OPTION_FIELDS:
            options.pop(name, None)
        return {
            "method": self.method,
            "sat_conflicts": self.sat_conflicts,
            "bdd_nodes": self.bdd_nodes,
            **options,
        }


#: The default portfolio sequence: k-induction (fast on the inductive
#: parity invariants the methodology produces), then full BDD combined
#: traversal, then partitioned-ROBDD reachability as the last resort.
DEFAULT_PORTFOLIO_METHODS = ("kind", "bdd-combined", "pobdd")


def portfolio(*methods: str, **common) -> Tuple[EngineConfig, ...]:
    """Build an engine portfolio: one :class:`EngineConfig` per method,
    sharing the keyword tuning knobs (budget limits, bounds...).

    With no methods given, builds :data:`DEFAULT_PORTFOLIO_METHODS`.
    """
    if not methods:
        methods = DEFAULT_PORTFOLIO_METHODS
    return tuple(EngineConfig(method=method, **common) for method in methods)


@dataclass(frozen=True)
class CheckJob:
    """One property check, planned but not yet executed (frozen: the
    planner writes a job once, and nothing after it does).

    ``index`` is the job's position in the campaign plan; executors must
    deliver results in index order so reports are deterministic
    regardless of execution strategy.

    ``module_digest`` is the SHA-256 of the module's emitted Verilog,
    its name included (``fingerprint`` hashes the text without the
    names, see :func:`identity_digest`).  Jobs sharing a digest
    compile against the same elaborated design in a
    :class:`~repro.formal.problems.CompiledProblemStore`, which is what
    makes them profitable to run on one worker (the module-affinity
    scheduling unit).  ``vunit_digest`` is the matching SHA-256 of the
    vunit's PSL source; together the two digests key the job's shared
    SAT sessions (:mod:`repro.formal.satspace`).

    ``cone_digest`` is the assertion's cone-of-influence content hash
    (:mod:`repro.formal.coi`), stamped by the planner when the ``[coi]``
    section asks for cone fingerprints (empty otherwise).  It then
    replaces the module text as the fingerprint's scope component,
    so two modules that agree on this assertion's cone share the job's
    cache key.
    """

    index: int
    block: str
    module: Module
    vunit: VUnit
    assert_name: str
    category: str
    engines: Tuple[EngineConfig, ...]
    fingerprint: str
    module_digest: str = ""
    vunit_digest: str = ""
    cone_digest: str = ""

    @property
    def qualified_name(self) -> str:
        """The check's result name (:func:`~repro.psl.compile.problem_name`)."""
        return problem_name(self.vunit, self.assert_name)


@dataclass
class JobResult:
    """Outcome of one executed :class:`CheckJob`: the plan index it
    answers and the :class:`CheckResult`.  Everything else about the
    check (block, names, category) is the plan job's, looked up by
    index; ``result.name`` is the job's ``qualified_name``."""

    index: int
    result: CheckResult


def engines_digest(engines: Tuple[EngineConfig, ...]) -> str:
    """Stable digest text of an engine portfolio."""
    return json.dumps([config.describe() for config in engines],
                      sort_keys=True)


#: SHA-256 of one fingerprint component (module RTL, vunit PSL) — the
#: store's content digest, aliased: planner-stamped job digests and
#: store-derived fallback digests MUST come from one function, or a
#: divergence would turn every store lookup into a permanent miss
text_digest = content_digest


def identity_digest(text: str) -> str:
    """SHA-256 of an emitted module (:func:`emit_module`) or vunit
    (``VUnit.emit``) after its first line.

    Both emitters put the names, and only them, on the first line:
    ``module NAME (`` and ``vunit NAME (MODULE) {``, the latter with
    the vunit's optional comment.  The names say which check it is, not
    what it checks, so two jobs whose texts agree past that line
    compile the same transition system, AIG numbering included: they
    share one fingerprint, and a campaign checks them once.  Names of
    instantiated submodules stay in the text.
    """
    return text_digest(text.partition("\n")[2])


def fingerprint_digests(scope_digest: str, vunit_digest: str,
                        assert_name: str, engines_text: str) -> str:
    """Combine pre-hashed fingerprint components into the content key.

    The planner digests each module's Verilog (or, in cone mode, each
    assertion's cone) and each vunit's PSL once and reuses the digests
    across that module's assertions, so per-run fingerprint cost stays
    linear in design size rather than assertions × design size.
    """
    payload = "\n\x00\n".join([
        scope_digest, vunit_digest, assert_name, engines_text,
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def job_fingerprint(module: Module, vunit: VUnit, assert_name: str,
                    engines: Tuple[EngineConfig, ...]) -> str:
    """Module-mode content fingerprint of one check: module RTL
    (emitted Verilog) and vunit PSL source, both without their header
    names, assertion name, and engine portfolio."""
    return fingerprint_digests(identity_digest(emit_module(module)),
                               identity_digest(vunit.emit()),
                               assert_name, engines_digest(engines))


def compile_job(job: CheckJob,
                store: Optional[CompiledProblemStore] = None):
    """Compile the job's assertion into a transition system, through
    the content-addressed ``store`` when one is supplied.

    The store keys the elaborated design by the module's RTL digest —
    so a module's many jobs share one elaboration, and two distinct
    modules that happen to share a *name* (a golden and a patched
    variant planned together) can never be served each other's
    designs: equal digests mean byte-identical RTL by construction.
    Without a store the job compiles cold.
    """
    if store is None:
        return compile_assertion(job.module, job.vunit, job.assert_name)
    return store.problem(job.module, job.vunit, job.assert_name,
                         module_digest=job.module_digest or None)


def run_check_job(job: CheckJob,
                  store: Optional[CompiledProblemStore] = None,
                  sat_workspace: Optional[SatWorkspace] = None
                  ) -> JobResult:
    """Execute one check job: try each portfolio stage in order until
    one returns a definitive PASS/FAIL verdict.

    The job's solo problem is compiled (through ``store`` when given —
    see :func:`compile_job`) at most once, by the first stage that
    reads it: a cold ``kind`` or ``bmc``, a BDD stage, or the cold
    re-derivation of a shared-session FAIL.  Every later stage reuses
    it, and a job settled on the shared SAT sessions never compiles it.
    A property the job's vunit does not assert raises
    :class:`~repro.psl.ast.PslError` before any stage runs.

    Every stage attempt is recorded in ``result.stats['portfolio']``
    and ``result.seconds`` totals all attempted stages — uniformly,
    whatever the portfolio size, so single-stage runs keep the same
    attempt log multi-stage runs do.  With a multi-stage portfolio the
    winning stage's result is reported (engine label prefixed
    ``portfolio:`` — the label, unlike the attempt log, stays
    multi-stage-only because report canonicalization keys off it); if
    no stage is definitive, the last stage's result (UNKNOWN/TIMEOUT)
    stands.

    ``sat_workspace`` opts the job's induction stages into shared
    solver sessions: the job binds its assertion into the workspace
    (:class:`~repro.formal.satspace.SatBinding`), sessions are
    materialised lazily only when an induction stage actually runs (a
    BDD-only portfolio compiles no cluster), and the binding is retired
    — the assertion's activation literal permanently deactivated — when
    the job finishes, whatever the outcome.  Verdicts, depths, and
    counterexample bytes are workspace-invariant; a binding *conflict*
    budget can trip warm where it wouldn't cold (and vice versa) —
    campaign defaults keep it non-binding.
    """
    if not job.engines:
        raise ValueError(f"job {job.qualified_name!r} has no engines")
    asserted_property(job.vunit, job.assert_name)
    checker = ModelChecker(lambda: compile_job(job, store))
    sat_binding = sat_workspace.bind(
        job.module, job.vunit, job.assert_name,
        module_digest=job.module_digest, vunit_digest=job.vunit_digest,
        store=store,
    ) if sat_workspace is not None else None
    attempts = []
    try:
        for config in job.engines:
            options = config.options()
            if sat_binding is not None:
                options = replace(options, sat_workspace=sat_binding)
            checker.budget = config.make_budget()
            stage = checker.check(method=config.method, options=options)
            attempt = {"engine": config.method, "status": stage.status,
                       "seconds": stage.seconds}
            sat_stats = stage.stats.get("sat")
            if isinstance(sat_stats, dict):
                attempt["conflicts"] = sat_stats.get("conflicts", 0)
                attempt["propagations"] = sat_stats.get("propagations", 0)
            attempts.append(attempt)
            result = stage
            if stage.status in (PASS, FAIL):
                break
    finally:
        if sat_binding is not None:
            sat_binding.retire()
    # the attempt log and the all-stages cost are recorded uniformly —
    # a single-stage portfolio keeps the same provenance a ladder does
    result.stats["portfolio"] = attempts
    result.seconds = sum(attempt["seconds"] for attempt in attempts)
    if len(job.engines) > 1:
        result.engine = f"portfolio:{result.engine}"
    return JobResult(index=job.index, result=result)


# ----------------------------------------------------------------------
# serialization codecs
# ----------------------------------------------------------------------

_STATUSES = (PASS, FAIL, TIMEOUT, UNKNOWN)


def encode_result(result: CheckResult) -> dict:
    """Serialize one :class:`CheckResult` to a JSON-able entry (trace
    input frames included for FAIL, so the counterexample can be
    re-validated on the way back in).

    This is the one serialized-result dialect in the package: the
    result cache, the checkpoint journal, and the fleet's result frames
    all speak it, and :func:`decode_result` enforces the same
    FAIL-must-replay rule for all three.
    """
    trace_frames = None
    if result.trace is not None:
        trace_frames = result.trace.canonical_frames()
    return {
        "name": result.name,
        "status": result.status,
        "engine": result.engine,
        "depth": result.depth,
        "seconds": result.seconds,
        "stats": _jsonable(result.stats),
        "trace": trace_frames,
    }


def decode_result(entry: dict, job: CheckJob,
                  store: Optional[CompiledProblemStore] = None
                  ) -> CheckResult:
    """Rebuild a :class:`CheckResult` from a serialized entry.

    Raises on anything suspicious — unknown status, FAIL without a
    trace, a counterexample that no longer replays against the freshly
    compiled transition system — so callers degrade to a re-check
    instead of ever replaying a wrong verdict.  ``store`` amortises the
    FAIL-replay compiles: consecutive decodes of one module's entries
    share its elaborated design.

    The result is named by ``job`` (its ``qualified_name``, the
    :func:`~repro.psl.compile.problem_name` rule), not by the entry:
    fingerprints leave module and vunit names out, so the entry may
    come from a renamed copy of the check, and a FAIL replays on
    ``job``'s own compile.
    """
    status = entry["status"]
    if status not in _STATUSES:
        raise ValueError(f"unknown cached status {status!r}")
    trace = None
    if status == FAIL:
        frames = entry["trace"]
        if not isinstance(frames, list) or not frames:
            raise ValueError("cached FAIL without a trace")
        ts = compile_job(job, store)
        trace = Trace(ts, [
            {int(lit): int(bit) & 1 for lit, bit in frame}
            for frame in frames
        ])
        if not trace.replay():
            raise ValueError("cached counterexample failed replay")
    stats = entry.get("stats")
    stats = dict(stats) if isinstance(stats, dict) else {}
    depth = entry.get("depth")
    return CheckResult(
        name=job.qualified_name,
        status=status,
        engine=str(entry.get("engine", "?")),
        depth=int(depth) if depth is not None else None,
        trace=trace,
        stats=stats,
        seconds=float(entry.get("seconds") or 0.0),
    )


def _jsonable(value):
    """Best-effort conversion of engine stats to JSON-safe values."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
