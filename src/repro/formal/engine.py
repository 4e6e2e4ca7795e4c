"""Unified model-checking front-end.

One :class:`ModelChecker` wraps every engine in the package behind the
black-box contract the paper's verification engineer relies on: safety
property in, PASS / FAIL(+counterexample) / TIMEOUT out.

Engines are looked up in an extensible registry (:func:`register_engine`
/ :func:`registered_engines`); the built-in entries are:

- ``bmc`` — bounded search only (returns UNKNOWN when no counterexample
  exists within the bound);
- ``kind`` — k-induction (unbounded, SAT-based);
- ``bdd-forward`` / ``bdd-backward`` / ``bdd-combined`` — unbounded
  model checking by reachability (the in-house engine's algorithms);
- ``pobdd`` — partitioned-ROBDD forward reachability;
- ``auto`` — k-induction first (fast on the inductive parity
  invariants the methodology produces), falling back to BDD combined
  traversal for properties induction cannot settle.

An engine is any callable ``(checker, options) -> CheckResult``;
registering one makes it available to every ``method=`` call site,
including the campaign orchestrator's per-job engine portfolios
(:mod:`repro.orchestrate`).

Counterexamples found by BDD engines are concretised by a BMC run at
the discovered depth, then validated by replay on the transition
system before being reported.

BDD-family engines build a fresh manager per check.  The induction
engines (``kind`` and ``auto``'s induction leg) honour
``EngineOptions.sat_workspace``: when a
:class:`~repro.formal.satspace.SatBinding` is attached, they run over
shared incremental solver sessions — retained frame unrollings and
learned clauses, per-assertion activation literals — instead of cold
solvers; failing traces are re-derived cold on the solo-compiled
system so counterexamples stay byte-canonical (see
:mod:`repro.formal.satspace`).  ``bmc`` always runs a cold solver.

A checker built from a compile callable compiles on the first read of
:attr:`ModelChecker.ts`, which a stage settled on shared sessions never
makes: it takes its result's name and size from the binding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from .bmc import bmc
from .budget import BudgetExceeded, ResourceBudget
from .induction import k_induction, k_induction_session
from .pobdd import pobdd_reach
from .reachability import (
    SymbolicModel, backward_reach, combined_reach, forward_reach,
)
from .trace import Trace
from .transition import TransitionSystem

PASS = "pass"
FAIL = "fail"
TIMEOUT = "timeout"
UNKNOWN = "unknown"


@dataclass
class CheckResult:
    """Outcome of one property check."""

    name: str
    status: str
    engine: str
    depth: Optional[int] = None        # cex length or proof bound
    trace: Optional[Trace] = None
    stats: Dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    @property
    def timed_out(self) -> bool:
        return self.status == TIMEOUT

    def __repr__(self) -> str:
        return (f"CheckResult({self.name!r}, {self.status.upper()}, "
                f"engine={self.engine})")


@dataclass(frozen=True)
class EngineOptions:
    """Tuning knobs handed to a registered engine.

    ``sat_workspace`` is *runtime wiring*, not a tuning knob: a
    :class:`~repro.formal.satspace.SatBinding` that ``kind`` (and
    ``auto``'s induction leg) run their queries through, reusing shared
    solver sessions instead of cold solvers.  It is excluded from
    engine-config fingerprints —
    :meth:`repro.orchestrate.job.EngineConfig.describe` drops it — and
    from equality: verdicts and depths are invariant; only solve cost
    changes (two-sidedly under a binding conflict budget, see
    :mod:`repro.formal.satspace`).
    """

    max_bound: int = 60
    max_k: int = 40
    unique_states: bool = True
    num_window_vars: int = 2
    sat_workspace: Optional[object] = field(default=None, compare=False,
                                            repr=False)


EngineFn = Callable[["ModelChecker", EngineOptions], CheckResult]

#: name -> engine callable; insertion order is the public listing order.
_ENGINES: Dict[str, EngineFn] = {}


def register_engine(name: str, fn: Optional[EngineFn] = None):
    """Register ``fn`` as engine ``name`` (usable as a decorator).

    The callable receives the :class:`ModelChecker` (for the transition
    system, shared budget, and the trace helpers) and an
    :class:`EngineOptions`; it must return a :class:`CheckResult`.
    Re-registering a name replaces the previous engine.
    """
    if not isinstance(name, str):
        raise TypeError(
            "register_engine needs an engine name — use "
            "@register_engine(\"name\"), not @register_engine"
        )

    def _register(fn: EngineFn) -> EngineFn:
        _ENGINES[name] = fn
        return fn

    return _register(fn) if fn is not None else _register


def registered_engines() -> Tuple[str, ...]:
    """Names of every registered engine, in registration order."""
    return tuple(_ENGINES)


class _ModelCheckerMeta(type):
    @property
    def METHODS(cls) -> Tuple[str, ...]:
        """Live, read-only view of the engine registry."""
        return registered_engines()


class ModelChecker(metaclass=_ModelCheckerMeta):
    """Checks one safety problem (a :class:`TransitionSystem`).

    ``ts`` may instead be a zero-argument callable compiling the
    problem: it runs once, the first time :attr:`ts` is read, so every
    later check on this checker reuses that one compile.
    """

    def __init__(self,
                 ts: Union[TransitionSystem, Callable[[], TransitionSystem]],
                 budget: Optional[ResourceBudget] = None) -> None:
        self._ts = ts
        self.budget = budget

    @property
    def ts(self) -> TransitionSystem:
        """The problem, compiled on first use when given as a callable."""
        if callable(self._ts):
            self._ts = self._ts()
        return self._ts

    @property
    def METHODS(self) -> Tuple[str, ...]:
        """Live, read-only view of the engine registry (instance
        access; class access goes through the metaclass property)."""
        return registered_engines()

    # ------------------------------------------------------------------
    def check(self, method: str = "auto", max_bound: int = 60,
              max_k: int = 40, unique_states: bool = True,
              num_window_vars: int = 2,
              options: Optional[EngineOptions] = None) -> CheckResult:
        """Check the property with engine ``method``.

        ``options`` overrides the individual tuning kwargs when given
        (the orchestrator passes a ready-made :class:`EngineOptions`;
        the kwargs form remains for direct callers).
        """
        engine = _ENGINES.get(method)
        if engine is None:
            raise ValueError(f"unknown method {method!r}; "
                             f"pick one of {registered_engines()}")
        if options is None:
            options = EngineOptions(max_bound=max_bound, max_k=max_k,
                                    unique_states=unique_states,
                                    num_window_vars=num_window_vars)
        started = time.perf_counter()
        try:
            result = engine(self, options)
        except BudgetExceeded as exhausted:
            result = CheckResult(
                name=self.ts.name,
                status=TIMEOUT,
                engine=method,
                stats={
                    "resource": exhausted.resource,
                    "limit": exhausted.limit,
                    **(self.budget.snapshot() if self.budget else {}),
                },
            )
        result.seconds = time.perf_counter() - started
        if "problem" not in result.stats:
            result.stats["problem"] = self.ts.size_stats()
        return result

    # ------------------------------------------------------------------
    def _rederive_trace(self, depth: int, stats: Dict[str, object]) -> Trace:
        """Canonical counterexample for a warm-session FAIL: replay the
        deterministic cold search on the solo-compiled system at the
        (identical) discovered depth, so trace bytes match a cold run's
        exactly.  Only FAILs pay this extra solve; the caller validates
        the trace by replay, as it does every induction FAIL's."""
        cold = bmc(self.ts, depth, budget=self.budget)
        if not cold.failed:
            raise RuntimeError(
                "shared SAT session found a violation but the cold "
                f"re-derivation did not within {depth} steps"
            )
        stats["concretise"] = cold.stats
        return cold.trace

    def _run_bmc(self, max_bound: int) -> CheckResult:
        result = bmc(self.ts, max_bound, budget=self.budget)
        if result.failed:
            self._validate(result.trace)
            return CheckResult(self.ts.name, FAIL, "bmc",
                               depth=result.bound, trace=result.trace,
                               stats={"sat": result.stats})
        return CheckResult(self.ts.name, UNKNOWN, "bmc",
                           depth=max_bound, stats={"sat": result.stats})

    def _run_induction(self, max_k: int, unique_states: bool,
                       options: Optional[EngineOptions] = None) -> CheckResult:
        binding = options.sat_workspace if options is not None else None
        if binding is None:
            result = k_induction(self.ts, max_k=max_k, budget=self.budget,
                                 unique_states=unique_states)
            name, trace = self.ts.name, result.trace
            stats = {"sat": result.stats}
        else:
            base = binding.lease("bmc-init", self.budget)
            step = binding.lease("step", self.budget)
            result = k_induction_session(base, step, binding.assert_name,
                                         max_k=max_k,
                                         unique_states=unique_states)
            trace = (self._rederive_trace(result.k, result.stats)
                     if result.status == "failed" else None)
            # named and sized without the solo compile, which only a
            # FAIL's re-derivation needs
            name = binding.name
            stats = {"sat": result.stats,
                     "problem": binding.view().size_stats()}
        if result.status == "proved":
            return CheckResult(name, PASS, "kind", depth=result.k,
                               stats=stats)
        if result.status == "failed":
            self._validate(trace)
            return CheckResult(name, FAIL, "kind", depth=result.k,
                               trace=trace, stats=stats)
        return CheckResult(name, UNKNOWN, "kind", depth=max_k, stats=stats)

    def _run_bdd(self, method: str) -> CheckResult:
        model = SymbolicModel(self.ts, budget=self.budget)
        traversal = {
            "bdd-forward": forward_reach,
            "bdd-backward": backward_reach,
            "bdd-combined": combined_reach,
        }[method]
        reach = traversal(model)
        stats = {
            "iterations": reach.iterations,
            "peak_nodes": reach.peak_live_nodes,
        }
        if reach.proved:
            return CheckResult(self.ts.name, PASS, method,
                               depth=reach.iterations, stats=stats)
        if reach.cex_depth is None:
            return CheckResult(self.ts.name, UNKNOWN, method, stats=stats)
        trace = self._concretise(reach.cex_depth)
        return CheckResult(self.ts.name, FAIL, method,
                           depth=trace.length - 1, trace=trace, stats=stats)

    def _run_pobdd(self, num_window_vars: int) -> CheckResult:
        model = SymbolicModel(self.ts, budget=self.budget)
        reach, pstats = pobdd_reach(model, num_window_vars=num_window_vars)
        stats = {
            "iterations": reach.iterations,
            "peak_nodes": reach.peak_live_nodes,
            "windows": pstats.windows,
            "peak_window_size": pstats.peak_window_size,
        }
        if reach.proved:
            return CheckResult(self.ts.name, PASS, "pobdd",
                               depth=reach.iterations, stats=stats)
        if reach.cex_depth is None:
            return CheckResult(self.ts.name, UNKNOWN, "pobdd", stats=stats)
        trace = self._concretise(reach.cex_depth)
        return CheckResult(self.ts.name, FAIL, "pobdd",
                           depth=trace.length - 1, trace=trace, stats=stats)

    # ------------------------------------------------------------------
    def _concretise(self, depth_bound: int) -> Trace:
        """Turn a symbolic 'bad reachable within N steps' verdict into a
        concrete input trace via BMC."""
        result = bmc(self.ts, depth_bound, budget=self.budget)
        if not result.failed:
            raise RuntimeError(
                "BDD engine reported a reachable violation but BMC could "
                f"not concretise it within {depth_bound} steps"
            )
        self._validate(result.trace)
        return result.trace

    @staticmethod
    def _validate(trace: Optional[Trace]) -> None:
        if trace is not None and not trace.replay():
            raise RuntimeError("counterexample failed replay validation")


# ----------------------------------------------------------------------
# built-in engine registrations
# ----------------------------------------------------------------------

@register_engine("auto")
def _engine_auto(checker: ModelChecker, options: EngineOptions) -> CheckResult:
    """Induction first, BDD combined as the decision procedure."""
    inductive = checker._run_induction(options.max_k, options.unique_states,
                                       options)
    if inductive.status in (PASS, FAIL):
        inductive.engine = "auto:kind"
        return inductive
    bdd_result = checker._run_bdd("bdd-combined")
    bdd_result.engine = "auto:" + bdd_result.engine
    return bdd_result


@register_engine("bmc")
def _engine_bmc(checker: ModelChecker, options: EngineOptions) -> CheckResult:
    return checker._run_bmc(options.max_bound)


@register_engine("kind")
def _engine_kind(checker: ModelChecker, options: EngineOptions) -> CheckResult:
    return checker._run_induction(options.max_k, options.unique_states,
                                  options)


def _bdd_engine(method: str) -> EngineFn:
    def run(checker: ModelChecker, options: EngineOptions) -> CheckResult:
        return checker._run_bdd(method)
    return run


for _method in ("bdd-forward", "bdd-backward", "bdd-combined"):
    register_engine(_method, _bdd_engine(_method))


@register_engine("pobdd")
def _engine_pobdd(checker: ModelChecker, options: EngineOptions) -> CheckResult:
    return checker._run_pobdd(options.num_window_vars)
