"""Shared incremental SAT workspaces: warm solver state across checks.

The warm-state layer beside
:class:`~repro.formal.problems.CompiledProblemStore`.  A
:class:`SatWorkspace` keeps live :class:`~repro.formal.sat.Solver` +
:class:`~repro.formal.bmc.Unroller` pairs — *sessions* — alive across
portfolio stages and check jobs, so time-frame encodings, variable
numbering, and learned clauses survive from one assertion to the next
and from depth k to k+1.

Clustering and sessions
-----------------------

Assertions are grouped into *clusters* — chunks of one (module, vunit)'s
asserted properties, at most :attr:`SatWorkspace.CLUSTER_LIMIT` per
chunk, compiled by
:func:`~repro.psl.compile.compile_cluster` into a single shared-AIG
multi-bad :class:`~repro.formal.transition.ClusterSystem`.  Each cluster
owns up to two sessions, keyed by

    (module digest, vunit digest, chunk index, mode)

with mode ``bmc-init`` (frame 0 constrained to the initial state —
induction's base leg) or ``step`` (frame 0 free — induction's step
leg).  Keys include the *vunit* digest because ``assume`` directives
become permanent unit clauses in the shared CNF: sessions may only be
shared between checks that agree on the constraint.

Activation literals
-------------------

Per-assertion facts enter the shared CNF under a fresh *activation
literal* ``act``:

- queries run as ``solve([act, bad@k])``,
- no-counterexample facts are guarded blocks ``(¬act ∨ ¬bad@k)``,
- induction's simple-path distinctness disjunctions are guarded and
  range over the assertion's own cone-of-influence latches.

``act`` only ever appears *negatively* in clauses, so no resolution can
derive the unit ``[act]`` and the retirement unit ``¬act`` added when a
job finishes can never conflict: it simply satisfies (deactivates) every
clause of the retired assertion, including learned clauses that depended
on its activation (which, per standard assumption-based CDCL, contain
``¬act``).  Unretired activations of *other* assertions are free
variables the solver may set to 0, so their guarded clauses never flip a
verdict — which is why verdicts and depths are identical to cold runs
and campaign reports stay byte-for-byte canonical.

What warm runs do NOT share is counterexample extraction: the shared
CNF's model lives in cluster-AIG literal numbering, while canonical
traces serialize solo-AIG input literals.  Engines therefore re-derive
failing traces with a cold run on the solo-compiled system at the
discovered depth — deterministic, hence byte-identical to the cold
trace — paying the extra solve only on the FAIL minority.  Only that
re-derivation compiles the solo system: any other verdict settled on
the sessions takes its name and problem size from the binding
(:attr:`SatBinding.name`, :meth:`SatBinding.view`).

Settled problems
----------------

A worker settles each distinct compiled problem once.  Module texts that
differ outside a property's cone get distinct job fingerprints, yet
compile to the same bit-level problem.  So the ``kind`` engine keys
every definitive outcome by the assertion view's structural digest
(:meth:`~repro.formal.transition.TransitionSystem.structure`) plus
``max_k`` and ``unique_states``, and answers a later check with an
equal key from :meth:`SatWorkspace.recall` without leasing a session.
Equal digests mean isomorphic problems, and a proved or failed ``kind``
outcome and its ``k`` are properties of the problem, not of the search,
so a hit is the cold verdict.  A FAIL hit still re-derives its trace
cold on the job's own solo compile, like every shared-session FAIL.
Only PASS and FAIL outcomes are kept: a TIMEOUT depends on the search,
and an UNKNOWN says only that ``max_k`` ran out.  The memo is per
worker, like the sessions, and is neither shared across a fleet nor
persisted.

Budgets and capacity
--------------------

Sessions are re-armed with the current check's budget at lease time;
a :class:`~repro.formal.budget.BudgetExceeded` mid-solve leaves the
solver consistent and the session reusable.  Warm CDCL search is *not*
monotonically cheaper — retained clauses usually save conflicts but can
steer the heuristics either way — so under a binding budget a warm run
may TIMEOUT where a cold run finished (and vice versa); campaign
defaults keep budgets non-binding.  :attr:`SatWorkspace.MAX_SESSIONS`
bounds live sessions (and compiled clusters) LRU-fashion, and
:attr:`SatWorkspace.MAX_PROBLEMS` the settled outcomes.  Workspaces
are plain per-process objects: executors build one per worker, exactly
like compile stores.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .bmc import Unroller
from .budget import ResourceBudget
from .induction import _UniqueStates
from .problems import content_digest
from .sat import Solver
from .transition import ClusterSystem, TransitionSystem

MODE_BMC_INIT = "bmc-init"
MODE_STEP = "step"

#: a settled problem: (structural digest, max_k, unique_states)
ProblemKey = Tuple[str, int, bool]


class SatSession:
    """One live solver + unroller over a cluster's spine.

    Tracks per-assertion activation literals, which frames carry the
    shared constraint unit, and the memoized XOR difference definitions
    shared by the cluster's unique-states constraints.
    """

    def __init__(self, cluster: ClusterSystem, mode: str,
                 workspace: Optional["SatWorkspace"] = None) -> None:
        if mode not in (MODE_BMC_INIT, MODE_STEP):
            raise ValueError(f"unknown session mode {mode!r}")
        self.cluster = cluster
        self.mode = mode
        self.workspace = workspace
        self.solver = Solver()
        self.unroller = Unroller(cluster.spine, self.solver,
                                 constrain_init=(mode == MODE_BMC_INIT))
        self._acts: Dict[str, int] = {}
        self._uniq: Dict[str, _UniqueStates] = {}
        self._xor_memo: Dict[Tuple[int, int, int], int] = {}
        self._constrained: set = set()
        self._lease_frames = 0
        self._lease_reused: set = set()

    # ------------------------------------------------------------------
    def begin_lease(self, budget: Optional[ResourceBudget] = None) -> None:
        """Arm the session for the next check: swap in its budget and
        mark the frame horizon for reuse accounting."""
        self.solver.rearm(budget)
        self._lease_frames = len(self.unroller._frames)
        self._lease_reused = set()

    def frame(self, index: int):
        """The CNF context of frame ``index`` (building on demand),
        with built/reused accounting against the pre-lease horizon."""
        built = len(self.unroller._frames)
        ctx = self.unroller.frame(index)
        if self.workspace is not None:
            grown = len(self.unroller._frames) - built
            if grown:
                self.workspace.counters["frames_built"] += grown
            if index < self._lease_frames and index not in self._lease_reused:
                self._lease_reused.add(index)
                self.workspace.counters["frames_reused"] += 1
        return ctx

    def assert_constraint(self, index: int) -> None:
        """Assert the shared (vunit-wide) constraint at ``index`` —
        once: the unit is permanent, so repeats across assertions and
        jobs are skipped."""
        if index not in self._constrained:
            self.frame(index)
            self.unroller.assert_constraint(index)
            self._constrained.add(index)

    # ------------------------------------------------------------------
    def activation(self, assert_name: str) -> int:
        """The assertion's live activation literal, minting one on
        first use (and after a retirement)."""
        act = self._acts.get(assert_name)
        if act is None:
            act = self.solver.new_var() << 1
            self._acts[assert_name] = act
            if self.workspace is not None:
                self.workspace.counters["activations"] += 1
        return act

    def retire(self, assert_name: str) -> None:
        """Permanently deactivate the assertion's guarded clauses with
        the unit ``¬act``.  A later re-check mints a fresh activation;
        the old clauses stay behind, satisfied and inert."""
        act = self._acts.pop(assert_name, None)
        if act is None:
            return
        self._uniq.pop(assert_name, None)
        self.solver.add_clause([act ^ 1])
        if self.workspace is not None:
            self.workspace.counters["retirements"] += 1

    def unique_states(self, assert_name: str) -> _UniqueStates:
        """The assertion's guarded simple-path constraints (step mode),
        over its own cone-of-influence latches, sharing the session's
        XOR definition memo."""
        uniq = self._uniq.get(assert_name)
        if uniq is None:
            view = self.cluster.view(assert_name)
            uniq = _UniqueStates(
                view, self.unroller, self.solver,
                guard=self.activation(assert_name),
                latches=view.latches, xor_memo=self._xor_memo,
            )
            self._uniq[assert_name] = uniq
        return uniq


class SatBinding:
    """One check job's handle on a workspace: resolves the assertion's
    cluster lazily (a BDD-only portfolio never compiles one), leases
    sessions by mode, and retires the assertion's activations in every
    leased session when the job finishes.

    ``name`` and :meth:`view` describe the assertion's problem without
    its solo compile: a check settled on the sessions reports them in
    place of the solo system's name and size."""

    def __init__(self, workspace: "SatWorkspace", module, vunit,
                 assert_name: str, module_digest: str = "",
                 vunit_digest: str = "", store=None) -> None:
        self.workspace = workspace
        self.module = module
        self.vunit = vunit
        self.assert_name = assert_name
        self._module_digest = module_digest
        self._vunit_digest = vunit_digest
        self._store = store
        self._cluster_key: Optional[Tuple[str, str, int]] = None
        self._cluster: Optional[ClusterSystem] = None
        self._leased: List[SatSession] = []

    @property
    def name(self) -> str:
        """The assertion's problem name, by the rule the solo compile
        names it."""
        from ..psl.compile import problem_name  # avoid upward import
        return problem_name(self.vunit, self.assert_name)

    def view(self) -> TransitionSystem:
        """The assertion's own COI-reduced problem over its cluster's
        shared AIG: the solo compile up to AIG literal numbering."""
        return self._resolve().view(self.assert_name)

    def _resolve(self) -> ClusterSystem:
        if self._cluster is None:
            self._cluster_key, self._cluster = self.workspace._cluster_for(
                self.module, self.vunit, self.assert_name,
                self._module_digest, self._vunit_digest, self._store,
            )
        return self._cluster

    def lease(self, mode: str,
              budget: Optional[ResourceBudget] = None) -> SatSession:
        """An armed session for ``mode``, creating or re-warming as
        needed."""
        cluster = self._resolve()
        session = self.workspace._lease_session(
            self._cluster_key, mode, cluster, budget,
        )
        if not any(session is leased for leased in self._leased):
            self._leased.append(session)
        return session

    def retire(self) -> None:
        """End of job: deactivate this assertion everywhere it ran."""
        for session in self._leased:
            session.retire(self.assert_name)
        self._leased = []


class SatWorkspace:
    """Process-local pool of shared SAT sessions, LRU-bounded.

    Pure acceleration state, never part of job fingerprints, with
    ``stats()`` counters for telemetry.  The capacities are class
    constants, not knobs: the default campaign reaches the session
    bound, and no workload measured a better value.
    """

    #: live sessions retained, and compiled clusters kept (LRU each)
    MAX_SESSIONS = 8
    #: settled ``kind`` outcomes kept (LRU), more than the 516 distinct
    #: problems of the full chip
    MAX_PROBLEMS = 1024
    #: assertions of one (module, vunit) per shared cluster (the
    #: paper's clustering ablation plateaus by 16)
    CLUSTER_LIMIT = 16

    def __init__(self) -> None:
        self._sessions: Dict[Tuple[str, str, int, str], SatSession] = {}
        self._clusters: Dict[Tuple[str, str, int], ClusterSystem] = {}
        self._problems: Dict[ProblemKey, Tuple[str, int]] = {}
        self.counters: Dict[str, int] = {
            "leases": 0, "reuses": 0, "evictions": 0,
            "activations": 0, "retirements": 0,
            "frames_built": 0, "frames_reused": 0, "clauses_retained": 0,
            "cluster_compiles": 0, "problem_hits": 0,
        }

    # ------------------------------------------------------------------
    def bind(self, module, vunit, assert_name: str,
             module_digest: str = "", vunit_digest: str = "",
             store=None) -> SatBinding:
        """A job-scoped binding for one assertion.  ``store`` (a
        :class:`~repro.formal.problems.CompiledProblemStore`) lets
        cluster compilation share elaborated designs."""
        return SatBinding(self, module, vunit, assert_name,
                          module_digest=module_digest,
                          vunit_digest=vunit_digest, store=store)

    # ------------------------------------------------------------------
    def _cluster_for(self, module, vunit, assert_name: str,
                     module_digest: str, vunit_digest: str,
                     store) -> Tuple[Tuple[str, str, int], ClusterSystem]:
        from ..psl.compile import compile_cluster  # avoid upward import
        from ..rtl.verilog import emit_module

        module_key = module_digest or content_digest(emit_module(module))
        vunit_key = vunit_digest or content_digest(vunit.emit())
        names = [name for name, _ in vunit.asserted()]
        try:
            index = names.index(assert_name)
        except ValueError:
            raise ValueError(
                f"assertion {assert_name!r} is not asserted in vunit "
                f"{vunit.name!r}"
            ) from None
        limit = self.CLUSTER_LIMIT
        chunk = index // limit
        key = (module_key, vunit_key, chunk)
        cluster = self._clusters.pop(key, None)
        if cluster is None:
            members = names[chunk * limit:(chunk + 1) * limit]
            design = None
            if store is not None:
                design = store.design(module, module_digest=module_key)
            cluster = compile_cluster(module, vunit, members, design=design)
            self.counters["cluster_compiles"] += 1
            while len(self._clusters) >= self.MAX_SESSIONS:
                self._clusters.pop(next(iter(self._clusters)))
        self._clusters[key] = cluster
        return key, cluster

    def _lease_session(self, cluster_key: Tuple[str, str, int], mode: str,
                       cluster: ClusterSystem,
                       budget: Optional[ResourceBudget] = None) -> SatSession:
        key = (*cluster_key, mode)
        self.counters["leases"] += 1
        session = self._sessions.pop(key, None)
        if session is not None:
            self.counters["reuses"] += 1
            self.counters["clauses_retained"] += len(session.solver._learned)
        else:
            while len(self._sessions) >= self.MAX_SESSIONS:
                self._sessions.pop(next(iter(self._sessions)))
                self.counters["evictions"] += 1
            session = SatSession(cluster, mode, workspace=self)
        self._sessions[key] = session
        session.begin_lease(budget)
        return session

    # ------------------------------------------------------------------
    def recall(self, key: ProblemKey) -> Optional[Tuple[str, int]]:
        """The ``(status, k)`` that ``kind`` settled on this worker for
        ``key`` — ``(structural digest, max_k, unique_states)`` — or
        ``None``."""
        outcome = self._problems.pop(key, None)
        if outcome is not None:
            self._problems[key] = outcome
            self.counters["problem_hits"] += 1
        return outcome

    def remember(self, key: ProblemKey, status: str, k: int) -> None:
        """Keep a proved or failed ``kind`` outcome for :meth:`recall`."""
        while len(self._problems) >= self.MAX_PROBLEMS:
            self._problems.pop(next(iter(self._problems)))
        self._problems[key] = (status, k)

    # ------------------------------------------------------------------
    def discard(self) -> None:
        """Drop every session, cluster and settled outcome (counters
        are retained)."""
        self._sessions.clear()
        self._clusters.clear()
        self._problems.clear()

    def stats(self) -> Dict[str, int]:
        """Current gauges plus the cumulative counters."""
        return {
            "sessions": len(self._sessions),
            "clusters": len(self._clusters),
            **self.counters,
        }
