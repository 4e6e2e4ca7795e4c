"""Job executors: the executor contract and the serial executor.

An executor is anything with a ``name`` and a ``map(jobs)`` method that
yields one :class:`JobResult` per job **in job-index order**.  The
ordering contract is what makes every execution strategy produce the
same report: the orchestrator aggregates results as they stream out,
so serial and parallel executors are interchangeable without touching
aggregation or report rendering.  (``tests/test_executor_contract.py``
is the executable form of the contract — any new executor must pass
that battery unchanged.)  Two executors ship: :class:`SerialExecutor`
here, and the parallel :class:`~repro.orchestrate.fleet.FleetExecutor`,
which leases jobs to worker processes it forks on this host.

Warm state per worker
---------------------

Every worker holds two pieces of warm state, built by the worker
itself and never shared across processes (which keeps reuse
lock-free):

- a content-addressed
  :class:`~repro.formal.problems.CompiledProblemStore` (on by default,
  ``compile_store=False`` to opt out): a module's many jobs share one
  elaborated design keyed by the module's RTL digest, which makes
  module-affinity batches (one lease = one module's whole job group)
  hit a warm design for every job after the group's first — and makes
  the golden-vs-patched same-name case safe by construction, since two
  modules with different RTL can never share a digest;
- with ``share_sat=True``, a :class:`~repro.formal.satspace.SatWorkspace`:
  ``kind`` stages query shared incremental solver sessions — clustered
  per-(module, vunit) CNFs, retained time-frame encodings, learned
  clauses surviving across assertions under per-assertion activation
  literals — instead of building cold solvers.  Verdicts, depths, and counterexample
  bytes are sharing-invariant (failing traces are re-derived cold on
  the solo compile), so ``CampaignReport.canonical_bytes`` is
  identical with sharing on or off; the one exception is a *binding*
  conflict budget, since retained clauses can steer CDCL search either
  way.

The serial executor holds one of each for the whole run (or accepts an
explicit ``store=`` / ``sat_workspace=`` to keep them warm across
runs); fleet workers each build their own.  ``executor.compile_stats()``
and ``executor.sat_stats()`` aggregate every worker's counters after a
``map``; the orchestrator surfaces them in
``report.stats["compile_store"]`` and ``report.stats["sat_workspace"]``.

The process wire format
-----------------------

A :class:`JobResult` is the plan index and the
:class:`~repro.formal.engine.CheckResult`; everything else about the
check is the plan job's.  Fleet workers never ship whole results back
to the coordinator: a result frame carries the index, the job's
fingerprint and the :func:`~repro.orchestrate.job.encode_result` entry
the cache and checkpoint already speak, with FAIL counterexamples as
canonical input frames rather than the compiled transition system they
replay on.  The coordinator pairs the frame with its plan job and
decodes it through its own compile store
(:func:`~repro.orchestrate.job.decode_result`), revalidating every FAIL
trace by replay.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional

from ..formal.problems import CompiledProblemStore
from ..formal.satspace import SatWorkspace
from .job import CheckJob, JobResult, run_check_job


class SerialExecutor:
    """Run every job in-process, in plan order (the default).

    The compiled-problem store is on by default (``compile_store=False``
    opts out), or pass an explicit ``store`` to keep elaborated designs
    warm across runs.  SAT-session sharing follows the same shape:
    ``share_sat=True`` builds a
    :class:`~repro.formal.satspace.SatWorkspace`, or pass an explicit
    ``sat_workspace`` to keep solver sessions warm across runs.
    """

    name = "serial"

    def __init__(self, store: Optional[CompiledProblemStore] = None,
                 compile_store: bool = True,
                 sat_workspace: Optional[SatWorkspace] = None,
                 share_sat: bool = False) -> None:
        if store is None and compile_store:
            store = CompiledProblemStore()
        self.store = store
        if sat_workspace is None and share_sat:
            sat_workspace = SatWorkspace()
        self.sat_workspace = sat_workspace

    def map(self, jobs: Iterable[CheckJob]) -> Iterator[JobResult]:
        """Yield one :class:`JobResult` per job, lazily, in plan order
        (trivially — jobs run one at a time in this process)."""
        for job in jobs:
            yield run_check_job(job, self.store,
                                sat_workspace=self.sat_workspace)

    def compile_stats(self) -> Dict[str, int]:
        """The store's lifetime counters (``{}`` when the store is
        off) — the serial executor's single worker is this process."""
        if self.store is None:
            return {}
        return {**self.store.stats(), "workers": 1}

    def sat_stats(self) -> Dict[str, int]:
        """The SAT workspace's lifetime counters (``{}`` when off)."""
        if self.sat_workspace is None:
            return {}
        return {**self.sat_workspace.stats(), "workers": 1}
