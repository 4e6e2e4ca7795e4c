"""Ablations of the design choices called out in DESIGN.md §5.

1. Engine comparison: the same property checked by every engine —
   monitor-based compilation makes properties engine-agnostic.
2. Partitioned transition relation with early quantification vs a
   clustered/monolithic relation (BDD node cost of image computation).
3. POBDD window count vs peak per-window reached-set size.
4. k-induction with and without simple-path (unique-states)
   constraints.
"""

import pytest

from repro.chip.library import canonical_leaf, fig7_module
from repro.core.report import render_table
from repro.core.stereotypes import integrity_vunit, soundness_vunit
from repro.formal.budget import ResourceBudget
from repro.formal.engine import PASS, ModelChecker
from repro.formal.induction import k_induction
from repro.formal.pobdd import pobdd_reach
from repro.formal.reachability import SymbolicModel, forward_reach
from repro.psl.compile import compile_assertion
from repro.rtl.inject import make_verifiable



def _soundness_problem():
    module = make_verifiable(fig7_module(data_width=8, depth=3))
    unit = soundness_vunit(module)
    return compile_assertion(module, unit, unit.asserted()[0][0])


def test_ablation_engines(benchmark, publish):
    """Every engine settles the same stereotype property."""
    module = make_verifiable(canonical_leaf())
    unit = soundness_vunit(module)
    ts = compile_assertion(module, unit, "pNoError_HE")
    milliseconds = {}

    def run_all():
        rows = []
        for method in ("bmc", "kind", "bdd-forward", "bdd-backward",
                       "bdd-combined", "pobdd"):
            budget = ResourceBudget(sat_conflicts=500_000,
                                    bdd_nodes=5_000_000)
            result = ModelChecker(ts, budget).check(method=method)
            rows.append([method, result.status.upper(),
                         result.depth,
                         budget.spent_conflicts, budget.spent_nodes])
            milliseconds[method] = round(result.seconds * 1000, 1)
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    verdicts = {row[1] for row in rows}
    assert verdicts == {"PASS", "UNKNOWN"}   # bmc alone is bounded
    assert [row[1] for row in rows if row[0] != "bmc"] == ["PASS"] * 5
    # the published table is deterministic; wall times go to stdout and
    # the benchmark record
    publish("ablation_engines", render_table(
        ["Engine", "Verdict", "Depth/k", "SAT conflicts", "BDD nodes"],
        rows,
    ))
    print("engine ms: " + ", ".join(f"{method} {ms}"
                                    for method, ms in milliseconds.items()))
    benchmark.extra_info["ms"] = milliseconds


def test_ablation_transition_clustering(benchmark, publish):
    """Fully partitioned relation (limit 1) vs increasingly clustered
    relations: early quantification needs the partitions."""
    module = make_verifiable(canonical_leaf())
    unit = soundness_vunit(module)
    ts = compile_assertion(module, unit, "pNoError_HE")

    def run():
        rows = []
        for limit in (1, 4, 16, 10_000):
            budget = ResourceBudget()
            model = SymbolicModel(ts, budget=budget, cluster_limit=limit)
            reach = forward_reach(model)
            rows.append([limit, len(model.partitions),
                         reach.proved, budget.spent_nodes])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(row[2] for row in rows)     # every variant proves it
    fully_partitioned = rows[0][3]
    monolithic = rows[-1][3]
    assert fully_partitioned < monolithic  # partitioning pays off
    publish("ablation_clustering", render_table(
        ["Cluster limit", "Partitions", "Proved", "BDD nodes created"],
        rows,
    ))


def test_ablation_pobdd_windows(benchmark, publish):
    """More window variables -> smaller peak per-window reached sets.

    Uses the canonical leaf: partitioned traversal multiplies the
    number of image computations by the window count, so the ablation
    sweep stays affordable on a small state space.
    """
    module = make_verifiable(canonical_leaf())
    unit = soundness_vunit(module)
    ts = compile_assertion(module, unit, "pNoError_HE")

    def run():
        rows = []
        for window_vars in (0, 1, 2, 3):
            budget = ResourceBudget()
            model = SymbolicModel(ts, budget=budget)
            reach, stats = pobdd_reach(model,
                                       num_window_vars=window_vars)
            rows.append([window_vars, stats.windows, reach.proved,
                         stats.peak_window_size, budget.spent_nodes])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(row[2] for row in rows)
    # peak window size shrinks monotonically with more windows
    peaks = [row[3] for row in rows]
    assert peaks[0] >= peaks[-1]
    publish("ablation_pobdd", render_table(
        ["Window vars", "Windows", "Proved", "Peak window nodes",
         "Manager nodes"], rows,
    ))


def test_ablation_unique_states(benchmark, publish):
    """Simple-path constraints: completeness insurance whose cost shows
    in added clauses, not verdicts, on inductive properties."""
    ts = _soundness_problem()

    def run():
        rows = []
        for unique in (True, False):
            budget = ResourceBudget(sat_conflicts=500_000)
            result = k_induction(ts, max_k=20, budget=budget,
                                 unique_states=unique)
            rows.append([unique, result.status, result.k,
                         result.stats["conflicts"]])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(row[1] == "proved" for row in rows)
    assert rows[0][2] == rows[1][2]   # same induction depth here
    publish("ablation_unique_states", render_table(
        ["Unique states", "Status", "k", "Conflicts"], rows,
    ))
