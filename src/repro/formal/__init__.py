"""Formal engines: CDCL SAT, BMC, k-induction, ROBDD reachability
(forward/backward/combined), POBDD partitioning, and the unified
model-checker front-end with deterministic resource budgets."""

from .budget import BudgetExceeded, ResourceBudget, unlimited
from .sat import Solver
from .cnf import CnfContext
from .transition import ClusterSystem, TransitionSystem
from .trace import Trace
from .bmc import BmcResult, Unroller, bmc, bmc_session
from .induction import InductionResult, k_induction, k_induction_session
from .satspace import SatBinding, SatSession, SatWorkspace
from .bdd import Bdd
from .problems import (
    CompiledProblemStore, compilations_total, elaborations_total,
)
from .reachability import (
    ReachResult, SymbolicModel, backward_reach, combined_reach,
    forward_reach,
)
from .pobdd import PobddStats, choose_window_vars, pobdd_reach
from .engine import (
    FAIL, PASS, TIMEOUT, UNKNOWN, CheckResult, EngineOptions, ModelChecker,
    register_engine, registered_engines,
)
from .equivalence import (
    MISCOMPARE_OUTPUT, build_miter, check_equivalence,
    injection_transparent,
)

__all__ = [
    "BudgetExceeded", "ResourceBudget", "unlimited",
    "Solver", "CnfContext", "ClusterSystem", "TransitionSystem", "Trace",
    "BmcResult", "Unroller", "bmc", "bmc_session",
    "InductionResult", "k_induction", "k_induction_session",
    "SatBinding", "SatSession", "SatWorkspace",
    "Bdd",
    "CompiledProblemStore", "compilations_total", "elaborations_total",
    "ReachResult", "SymbolicModel", "backward_reach", "combined_reach",
    "forward_reach",
    "PobddStats", "choose_window_vars", "pobdd_reach",
    "FAIL", "PASS", "TIMEOUT", "UNKNOWN", "CheckResult", "EngineOptions",
    "ModelChecker", "register_engine", "registered_engines",
    "MISCOMPARE_OUTPUT", "build_miter", "check_equivalence",
    "injection_transparent",
]
