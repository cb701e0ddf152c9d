"""Exact-arithmetic log MMP on iterated blow-ups of the projective plane.

The package models rational surfaces through the intersection matrix of the
canonical class and the tracked curves, solves numerical pullbacks and log
discrepancies over contracted curve configurations exactly, classifies the
resulting singularities against an epsilon threshold, and drives audited
extremal contraction runs.
"""

from .dot import export_dot
from .dualgraph import WeightedDualGraph, build_dual_graph
from .errors import (
    LogSurfError,
    ModelError,
    MultiEdgeError,
    NotNegativeDefiniteError,
    ScenarioError,
)
from .lattice import (
    PointSpec,
    SurfaceModel,
    blow_up,
    declare_contracted,
    new_projective_plane,
)
from .mmp import (
    AuditReport,
    Candidate,
    Exhausted,
    MinimalOverTracked,
    MmpRun,
    MmpState,
    MmpStep,
    MoriFiberSignal,
    MostNegativeFirst,
    NamedOrder,
    SearchConfig,
    SearchReport,
    VerificationReport,
    audit_run,
    contract,
    extremal_pairing,
    parse_strategy,
    run,
    search_canonical_starts,
    step_candidates,
    verify_smooth_start_runs,
)
from .scenario import (
    BlowupStep,
    Scenario,
    build_model,
    build_state,
    bundled_scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    star_scenario,
)
from .singularities import (
    EPS_LOG_CANONICAL,
    EPS_LOG_TERMINAL,
    NEG_INFINITY,
    NOT_LOG_CANONICAL,
    UNCLASSIFIABLE_SNC,
    QDivisor,
    SingularityClass,
    classify,
    log_discrepancies,
    minimal_resolution,
    pullback,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BlowupStep",
    "Candidate",
    "EPS_LOG_CANONICAL",
    "EPS_LOG_TERMINAL",
    "Exhausted",
    "LogSurfError",
    "MinimalOverTracked",
    "MmpRun",
    "MmpState",
    "MmpStep",
    "ModelError",
    "MoriFiberSignal",
    "MostNegativeFirst",
    "MultiEdgeError",
    "NamedOrder",
    "NEG_INFINITY",
    "NOT_LOG_CANONICAL",
    "NotNegativeDefiniteError",
    "PointSpec",
    "QDivisor",
    "Scenario",
    "ScenarioError",
    "SearchConfig",
    "SearchReport",
    "SingularityClass",
    "SurfaceModel",
    "UNCLASSIFIABLE_SNC",
    "VerificationReport",
    "WeightedDualGraph",
    "audit_run",
    "blow_up",
    "build_dual_graph",
    "build_model",
    "build_state",
    "bundled_scenario",
    "classify",
    "contract",
    "declare_contracted",
    "export_dot",
    "extremal_pairing",
    "load_scenario",
    "log_discrepancies",
    "minimal_resolution",
    "new_projective_plane",
    "parse_scenario",
    "parse_strategy",
    "pullback",
    "run",
    "search_canonical_starts",
    "serialize_scenario",
    "star_scenario",
    "step_candidates",
    "verify_smooth_start_runs",
]
