"""Weighted-average consensus on directed graphs.

Build a weighted system from a digraph, certify a step size against the
degree bound, predict the consensus value from the stationary direction,
iterate to convergence, or simulate the same dynamics as message-passing
agents; the matrix and agent paths are bit-identical by construction.
"""

from .agents import (
    Agent,
    MessageProtocolError,
    RoundReport,
    agent_stepper,
    build_agents,
    local_update,
    run_rounds,
    step_round,
)
from .engine import (
    DEFAULT_EPSILON_FACTOR,
    DEFAULT_MAX_STEPS,
    DEFAULT_SNAPSHOT_LIMIT,
    DEFAULT_TOL,
    HypothesisViolation,
    RunTrace,
    SpectralPrediction,
    WeightedSystem,
    build_iteration_matrix,
    build_system,
    certify,
    default_epsilon,
    epsilon_bound,
    limit_matrix,
    matrix_stepper,
    predict,
    run,
    undirected_alpha,
)
from .graph import (
    Digraph,
    GraphFormatError,
    is_strongly_connected,
    is_undirected,
    load_edge_list,
    out_degrees,
    parse_edge_list,
)
from .linalg import (
    NullSpaceError,
    PowerIterationResult,
    null_vector,
    power_iteration,
)

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "Digraph",
    "GraphFormatError",
    "HypothesisViolation",
    "MessageProtocolError",
    "NullSpaceError",
    "PowerIterationResult",
    "RoundReport",
    "RunTrace",
    "SpectralPrediction",
    "WeightedSystem",
    "agent_stepper",
    "build_agents",
    "build_iteration_matrix",
    "build_system",
    "certify",
    "default_epsilon",
    "epsilon_bound",
    "is_strongly_connected",
    "is_undirected",
    "limit_matrix",
    "load_edge_list",
    "local_update",
    "matrix_stepper",
    "null_vector",
    "out_degrees",
    "parse_edge_list",
    "power_iteration",
    "predict",
    "run",
    "run_rounds",
    "step_round",
    "undirected_alpha",
    "DEFAULT_EPSILON_FACTOR",
    "DEFAULT_MAX_STEPS",
    "DEFAULT_SNAPSHOT_LIMIT",
    "DEFAULT_TOL",
]
