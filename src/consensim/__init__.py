"""Weighted-average consensus on directed graphs.

Build a weighted system from a digraph, certify a step size against the
degree bound, predict the consensus value from the stationary direction,
iterate to convergence, or simulate the same dynamics as message-passing
agents; the matrix and agent paths are bit-identical by construction.
"""

from .agents import Agent, MessageProtocolError, agent_stepper, build_agents, run_rounds
from .engine import (
    DEFAULT_MAX_STEPS,
    DEFAULT_SNAPSHOT_LIMIT,
    DEFAULT_TOL,
    HypothesisViolation,
    RunTrace,
    SpectralPrediction,
    WeightedSystem,
    build_system,
    certify,
    default_epsilon,
    epsilon_bound,
    matrix_stepper,
    predict,
    run,
)
from .graph import Digraph, GraphFormatError, load_edge_list, parse_edge_list
from .linalg import NullSpaceError, null_vector

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "Digraph",
    "GraphFormatError",
    "HypothesisViolation",
    "MessageProtocolError",
    "NullSpaceError",
    "RunTrace",
    "SpectralPrediction",
    "WeightedSystem",
    "agent_stepper",
    "build_agents",
    "build_system",
    "certify",
    "default_epsilon",
    "epsilon_bound",
    "load_edge_list",
    "matrix_stepper",
    "null_vector",
    "parse_edge_list",
    "predict",
    "run",
    "run_rounds",
    "DEFAULT_MAX_STEPS",
    "DEFAULT_SNAPSHOT_LIMIT",
    "DEFAULT_TOL",
]
