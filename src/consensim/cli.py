"""Command-line driver: check hypotheses, run consensus, compare execution modes.

compare runs matrix mode in blocks, compares each step after step 0 bitwise with
one round of agents stepping from their own states, and reports the exact first
divergent step and node.

Exit codes: 0 success, 1 input or usage error, 2 hypothesis violation,
3 no convergence (the step budget ran out, or the state diverged or
cycled), 4 mode mismatch in compare.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import MessageProtocolError, _first_difference, _network, agent_stepper, build_agents
from .engine import (
    DEFAULT_MAX_STEPS,
    DEFAULT_SNAPSHOT_LIMIT,
    DEFAULT_TOL,
    _MAX_INLINE_STATE,
    HypothesisViolation,
    RunTrace,
    WeightedSystem,
    _check_limits,
    _step_size,
    build_system,
    certify,
    default_epsilon,
    epsilon_bound,
    predict,
    run,
)
from .graph import load_edge_list, read_vector_file
from .linalg import NullSpaceError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_NO_CONVERGENCE = 3
EXIT_MISMATCH = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration for one experiment; its run limits pass run's own check."""

    graph_path: str
    weights_path: str | None = None
    x0_path: str | None = None
    epsilon: float | None = None
    tol: float = DEFAULT_TOL
    max_steps: int = DEFAULT_MAX_STEPS
    mode: str = "matrix"
    allow_uncertified: bool = False
    out_dir: str = "."
    snapshot_limit: int = DEFAULT_SNAPSHOT_LIMIT
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max-steps must be at least 1")
        _check_limits(self.tol, self.max_steps, self.snapshot_limit)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        operator.index(self.seed)
        if self.mode not in ("matrix", "agents"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.epsilon is not None:
            _step_size(self.epsilon)


def default_initial_state(n: int, seed: int) -> np.ndarray:
    """Deterministic initial state in [0, 1): the splitmix64 stream.

    Value k = 1..n takes z = seed + k * 0x9E3779B97F4A7C15, then
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9, z = (z ^ (z >> 27)) *
    0x94D049BB133111EB and z ^= z >> 31, all modulo 2**64, and returns
    (z >> 11) * 2**-53.  It is platform independent, so identical
    configurations produce byte-identical outputs everywhere.
    """
    # uint64 arrays wrap silently; a numpy scalar warns and int64 makes float64
    k = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed % 2**64) + k * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _fmt_vector(v: np.ndarray) -> str:
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the exit-code contract reserves
    # 2 for hypothesis violations, so usage problems are remapped to 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="consensim", description=__doc__)
    # a flag not given stays absent, so ExperimentConfig holds the only defaults
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--graph", required=True, dest="graph_path", metavar="GRAPH",
                        help="edge-list file")
    common.add_argument("--weights", dest="weights_path", metavar="WEIGHTS",
                        help="node weights file, one positive value per line")
    common.add_argument("--x0", dest="x0_path", metavar="X0",
                        help="initial state file, one value per line")
    common.add_argument("--epsilon", type=float, help="step size (default 0.9 * bound)")
    common.add_argument("--tol", type=float, help="disagreement tolerance")
    common.add_argument("--max-steps", type=int, help="step budget")
    common.add_argument("--mode", choices=("matrix", "agents"), help="execution mode for run")
    common.add_argument("--allow-uncertified", action="store_true",
                        help="run even when the hypotheses do not certify convergence")
    common.add_argument("--out", dest="out_dir", metavar="OUT",
                        help="output directory for trace and summary")
    common.add_argument("--snapshots", type=int, dest="snapshot_limit", metavar="SNAPSHOTS",
                        help="max recorded trace rows")
    common.add_argument("--seed", type=int, help="seed for the default initial state")

    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", parents=[common], help="report hypotheses and predictions")
    p_check.set_defaults(func=cmd_check)
    p_run = sub.add_parser("run", parents=[common], help="iterate to consensus, write outputs")
    p_run.set_defaults(func=cmd_run)
    p_compare = sub.add_parser(
        "compare", parents=[common], help="step both modes in lockstep, check every step bitwise"
    )
    p_compare.set_defaults(func=cmd_compare)
    return parser


def _load_problem(config: ExperimentConfig) -> tuple[WeightedSystem, np.ndarray, float]:
    graph = load_edge_list(config.graph_path)
    if config.weights_path is not None:
        w = read_vector_file(config.weights_path, graph.n, "weights")
    else:
        w = np.ones(graph.n, dtype=np.float64)
    system = build_system(graph, w)
    if config.x0_path is not None:
        x0 = read_vector_file(config.x0_path, graph.n, "x0")
    else:
        x0 = default_initial_state(graph.n, config.seed)
    eps = config.epsilon if config.epsilon is not None else default_epsilon(system)
    return system, x0, eps


def cmd_check(config, system, x0, eps) -> int:
    problems = certify(system, eps)
    d = system.d
    print(f"nodes: {system.n}")
    print(f"edges: {system.graph.m}")
    print(f"strongly_connected: {_fmt_bool(system.strongly_connected)}")
    print(f"undirected: {_fmt_bool(system.undirected)}")
    print(f"out_degree_min: {int(d.min())}")
    print(f"out_degree_max: {int(d.max())}")
    print(f"epsilon_bound: {_fmt(epsilon_bound(system))}")
    print(f"epsilon: {_fmt(eps)}")
    print(f"certified: {_fmt_bool(not problems)}")
    if system.strongly_connected:
        prediction = predict(system, x0)
        if system.n <= _MAX_INLINE_STATE:
            print(f"v: {_fmt_vector(prediction.v)}")
        else:
            print(f"v_min: {_fmt(prediction.v.min())}")
            print(f"v_max: {_fmt(prediction.v.max())}")
        print(f"v_route: {system.v_route}")
        print(f"predicted_alpha: {_fmt(prediction.alpha)}")
        print(f"rho_estimate: {_fmt(prediction.rho_estimate)}")
    if problems:
        print(f"hypotheses: violated ({'; '.join(problems)})")
        return EXIT_HYPOTHESIS
    print("hypotheses: ok")
    return EXIT_OK


def _write_trace_csv(path: Path, trace: RunTrace, n: int) -> None:
    if n <= _MAX_INLINE_STATE:
        columns, tails = [f"x_{i}" for i in range(n)], (x.tolist() for x in trace.states)
    else:
        columns, tails = ["x_min", "x_max"], zip(trace.x_min, trace.x_max)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["step", "disagreement", "conserved", *columns]) + "\n")
        # every tail entry is a Python float, whose repr is _fmt's
        for step, dis, cons, tail in zip(trace.steps, trace.disagreement, trace.conserved, tails):
            fh.write(",".join([str(step), _fmt(dis), _fmt(cons), *map(repr, tail)]) + "\n")


def _opt_float(value: float) -> float | None:
    # nan and inf have no JSON spelling; README writes unavailable values as null
    f = float(value)
    return f if math.isfinite(f) else None


def _summary_dict(system: WeightedSystem, eps: float, trace: RunTrace, mode: str) -> dict:
    v = system.v
    data: dict = {
        "n": system.n,
        "m": system.graph.m,
        "strongly_connected": system.strongly_connected,
        "undirected": system.undirected,
        "epsilon": float(eps),
        "epsilon_bound": _opt_float(epsilon_bound(system)),
        "certified": trace.certified,
        "predicted_alpha": _opt_float(trace.predicted_alpha),
        "v": [float(x) for x in v] if v is not None else None,
        "v_route": system.v_route,
    }
    if system.n <= _MAX_INLINE_STATE:
        data["final_state"] = [_opt_float(x) for x in trace.final_state]
    data["final_disagreement"] = _opt_float(trace.final_disagreement)
    data["conserved_drift"] = _opt_float(trace.conserved_drift)
    data["converged_at"] = trace.converged_at
    data["steps_run"] = trace.steps_run
    data["mode"] = mode
    return data


def _execute_run(
    config: ExperimentConfig, system: WeightedSystem, x0: np.ndarray, eps: float, **hooks
) -> RunTrace:
    try:
        return run(
            system,
            x0,
            eps,
            tol=config.tol,
            max_steps=config.max_steps,
            snapshot_limit=config.snapshot_limit,
            override_uncertified=config.allow_uncertified,
            **hooks,
        )
    except HypothesisViolation as exc:
        raise HypothesisViolation(f"{exc}; pass --allow-uncertified to run anyway") from None


def cmd_run(config, system, x0, eps) -> int:
    stepper = agent_stepper(system, x0, eps) if config.mode == "agents" else None
    trace = _execute_run(config, system, x0, eps, stepper=stepper)

    outdir = Path(config.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace_path = outdir / "trace.csv"
    summary_path = outdir / "summary.json"
    _write_trace_csv(trace_path, trace, system.n)
    summary = _summary_dict(system, eps, trace, config.mode)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    converged = trace.stop_reason == "converged"
    print(f"mode: {config.mode}")
    print(f"steps_run: {trace.steps_run}")
    print(f"converged_at: {trace.converged_at if converged else 'none'}")
    print(f"final_disagreement: {_fmt(trace.final_disagreement)}")
    if summary["predicted_alpha"] is not None:
        print(f"predicted_alpha: {_fmt(summary['predicted_alpha'])}")
    print(f"wrote: {trace_path}")
    print(f"wrote: {summary_path}")
    if trace.stop_reason == "diverged":
        print(
            f"state diverged at step {trace.steps_run}: disagreement is not finite",
            file=sys.stderr,
        )
    elif trace.stop_reason == "cycled":
        start = trace.steps_run - trace.cycle_period
        print(
            f"state at step {trace.steps_run} repeats step {start} exactly "
            f"(period {trace.cycle_period}): the disagreement never falls below "
            f"{_fmt(trace.cycle_floor)}",
            file=sys.stderr,
        )
    elif trace.stop_reason == "budget":
        print(f"did not converge within {config.max_steps} steps", file=sys.stderr)
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


class _Divergence(Exception):
    """The two modes' states first differ; the message names the step and node."""


def cmd_compare(config, system, x0, eps) -> int:
    agents = build_agents(system, x0)
    round_ = _network(agents, _step_size(eps))
    pack = struct.Struct(f"{system.n}d").pack
    published = [a.state for a in agents]

    def check_block(first: int, rows: np.ndarray) -> None:
        # one round per row after step 0, from the agents' own states, which
        # every earlier row has shown bitwise equal to the matrix's
        nonlocal published
        for steps, xm in enumerate(rows, first):
            if not steps:
                continue
            published = round_(published)
            packed = pack(*published)
            if packed != xm.tobytes():
                node = _first_difference(packed, xm)
                raise _Divergence(
                    f"first divergence: step {steps}, node {node} "
                    f"(matrix {_fmt(xm[node])}, agents {_fmt(published[node])})"
                )

    try:
        trace = _execute_run(config, system, x0, eps, on_block=check_block)
    except _Divergence as exc:
        print("traces identical: false")
        print(exc, file=sys.stderr)
        return EXIT_MISMATCH

    print(f"recorded_steps: {len(trace.steps)}")
    print(f"converged: {_fmt_bool(trace.converged_at is not None)}")
    print("traces identical: true")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        fields = vars(parser.parse_args(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    func = fields.pop("func")
    del fields["command"]
    try:
        config = ExperimentConfig(**fields)
        return func(config, *_load_problem(config))
    except (OSError, ValueError, MemoryError) as exc:
        # MemoryError: numpy refuses an array as long as the input's node count
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (HypothesisViolation, NullSpaceError, MessageProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


def entrypoint() -> None:
    raise SystemExit(main())
