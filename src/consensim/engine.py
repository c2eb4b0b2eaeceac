"""Weighted-consensus engine: certification, iteration matrix, runs, predictions.

The update rule is x(k+1) = P x(k) with P = I - eps * L_w, where
L_w = W^{-1} L scales each Laplacian row by the inverse node weight.  When
the graph is strongly connected and 0 < eps < min_i w_i / d_i, P is
primitive row-stochastic and the state converges to a consensus value
alpha = v . x(0), where v is the positive unit-l1 null vector of L_w^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .graph import Digraph, is_strongly_connected, is_undirected, out_degrees
from .linalg import as_vector, null_vector, power_iteration

DEFAULT_EPSILON_FACTOR = 0.9
DEFAULT_TOL = 1e-10
DEFAULT_MAX_STEPS = 1_000_000
DEFAULT_SNAPSHOT_LIMIT = 1000
# step size used when the bound is infinite (graph without edges)
FALLBACK_EPSILON = 1.0

_POWER_TOL = 1e-13
_POWER_MAX_ITER = 20_000


class HypothesisViolation(RuntimeError):
    """A convergence-theorem hypothesis required by the operation does not hold."""


@dataclass(frozen=True)
class WeightedSystem:
    """A digraph with positive node weights and the facts that depend on them alone.

    listeners/sources are the edges as parallel index arrays sorted by
    (listener, source); this fixed ascending order is the canonical
    summation order shared with the message-passing simulator, which is what
    keeps the two execution paths bit-identical.  The graph-only facts
    (strong connectivity, undirectedness, the stationary vector v) do not
    depend on the step size, so each is computed at most once per instance.
    Treat instances as immutable; the arrays are not defensively copied.
    """

    graph: Digraph
    w: np.ndarray
    d: np.ndarray
    listeners: np.ndarray
    sources: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def lap(self) -> np.ndarray:
        """Dense integer-valued Laplacian L = D - A as float64, built on each access."""
        lap = np.zeros((self.n, self.n), dtype=np.float64)
        lap[self.listeners, self.sources] = -1.0
        lap[np.diag_indices(self.n)] = self.d
        return lap

    @property
    def lap_w(self) -> np.ndarray:
        """Dense W^{-1} L (Laplacian row i divided by w[i]), built on each access."""
        return self.lap / self.w[:, None]

    @cached_property
    def strongly_connected(self) -> bool:
        return is_strongly_connected(self.graph)

    @cached_property
    def undirected(self) -> bool:
        return is_undirected(self.graph)

    @cached_property
    def v(self) -> np.ndarray | None:
        """Positive unit-l1 null vector of L_w^T, or None when the graph is not
        strongly connected.

        Solved on the integer Laplacian, which keeps the weight spread out of
        the matrix: L^T u = 0 gives L_w^T (W u) = 0, so v is W u rescaled.
        Raises NullSpaceError when the solve's postconditions fail.
        """
        if not self.strongly_connected:
            return None
        v = self.w * null_vector(self.lap.T)
        return v / v.sum()


def build_system(graph: Digraph, w) -> WeightedSystem:
    """Validate weights and precompute the edge arrays for a weighted system."""
    wv = as_vector(w, graph.n).copy()
    if wv.size and float(wv.min()) <= 0.0:
        raise ValueError("node weights must be strictly positive")
    edge_list = sorted(graph.edges)
    listeners = np.array([i for i, _ in edge_list], dtype=np.intp)
    sources = np.array([j for _, j in edge_list], dtype=np.intp)
    return WeightedSystem(
        graph=graph, w=wv, d=out_degrees(graph), listeners=listeners, sources=sources
    )


def epsilon_bound(system: WeightedSystem) -> float:
    """Largest certified step size: min over nodes with out-degree > 0 of w_i / d_i.

    Returns +inf for a graph without edges (any step size leaves the state
    fixed).
    """
    active = system.d > 0
    if not bool(active.any()):
        return math.inf
    return float(np.min(system.w[active] / system.d[active]))


def default_epsilon(system: WeightedSystem) -> float:
    """0.9 times the certified bound, or 1.0 when the bound is infinite."""
    bound = epsilon_bound(system)
    if math.isinf(bound):
        return FALLBACK_EPSILON
    return DEFAULT_EPSILON_FACTOR * bound


def _step_size(epsilon: float) -> float:
    eps = float(epsilon)
    if not math.isfinite(eps) or eps <= 0.0:
        raise ValueError("epsilon must be positive and finite")
    return eps


def certify(system: WeightedSystem, epsilon: float) -> list[str]:
    """The convergence-theorem hypotheses that fail for this step size.

    The hypotheses are a strongly connected graph and epsilon strictly below
    the degree bound; an empty list means the configuration is certified.
    Raises ValueError when epsilon is not positive and finite.
    """
    eps = _step_size(epsilon)
    bound = epsilon_bound(system)
    failed = []
    if not system.strongly_connected:
        failed.append("graph is not strongly connected")
    if not eps < bound:
        failed.append(f"epsilon {eps!r} is not strictly below the bound {bound!r}")
    return failed


def build_iteration_matrix(system: WeightedSystem, epsilon: float) -> np.ndarray:
    """Assemble the dense iteration matrix P = I - eps * L_w entrywise.

    Each row uses the ratio eps / w_i computed first, so off-diagonal
    entries are exactly fl(eps / w_i) and the diagonal is
    fl(1 - fl(ratio * d_i)).  Starting from the ratio makes the matrix
    invariant under jointly scaling (w, eps) by any constant whose products
    round exactly, and within a couple of ulps otherwise.
    """
    eps = _step_size(epsilon)
    n = system.n
    ratios = eps / system.w
    p = np.zeros((n, n), dtype=np.float64)
    if system.listeners.size:
        p[system.listeners, system.sources] = ratios[system.listeners]
    idx = np.arange(n)
    p[idx, idx] = 1.0 - ratios * system.d
    return p


def transposed_iteration_operator(
    system: WeightedSystem, epsilon: float
) -> Callable[[np.ndarray], np.ndarray]:
    """The product x -> P^T x over the edge arrays, without the dense P.

    (P^T x)_j = P_jj x_j + sum over edges i -> j of (eps / w_i) x_i, with
    exactly the entries build_iteration_matrix writes: the ratio eps / w_i
    off the diagonal and fl(1 - fl(ratio * d_j)) on it.  One np.bincount
    per product makes it O(n + m); only the summation order differs from
    the dense product.  Each call returns a new array.
    """
    eps = _step_size(epsilon)
    ratios = eps / system.w
    diagonal = 1.0 - ratios * system.d
    listeners = system.listeners
    sources = system.sources
    n = system.n

    def apply(x: np.ndarray) -> np.ndarray:
        scaled = ratios * x
        y = np.bincount(sources, weights=scaled[listeners], minlength=n)
        y += diagonal * x
        return y

    return apply


@dataclass(frozen=True)
class SpectralPrediction:
    """Closed-form prediction for a certified system.

    v is the positive unit-l1 null vector of L_w^T (the conserved functional),
    alpha = v . x0 is the predicted consensus value, and rho_estimate is a
    power-iteration estimate of the spectral radius of P (1.0 up to numerics
    for a certified system), iterated on P^T over the edge arrays.
    """

    v: np.ndarray
    alpha: float
    rho_estimate: float


def predict(system: WeightedSystem, x0, epsilon: float | None = None) -> SpectralPrediction:
    """Predict the consensus value without iterating.

    Requires a strongly connected graph.  epsilon only affects the
    rho_estimate diagnostic; when omitted or not certified, the default
    step size is used for that estimate.  The diagnostic is a power
    iteration with transposed_iteration_operator, O(n + m) per iteration;
    no dense matrix is built.
    """
    x = as_vector(x0, system.n)
    v = system.v
    if v is None:
        raise HypothesisViolation("graph is not strongly connected")
    alpha = float(v @ x)
    bound = epsilon_bound(system)
    eps = float(epsilon) if epsilon is not None else default_epsilon(system)
    if not (0.0 < eps < bound):
        eps = default_epsilon(system)
    start = np.full(system.n, 1.0 / system.n)
    pr = power_iteration(
        transposed_iteration_operator(system, eps), start, max_iter=_POWER_MAX_ITER, tol=_POWER_TOL
    )
    return SpectralPrediction(v=v, alpha=alpha, rho_estimate=pr.value)


def matrix_stepper(system: WeightedSystem, epsilon: float) -> Callable[[np.ndarray], np.ndarray]:
    """One synchronous update as a callable on state vectors.

    Evaluates x_i + (eps / w_i) * sum_j (x_j - x_i) over edges in ascending
    (listener, source) order; np.bincount accumulates each node's sum left
    to right, reproducing the simulator's per-agent loop bit for bit.
    """
    ratios = epsilon / system.w
    listeners = system.listeners
    sources = system.sources
    n = system.n

    def step(x: np.ndarray) -> np.ndarray:
        diffs = x[sources] - x[listeners]
        sums = np.bincount(listeners, weights=diffs, minlength=n)
        return x + ratios * sums

    return step


class _SnapshotSampler:
    """Stride-doubling trace thinning: deterministic, keeps first and final rows.

    Records every stride-th step; when the buffer would exceed the limit the
    stride doubles and already-recorded rows are rethinned, so the kept steps
    are always the multiples of a single power of two plus the final step.
    """

    def __init__(self, limit: int):
        self.limit = max(2, int(limit))
        self.stride = 1
        self.rows: list[tuple[int, np.ndarray, float, float]] = []

    def offer(self, step: int, x: np.ndarray, dis: float, cons: float) -> None:
        if step % self.stride:
            return
        self.rows.append((step, x.copy(), dis, cons))
        while len(self.rows) > self.limit - 1:
            self.stride *= 2
            self.rows = [row for row in self.rows if row[0] % self.stride == 0]

    def finish(self, step: int, x: np.ndarray, dis: float, cons: float) -> None:
        if self.rows and self.rows[-1][0] == step:
            return
        self.rows.append((step, x.copy(), dis, cons))


@dataclass(frozen=True)
class RunTrace:
    """Recorded trajectory of a consensus run.

    steps holds the recorded step indices (downsampled, always including 0
    and the final step); states, disagreement, and conserved are parallel to
    it.  converged_at is the first step whose disagreement dropped below the
    tolerance, or None when the budget ran out or the state diverged first;
    a diverged run ends at the first step whose disagreement is not finite.
    conserved_drift is the spread of the conserved quantity over every step
    of the run, recorded or not, relative to max|x0| (nan when the conserved
    functional is unavailable or a conserved value is not finite).
    """

    steps: list[int]
    states: list[np.ndarray]
    disagreement: list[float]
    conserved: list[float]
    predicted_alpha: float
    converged_at: int | None
    steps_run: int
    conserved_drift: float

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_disagreement(self) -> float:
        return self.disagreement[-1]


def run(
    system: WeightedSystem,
    x0,
    epsilon: float | None = None,
    *,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
    snapshot_limit: int = DEFAULT_SNAPSHOT_LIMIT,
    override_uncertified: bool = False,
    stepper: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RunTrace:
    """Iterate the consensus update until the disagreement max(x) - min(x)
    falls below tol, stops being finite, or max_steps updates have been
    applied.

    Refuses to run an uncertified configuration (epsilon at or above the
    bound, or a graph that is not strongly connected) unless
    override_uncertified is set; uncertified runs carry no guarantee and may
    diverge.  On a strongly connected graph the conserved functional v . x
    and the predicted consensus value are tracked; otherwise those fields
    are nan.

    stepper replaces the built-in matrix update with any callable mapping a
    state vector to the next state; the run loop, stopping rule, and trace
    recording are unchanged, which is how the message-passing simulator is
    driven through the identical reporting path.
    """
    x = as_vector(x0, system.n).copy()
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    eps = float(epsilon) if epsilon is not None else default_epsilon(system)
    if certify(system, eps) and not override_uncertified:
        raise HypothesisViolation(
            "configuration is not certified (epsilon at or above the bound, or graph "
            "not strongly connected)"
        )

    v = system.v
    alpha = float(v @ x) if v is not None else math.nan

    if stepper is None:
        stepper = matrix_stepper(system, eps)

    x0_scale = float(np.max(np.abs(x))) if system.n else 0.0
    drift_denom = x0_scale if x0_scale > 0.0 else 1.0

    sampler = _SnapshotSampler(snapshot_limit)
    cons_min = math.inf
    cons_max = -math.inf
    converged_at: int | None = None
    k = 0
    # an uncertified run may overflow; the loop detects that itself, so
    # numpy's overflow and invalid-value warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            dis = float(x.max() - x.min())
            if v is not None:
                cons = float(v @ x)
                cons_min = min(cons_min, cons)
                cons_max = max(cons_max, cons)
            else:
                cons = math.nan
            sampler.offer(k, x, dis, cons)
            if dis < tol:
                converged_at = k
                break
            if not math.isfinite(dis):
                # diverged: no later step can bring the state back below tol
                break
            if k >= max_steps:
                break
            x = stepper(x)
            k += 1
    sampler.finish(k, x, dis, cons)

    # min/max skip nan, so a non-finite conserved value must void the drift;
    # only the last one can be, since a non-finite v . x means a non-finite
    # state, whose disagreement ends the loop
    drift = (cons_max - cons_min) / drift_denom if math.isfinite(cons) else math.nan
    return RunTrace(
        steps=[row[0] for row in sampler.rows],
        states=[row[1] for row in sampler.rows],
        disagreement=[row[2] for row in sampler.rows],
        conserved=[row[3] for row in sampler.rows],
        predicted_alpha=alpha,
        converged_at=converged_at,
        steps_run=k,
        conserved_drift=drift,
    )


def limit_matrix(system: WeightedSystem, epsilon: float | None = None) -> np.ndarray:
    """Limit of P^k for a certified system: every row equals v.

    With v the positive unit-l1 null vector of L_w^T, the powers of P
    converge to the rank-one matrix with constant rows v, so the limit state
    is (v . x0) in every coordinate.
    """
    eps = float(epsilon) if epsilon is not None else default_epsilon(system)
    if certify(system, eps):
        raise HypothesisViolation(
            "limit matrix requires a certified system (strongly connected graph and "
            "epsilon strictly below the bound)"
        )
    return np.tile(system.v, (system.n, 1))


def undirected_alpha(system: WeightedSystem, x0) -> float:
    """Consensus value on a connected undirected graph: sum(w x0) / sum(w).

    The conserved direction is proportional to the weight vector itself
    there, so no eigenvector computation is needed.
    """
    x = as_vector(x0, system.n)
    if not system.undirected:
        raise HypothesisViolation("closed-form weighted mean requires an undirected graph")
    if not system.strongly_connected:
        raise HypothesisViolation("closed-form weighted mean requires a connected graph")
    return float((system.w @ x) / np.sum(system.w))
