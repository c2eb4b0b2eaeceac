"""Shared random generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own computation routes:
reachability goes through a transitive-closure sweep instead of graph
search, Laplacians are assembled in integer arithmetic from the edge set,
iteration matrices are assembled as a whole-matrix expression instead of
entrywise ratios, stationary vectors come from a hand-written elimination on
the row-rescaled Laplacian or a dense power iteration instead of a LAPACK
solve on the integer one, and consensus values come from long plain
matrix-vector products.  The run loop's oracle is the engine's original
one-step-at-a-time loop, kept here as it was.  The GMRES route for v is
checked against the library's dense route, which the others check in turn.
The dense iteration matrix P, built entrywise from the same ratios eps / w_i
that matrix_stepper applies, lives here too; no library path builds it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from consensim.engine import (
    DEFAULT_MAX_STEPS,
    DEFAULT_SNAPSHOT_LIMIT,
    DEFAULT_TOL,
    RunTrace,
    WeightedSystem,
    _step_size,
    build_system,
    default_epsilon,
    epsilon_bound,
    matrix_stepper,
)
from consensim.graph import Digraph, is_strongly_connected
from consensim.linalg import NullSpaceError, as_vector, null_vector

_PIVOT_RTOL = 1e-10
_RESIDUAL_RTOL = 1e-10


def all_ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def random_digraph(
    rng: np.random.Generator,
    n_lo: int = 2,
    n_hi: int = 25,
    dens_lo: float = 0.2,
    dens_hi: float = 0.9,
    require_strong: bool = True,
) -> Digraph:
    """Random simple digraph; resamples until strongly connected when asked."""
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        dens = float(rng.uniform(dens_lo, dens_hi))
        pairs = all_ordered_pairs(n)
        keep = rng.random(len(pairs)) < dens
        g = Digraph(n=n, edges=frozenset(p for p, k in zip(pairs, keep) if k))
        if not require_strong or is_strongly_connected(g):
            return g


def random_undirected_digraph(
    rng: np.random.Generator,
    n_lo: int = 2,
    n_hi: int = 25,
    dens_lo: float = 0.2,
    dens_hi: float = 0.9,
) -> Digraph:
    """Random connected graph stored as a symmetric directed edge set."""
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        dens = float(rng.uniform(dens_lo, dens_hi))
        edges: set[tuple[int, int]] = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < dens:
                    edges.add((i, j))
                    edges.add((j, i))
        g = Digraph(n=n, edges=frozenset(edges))
        if is_strongly_connected(g):
            return g


def ring_with_chords(rng: np.random.Generator, n: int, chords: int) -> Digraph:
    """Directed ring i -> i + 1 plus `chords` distinct random chords from every node."""
    edges = set()
    for i in range(n):
        nxt = (i + 1) % n
        edges.add((i, nxt))
        targets: set[int] = set()
        while len(targets) < chords:
            j = int(rng.integers(n))
            if j not in (i, nxt):
                targets.add(j)
        edges.update((i, j) for j in targets)
    return Digraph(n=n, edges=frozenset(edges))


def dense_route_v(system: WeightedSystem) -> np.ndarray:
    """v as the dense route computes it: w * null_vector(L^T), rescaled."""
    v = system.w * null_vector(system.lap.T)
    return v / v.sum()


def random_weights(
    rng: np.random.Generator, n: int, lo: float = 0.1, hi: float = 10.0
) -> np.ndarray:
    return lo + (hi - lo) * rng.random(n)


def random_system(rng: np.random.Generator, **graph_kwargs) -> WeightedSystem:
    g = random_digraph(rng, **graph_kwargs)
    return build_system(g, random_weights(rng, g.n))


def adjacency_matrix(g: Digraph) -> np.ndarray:
    """Dense 0/1 adjacency matrix A with A[i, j] = 1 iff i listens to j."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j in g.edges:
        a[i, j] = 1
    return a.astype(np.float64)


def laplacian(g: Digraph) -> np.ndarray:
    """Graph Laplacian L = D - A as float64, assembled in integer arithmetic.

    D is the diagonal out-degree matrix, so every row of L sums to zero
    exactly and the diagonal equals the out-degree vector.
    """
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j in g.edges:
        lap[i, j] = -1
        lap[i, i] += 1
    return lap.astype(np.float64)


def strongly_connected_oracle(g: Digraph) -> bool:
    """Transitive-closure reachability: True iff the closure matrix is all-ones."""
    n = g.n
    reach = np.eye(n, dtype=bool)
    for i, j in g.edges:
        reach[i, j] = True
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    return bool(reach.all())


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


def iteration_matrix_oracle(system: WeightedSystem, eps: float) -> np.ndarray:
    """I - eps * W^{-1} (D - A) assembled as one matrix expression."""
    n = system.n
    a = np.zeros((n, n), dtype=np.float64)
    for i, j in system.graph.edges:
        a[i, j] = 1.0
    d = a.sum(axis=1)
    lap = np.diag(d) - a
    return np.eye(n) - eps * (lap / system.w[:, None])


def brute_force_iterate(p: np.ndarray, x0: np.ndarray, steps: int) -> np.ndarray:
    """Plain dense x <- P x loop, independent of the engine's delta-form update."""
    x = np.array(x0, dtype=np.float64)
    for _ in range(steps):
        x = p @ x
    return x


def dyadic_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Weights on the grid k/256 within [0.1015625, 10].

    Short mantissas keep products with 0.5, 3, and 100 exactly representable,
    which is what makes joint rescaling of (w, eps) exact in float64.
    """
    k = rng.integers(26, 2561, size=n)
    return k.astype(np.float64) / 256.0


def dyadic_epsilon(system: WeightedSystem, factor: float = 0.9) -> float:
    """Largest grid point k/65536 at or below factor * bound (at least 1/65536)."""
    bound = epsilon_bound(system)
    k = max(1, int(np.floor(factor * bound * 65536.0)))
    eps = k / 65536.0
    assert eps < bound
    return eps


def elimination_null_vector(m: np.ndarray) -> np.ndarray:
    """Unit-l1 positive null vector of m by Gaussian elimination with partial pivoting.

    The column of the single numerically negligible pivot becomes the free
    variable and back substitution fills in the rest.  Raises NullSpaceError
    when the number of negligible pivots is not exactly one, when the
    residual ||m v||_inf exceeds 1e-10 * ||m||_inf * ||v||_inf, or when the
    result is not entrywise positive.
    """
    original = np.asarray(m, dtype=np.float64)
    n = original.shape[0]
    u = original.copy()
    scale = float(np.max(np.sum(np.abs(original), axis=1)))
    pivot_tol = _PIVOT_RTOL * scale

    pivots = np.empty(n, dtype=np.float64)
    for k in range(n):
        p = k + int(np.argmax(np.abs(u[k:, k])))
        if p != k:
            u[[k, p], :] = u[[p, k], :]
        pivots[k] = abs(u[k, k])
        if u[k, k] != 0.0 and k + 1 < n:
            factors = u[k + 1 :, k] / u[k, k]
            u[k + 1 :, k:] -= np.outer(factors, u[k, k:])
            u[k + 1 :, k] = 0.0

    negligible = int(np.sum(pivots <= pivot_tol))
    if negligible == 0:
        raise NullSpaceError(
            "matrix is numerically nonsingular; expected a one-dimensional null space"
        )
    if negligible > 1:
        raise NullSpaceError(
            f"null space dimension at least {negligible}; "
            "expected exactly one (is the graph strongly connected?)"
        )

    free = int(np.argmin(pivots))
    v = np.zeros(n, dtype=np.float64)
    v[free] = 1.0
    for k in range(n - 1, -1, -1):
        if k == free:
            continue
        s = float(u[k, k + 1 :] @ v[k + 1 :])
        v[k] = -s / u[k, k]

    v /= float(np.sum(np.abs(v)))
    for entry in v:
        if entry != 0.0:
            if entry < 0.0:
                v = -v
            break

    residual = float(np.max(np.abs(original @ v)))
    if residual > _RESIDUAL_RTOL * scale * float(np.max(np.abs(v))):
        raise NullSpaceError(f"null vector residual {residual:.3e} exceeds tolerance")
    if float(v.min()) <= 0.0:
        raise NullSpaceError("null vector is not entrywise positive")
    return v


class PowerIterationResult(NamedTuple):
    """value is the Rayleigh quotient at the final iterate, vector the final
    iterate with unit l1 norm, converged whether successive iterates came
    within tol in l1 distance before max_iter."""

    value: float
    vector: np.ndarray
    converged: bool
    iterations: int


def power_iteration(m, x0, max_iter: int = 10_000, tol: float = 1e-13) -> PowerIterationResult:
    """Dominant eigenpair of a dense square matrix by repeated multiplication.

    Iterates x <- m x / ||m x||_1 from x0 until the l1 distance between
    successive iterates drops below tol or max_iter is reached.
    Non-convergence is reported in the result, not raised.
    """
    a = np.asarray(m, dtype=np.float64)
    x = np.asarray(x0, dtype=np.float64)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    norm = float(np.sum(np.abs(x)))
    if norm == 0.0:
        raise ValueError("starting vector must be nonzero")
    x = x / norm
    converged = False
    for iterations in range(1, max_iter + 1):
        y = a @ x
        ynorm = float(np.sum(np.abs(y)))
        if ynorm == 0.0:
            # x landed in the null space; the estimate below is still defined
            x = y
            break
        y = y / ynorm
        delta = float(np.sum(np.abs(y - x)))
        x = y
        if delta < tol:
            converged = True
            break
    xx = float(x @ x)
    value = float(x @ (a @ x)) / xx if xx > 0.0 else 0.0
    return PowerIterationResult(value, x, converged, iterations)


def assert_same_run(trace: RunTrace, ref: RunTrace) -> None:
    """The recorded rows, stopping step and step count agree bit for bit."""
    assert trace.steps == ref.steps
    assert [x.tobytes() for x in trace.states] == [x.tobytes() for x in ref.states]
    assert np.array(trace.disagreement).tobytes() == np.array(ref.disagreement).tobytes()
    assert np.array(trace.conserved).tobytes() == np.array(ref.conserved).tobytes()
    assert trace.converged_at == ref.converged_at
    assert trace.steps_run == ref.steps_run


class _ReferenceSampler:
    """Stride-doubling trace thinning, offered every step of the run."""

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


def reference_run(
    system: WeightedSystem,
    x0,
    epsilon: float | None = None,
    *,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
    snapshot_limit: int = DEFAULT_SNAPSHOT_LIMIT,
    stepper: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RunTrace:
    """engine.run's stopping rule and trace, one step and one check at a time.

    Each step's disagreement, v . x, conserved min/max and sampler offer are
    computed before the next step is taken, so this is the plain reading of
    the loop that engine.run evaluates a block of steps at a time.  It does
    not validate its arguments or refuse uncertified configurations.
    """
    x = as_vector(x0, system.n).copy()
    eps = float(epsilon) if epsilon is not None else default_epsilon(system)
    v = system.v
    alpha = float(v @ x) if v is not None else math.nan

    if stepper is None:
        stepper = matrix_stepper(system, eps)

    x0_scale = float(np.max(np.abs(x))) if system.n else 0.0
    drift_denom = x0_scale if x0_scale > 0.0 else 1.0

    sampler = _ReferenceSampler(snapshot_limit)
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
