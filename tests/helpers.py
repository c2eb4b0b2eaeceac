"""Shared random generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own computation routes:
reachability goes through a transitive-closure sweep instead of graph
search, Laplacians are assembled in integer arithmetic from the edge set,
iteration matrices are assembled as a whole-matrix expression instead of
entrywise ratios, stationary vectors come from a hand-written elimination on
the row-rescaled Laplacian instead of a LAPACK solve on the integer one, and
consensus values come from long plain matrix-vector products.
"""

from __future__ import annotations

import numpy as np

from consensim.engine import WeightedSystem, build_system, epsilon_bound
from consensim.graph import Digraph, is_strongly_connected
from consensim.linalg import NullSpaceError

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
