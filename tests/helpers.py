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
checked against the library's dense route, which the others check in turn;
the dense route itself serves v only where GMRES is rejected.
The dense iteration matrix P, built entrywise from the same ratios eps / w_i
that matrix_stepper applies, lives here too; no library path builds it.
The CLI's default initial state is checked against its original per-node
splitmix64 loop in Python integers.  The edge-list and vector-file readers
are checked against their original line loops, kept here as they were.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

import numpy as np

from consensim.engine import (
    DEFAULT_MAX_STEPS,
    DEFAULT_SNAPSHOT_LIMIT,
    DEFAULT_TOL,
    _MAX_INLINE_STATE,
    RunTrace,
    WeightedSystem,
    _step_size,
    build_system,
    certify,
    default_epsilon,
    epsilon_bound,
    matrix_stepper,
)
from consensim.graph import Digraph, GraphFormatError, is_strongly_connected
from consensim.linalg import NullSpaceError, as_vector, null_vector

_PIVOT_RTOL = 1e-10
_RESIDUAL_RTOL = 1e-10
_MASK64 = (1 << 64) - 1


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


def back_edge_cycle(n: int) -> Digraph:
    """Directed cycle i -> i + 1 with a back edge i -> i - 1 at every seventh node.

    Restarted GMRES still has a residual near 1e-6 on it after its last
    cycle at a few hundred nodes, so v falls back on the dense route.
    """
    edges = {(i, (i + 1) % n) for i in range(n)} | {(i, (i - 1) % n) for i in range(0, n, 7)}
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


def default_initial_state_oracle(n: int, seed: int) -> np.ndarray:
    """cli.default_initial_state's original splitmix64 loop: one Python int per node."""
    state = seed & _MASK64
    out = np.empty(n, dtype=np.float64)
    for k in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        out[k] = float(z >> 11) * 2.0**-53
    return out


def _int_token(token: str, lineno: int) -> int:
    # only plain nonnegative decimals; rejects signs, underscores, unicode digits
    if not (token.isascii() and token.isdigit()):
        raise GraphFormatError(f"line {lineno}: not a nonnegative integer: {token!r}")
    return int(token)


def parse_edge_list_oracle(source: str | Iterable[str]) -> Digraph:
    """graph.parse_edge_list's original loop: one line, one set lookup at a time.

    Its accepted inputs, node counts, edge sets and error messages (line
    number included) are the contract the bulk reader keeps.
    """
    lines: Iterable[str] = source.splitlines() if isinstance(source, str) else source
    declared: int | None = None
    edges: set[tuple[int, int]] = set()
    max_index = -1
    header_slot_open = True
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header_slot_open:
            header_slot_open = False
            if tokens[0] == "nodes":
                if len(tokens) != 2:
                    raise GraphFormatError(f"line {lineno}: header must be 'nodes <n>'")
                declared = _int_token(tokens[1], lineno)
                if declared < 1:
                    raise GraphFormatError(f"line {lineno}: node count must be at least 1")
                continue
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected '<from> <to>', got {line!r}")
        i = _int_token(tokens[0], lineno)
        j = _int_token(tokens[1], lineno)
        if i == j:
            raise GraphFormatError(f"line {lineno}: self-loop on node {i}")
        if declared is not None and (i >= declared or j >= declared):
            raise GraphFormatError(
                f"line {lineno}: edge ({i}, {j}) exceeds declared node count {declared}"
            )
        if (i, j) in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({i}, {j})")
        edges.add((i, j))
        max_index = max(max_index, i, j)
    n = declared if declared is not None else max_index + 1
    if n < 1:
        raise GraphFormatError("no edges and no 'nodes <n>' header; node count is undefined")
    return Digraph(n=n, edges=frozenset(edges))


def read_vector_file_oracle(path, n: int, label: str) -> np.ndarray:
    """graph.read_vector_file's original loop: one line, one float() at a time."""
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                # float() also reads digit separators and non-ASCII digits,
                # which are no plain decimals; the edge-list parser rejects
                # them too
                if not line.isascii() or "_" in line:
                    raise ValueError
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{label} file line {lineno}: not a number: {line!r}") from None
    if len(values) != n:
        raise ValueError(f"{label} file has {len(values)} values, expected {n}")
    vec = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{label} file has non-finite entries")
    return vec


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
    """The recorded rows, final state, stopping step and step count agree bit for bit."""
    assert trace.steps == ref.steps
    assert [x.tobytes() for x in trace.states] == [x.tobytes() for x in ref.states]
    for column in ("disagreement", "conserved", "x_min", "x_max"):
        got, want = getattr(trace, column), getattr(ref, column)
        assert np.array(got).tobytes() == np.array(want).tobytes(), column
    assert trace.final_state.tobytes() == ref.final_state.tobytes()
    assert trace.certified == ref.certified
    assert trace.converged_at == ref.converged_at
    assert trace.stop_reason == ref.stop_reason
    assert trace.steps_run == ref.steps_run


class _ReferenceSampler:
    """Stride-doubling trace thinning, offered every step of the run."""

    def __init__(self, limit: int):
        self.limit = max(2, int(limit))
        self.stride = 1
        self.rows: list[tuple[int, np.ndarray, float, float, float, float]] = []

    def offer(self, step: int, x: np.ndarray, dis: float, cons: float) -> None:
        if step % self.stride:
            return
        self.rows.append((step, x.copy(), dis, cons, float(x.min()), float(x.max())))
        while len(self.rows) > self.limit - 1:
            self.stride *= 2
            self.rows = [row for row in self.rows if row[0] % self.stride == 0]

    def finish(self, step: int, x: np.ndarray, dis: float, cons: float) -> None:
        if self.rows and self.rows[-1][0] == step:
            return
        self.rows.append((step, x.copy(), dis, cons, float(x.min()), float(x.max())))


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
    the loop that engine.run evaluates a block of steps at a time.  Like
    engine.run it keeps the recorded states only up to _MAX_INLINE_STATE
    nodes.  It does not validate its arguments or refuse uncertified
    configurations.
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
                stop_reason = "converged"
                break
            if not math.isfinite(dis) and not np.isfinite(x).all():
                # diverged: no later step can bring the state back below tol
                stop_reason = "diverged"
                break
            if k >= max_steps:
                stop_reason = "budget"
                break
            x = stepper(x)
            k += 1
    sampler.finish(k, x, dis, cons)

    # min/max skip nan, so a non-finite conserved value must void the drift;
    # only the last one can be, since a non-finite v . x means a non-finite
    # state, which ends the loop
    drift = (cons_max - cons_min) / drift_denom if math.isfinite(cons) else math.nan
    return RunTrace(
        steps=[row[0] for row in sampler.rows],
        states=[row[1] for row in sampler.rows] if system.n <= _MAX_INLINE_STATE else [],
        disagreement=[row[2] for row in sampler.rows],
        conserved=[row[3] for row in sampler.rows],
        x_min=[row[4] for row in sampler.rows],
        x_max=[row[5] for row in sampler.rows],
        final_state=x.copy(),
        predicted_alpha=alpha,
        converged_at=converged_at,
        steps_run=k,
        conserved_drift=drift,
        certified=not certify(system, eps),
        stop_reason=stop_reason,
    )
