"""Weighted-consensus engine: certification, the stepper, runs, predictions.

The update rule is x(k+1) = P x(k) with P = I - eps * L_w, where
L_w = W^{-1} L scales each Laplacian row by the inverse node weight.  When
the graph is strongly connected and 0 < eps < min_i w_i / d_i, P is
primitive row-stochastic and the state converges to a consensus value
alpha = v . x(0), where v is the positive unit-l1 null vector of L_w^T.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .graph import Digraph, _transpose, is_strongly_connected
from .linalg import as_vector, gmres_null_vector, null_vector

DEFAULT_EPSILON_FACTOR = 0.9
DEFAULT_TOL = 1e-10
DEFAULT_MAX_STEPS = 1_000_000
DEFAULT_SNAPSHOT_LIMIT = 1000
# step size used when the bound is infinite (graph without edges)
FALLBACK_EPSILON = 1.0

# run steps into a buffer of at most this many rows, and at most this many
# floats (256 KiB); a block also ends at the cycle test's next save step
_BLOCK_ROWS = 256
_BLOCK_FLOATS = 32768

# above this many nodes a run keeps no recorded states but the final one, and
# the outputs print a vector's extremes, not the vector
_MAX_INLINE_STATE = 64


class HypothesisViolation(RuntimeError):
    """A convergence-theorem hypothesis required by the operation does not hold."""


@dataclass(frozen=True, eq=False)
class WeightedSystem:
    """A digraph with positive node weights and the facts that depend on them alone.

    listeners/sources are the edges as parallel index arrays sorted by
    (listener, source): views of the graph's own sorted columns, not copies.
    This fixed ascending order is the canonical summation order shared with
    the message-passing simulator, which is what keeps the two execution
    paths bit-identical.  d is read from these arrays.  The graph-only facts
    (strong connectivity, undirectedness as G equal to its transpose, the
    stationary vector v) do not depend on the step size, so each is computed
    at most once per instance.
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
        balanced = (np.bincount(self.sources, minlength=self.n) == self.d).all()
        return bool(balanced) and _transpose(self.graph) == self.graph

    @cached_property
    def _stationary(self) -> tuple[np.ndarray | None, str | None]:
        if not self.strongly_connected:
            return None, None
        v, route = self.w, "weights"
        if not self.undirected:
            u, route = gmres_null_vector(self.d, self.listeners, self.sources), "gmres"
            if u is None:
                u, route = null_vector(self.lap.T), "dense"
            v = self.w * u
        with np.errstate(over="ignore"):
            if math.isinf(v.sum()):
                # a power of two changes no ratio and brings the sum below inf
                v = np.ldexp(v, -int(np.frexp(v.max())[1]))
        return v / v.sum(), route

    @property
    def v(self) -> np.ndarray | None:
        """Positive unit-l1 null vector of L_w^T, or None when the graph is not
        strongly connected.  Computed once per instance, by the route that
        v_route names, and normalised once for every route: scaled by a power
        of two when its sum overflows, then divided by its sum.

        On an undirected graph L is symmetric, so L^T 1 = 0 and v = w / sum(w)
        exactly, with no solve ("weights").  Otherwise v is solved on the
        integer Laplacian, which keeps the weight spread out of the matrix:
        L^T u = 0 gives L_w^T (W u) = 0, so v is W u rescaled.  u comes
        from restarted GMRES over the edge arrays, O(n + m) memory ("gmres");
        only when that result fails its positivity or componentwise-residual
        test does u come from the dense bordered LAPACK solve ("dense"), which
        raises NullSpaceError when its postconditions fail.
        """
        return self._stationary[0]

    @property
    def v_route(self) -> str | None:
        """How v was computed: "weights", "gmres" or "dense"; None when v is None."""
        return self._stationary[1]


def build_system(graph: Digraph, w) -> WeightedSystem:
    """Validate weights and take the edge arrays as views of the graph's sorted columns."""
    wv = as_vector(w, graph.n).copy()
    if wv.size and float(wv.min()) <= 0.0:
        raise ValueError("node weights must be strictly positive")
    listeners, sources = graph._edge_array.T
    d = np.bincount(listeners, minlength=graph.n)
    return WeightedSystem(graph=graph, w=wv, d=d, listeners=listeners, sources=sources)


def epsilon_bound(system: WeightedSystem) -> float:
    """The least rounded quotient fl(w_i / d_i) over nodes with out-degree > 0.

    It may lie an ulp either side of the least w_i / d_i; certify decides an
    eps equal to it exactly.  Returns +inf for a graph without edges (any step
    size leaves the state fixed).
    """
    active = system.d > 0
    return float(np.min(system.w[active] / system.d[active], initial=math.inf))


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
    below = eps < bound
    if eps == bound:
        # division rounds to nearest: eps < w_i / d_i is in doubt only where fl(w_i / d_i) == eps
        from fractions import Fraction  # only for a tie, so no command starts up importing it
        tied = system.w / np.maximum(system.d, 1) == eps
        pairs = zip(system.w[tied].tolist(), system.d[tied].tolist())
        below = all(Fraction(eps) * d < Fraction(w) for w, d in pairs)
    if not below:
        failed.append(f"epsilon {eps!r} is not strictly below the bound {bound!r}")
    return failed


@dataclass(frozen=True, eq=False)
class SpectralPrediction:
    """Closed-form prediction for a certified system.

    v is the positive unit-l1 null vector of L_w^T (the conserved functional),
    alpha = v . x0 is the predicted consensus value, and rho_estimate is the
    Rayleigh quotient v . (P v) / (v . v) at the default step size: one
    power-iteration step for the spectral radius of P, started from v.
    v^T L_w = 0 makes it 1 - eps * (v^T L_w v) / (v^T v) = 1 for every step
    size, so it is 1.0 up to rounding and checks that v is a fixed point of
    the iteration.
    """

    v: np.ndarray
    alpha: float
    rho_estimate: float


def predict(system: WeightedSystem, x0) -> SpectralPrediction:
    """Predict the consensus value without iterating.

    Requires a strongly connected graph.  The rho_estimate diagnostic is one
    product of matrix_stepper's edge-list update at the default step size
    with v, O(n + m); no dense matrix is built.
    """
    x = as_vector(x0, system.n)
    v = system.v
    if v is None:
        raise HypothesisViolation("graph is not strongly connected")
    alpha = float(v @ x)
    rho = float(v @ matrix_stepper(system, default_epsilon(system))(v)) / float(v @ v)
    return SpectralPrediction(v=v, alpha=alpha, rho_estimate=rho)


def matrix_stepper(system: WeightedSystem, epsilon: float) -> Callable[..., np.ndarray]:
    """One synchronous update as a callable step(x, out=None) on state vectors.

    Evaluates x_i + (eps / w_i) * sum_j (x_j - x_i) over edges in ascending
    (listener, source) order and returns it, written into out when given (out
    may be x itself).  Raises ValueError when epsilon is not positive and
    finite.  Each call runs run's block loop over the single row out.
    Each node's sum runs left to right over its sources, as the
    simulator's per-agent loop does, by one of two folds:

    - when every node listens to the same number d >= 1 of sources, a
      column fold: the sources reshaped to d contiguous columns, column k
      holding each node's k-th source, built once (one m-length index
      table); each step gathers and adds one column at a time;
    - otherwise np.bincount over the edges.

    np.bincount and the agents' loop start each sum at 0.0 and add the
    first term to it; the column fold starts at the first term.  0.0 + t
    equals t except that it turns t = -0.0 into +0.0, so the two running
    sums differ, -0.0 against +0.0, only while every term so far is -0.0,
    and agree from the first other term on.  So the folds can differ only
    in the sign of a zero sum, and only when every term is -0.0.  A term
    x_j - x_i is -0.0 only when x_i = +0.0, so the update x_i + r * (+-0.0)
    is +0.0 either way: the two folds, and the agents, step bit for bit
    alike.
    """
    advance = _advance(system, _step_size(epsilon))
    return lambda x, out=None: advance(x, (out,))


def _advance(system: WeightedSystem, eps: float) -> Callable[..., np.ndarray]:
    # advance(x, rows) steps x into each row in turn and returns the last state
    ratios = eps / system.w
    listeners, sources, d, n = system.listeners, system.sources, system.d, system.n

    if d[0] > 0 and (d == d[0]).all():
        first, *rest = np.ascontiguousarray(sources.reshape(n, int(d[0])).T)

        def advance(x: np.ndarray, rows) -> np.ndarray:
            for out in rows:
                sums = x[first] - x
                for column in rest:
                    t = x[column]
                    t -= x
                    sums += t
                sums *= ratios
                x = np.add(x, sums, out)
            return x

    else:

        def advance(x: np.ndarray, rows) -> np.ndarray:
            for out in rows:
                sums = np.bincount(listeners, weights=x[sources] - x[listeners], minlength=n)
                # out of place: without edges np.bincount returns int64 zeros
                x = np.add(x, ratios * sums, out)
            return x

    return advance


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Recorded trajectory of a consensus run.

    steps holds the recorded step indices (downsampled, always including 0
    and the final step); disagreement, conserved, x_min and x_max are
    parallel to it, and so is states up to _MAX_INLINE_STATE nodes (empty
    above).  final_state is the state at steps_run; certified says whether
    the hypotheses held.  converged_at is the first step whose disagreement
    dropped below the tolerance, or None when the run ended otherwise; a
    diverged run ends at the first step whose state has a non-finite entry.
    A finite state whose disagreement overflows to inf has not diverged.
    stop_reason says how the run ended: "converged", "diverged", "cycled"
    or "budget".  A cycled run ends at the first step whose state repeats,
    bitwise, the one run saved last (see run); cycle_period is the distance
    between the two steps, the exact period of the cycle, and cycle_floor
    the least disagreement on that cycle, below which no later step can
    fall.  Both are None unless the run cycled.  conserved_drift is the
    spread of the conserved quantity over every step of the run, recorded
    or not, relative to max|x0| (nan when the conserved functional is
    unavailable or a conserved value is not finite).  The drift's extremes
    come from one matrix-vector product per block of steps, so they can
    differ from a per-step v . x in the last bits; each recorded conserved
    value is the per-step v . x of its state.
    """

    steps: list[int]
    states: list[np.ndarray]
    disagreement: list[float]
    conserved: list[float]
    x_min: list[float]
    x_max: list[float]
    final_state: np.ndarray
    predicted_alpha: float
    converged_at: int | None
    steps_run: int
    conserved_drift: float
    certified: bool
    stop_reason: str
    cycle_period: int | None = None
    cycle_floor: float | None = None

    @property
    def final_disagreement(self) -> float:
        return self.disagreement[-1]


def _check_limits(tol: float, max_steps: int, snapshot_limit: int) -> tuple[int, int]:
    """max_steps and snapshot_limit as ints; TypeError for 2.5, not deep in run's loop."""
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be positive and finite")
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    if not snapshot_limit >= 2:
        raise ValueError("snapshots must be at least 2")
    return operator.index(max_steps), operator.index(snapshot_limit)


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
    on_block: Callable[[int, np.ndarray], None] | None = None,
) -> RunTrace:
    """Iterate the consensus update until the disagreement max(x) - min(x)
    falls below tol, the state diverges (an entry stops being finite), the
    state repeats an earlier one bitwise (it cycles), or max_steps updates
    have been applied.

    One float step is a deterministic map on a finite set of states, so a
    run that cannot reach tol ends in an exact cycle.  Brent's test finds it
    with one saved state: the state at each of the steps 0, 1, 2, 4, 8, ...
    is saved, and every later state is compared with it bitwise, so a run
    that enters a cycle of period p at step mu stops by step 2 max(mu, p) + p.
    A block of steps ends at the next save step at the latest, so all its
    states are compared with one saved state.

    Refuses to run an uncertified configuration (epsilon at or above the
    bound, or a graph that is not strongly connected), naming the failed
    hypotheses, unless override_uncertified is set; uncertified runs carry
    no guarantee and may diverge.  On a strongly connected graph the
    conserved functional v . x and the predicted consensus value are
    tracked; otherwise those fields are nan.

    stepper replaces the built-in matrix update with any callable mapping a
    state vector to the next state, agent_stepper's network among them.  A
    caller's stepper is called exactly once per step, each time with the
    state it last returned, and never past the stopping step, a cycled one
    included: each state it returns is checked against the stopping rule,
    and saved if it falls on a save step (the end of its block), before the
    next call.  A returned state whose shape is not (n,) raises ValueError.
    The built-in update steps a whole block in one call of matrix_stepper's
    block loop, each step straight into its row, and is pure, so the steps
    its blocks take past the stopping step are discarded.  on_block(k, rows),
    when given, is called with each block's first step k and its rows up to
    the stopping step, before any is recorded; the rows are views of a
    buffer the next block reuses.  compare and run --mode agents check the
    agents this way.
    """
    max_steps, snapshot_limit = _check_limits(tol, max_steps, snapshot_limit)
    x = as_vector(x0, system.n).copy()
    eps = float(epsilon) if epsilon is not None else default_epsilon(system)
    failed = certify(system, eps)
    if failed and not override_uncertified:
        raise HypothesisViolation("configuration is not certified: " + "; ".join(failed))

    v = system.v
    alpha = float(v @ x) if v is not None else math.nan

    drift_denom = float(np.max(np.abs(x))) or 1.0

    keep_states = system.n <= _MAX_INLINE_STATE

    def row(step: int, r: int) -> tuple:
        # block row r as the outputs print it, v . x taken per row, and its state up to the cut
        cons = float(v @ blk[r]) if v is not None else math.nan
        state = blk[r].copy() if keep_states else None
        return step, float(dis[r]), cons, float(lo[r]), float(hi[r]), state

    buf = np.empty((max(1, min(_BLOCK_ROWS, _BLOCK_FLOATS // system.n)), system.n))
    buf[0] = x
    advance, views = _advance(system, eps) if stepper is None else None, list(buf)

    def fill(size: int) -> int:
        # steps the next block into buf[:size] and returns its rows; a caller's stepper
        # may keep state, so it stops at the first row the reader may stop at
        nonlocal x
        if stepper is None:
            x = advance(x, views[:size])
            return size
        for i in range(size):
            x = stepper(x)
            # np.shape, not x.shape: a stepper may return a list or a scalar
            if np.shape(x) != (system.n,):
                raise ValueError(f"stepper returned shape {np.shape(x)}, expected {(system.n,)}")
            state = views[i]
            state[...] = x
            # the reader may stop at a disagreement below tol or not finite, or a repeat
            spread = np.maximum.reduce(state) - np.minimum.reduce(state)
            if not tol <= spread < math.inf or state.tobytes() == saved:
                return i + 1
        return size

    # rows on the multiples of one power-of-two stride from 0; at
    # snapshot_limit rows every second one goes and the stride doubles,
    # which leaves room for the final step
    rows: list[tuple] = []
    stride = 1
    cons_min = math.inf
    cons_max = -math.inf
    # Brent's cycle test: the state saved at the last save step 0, 1, 2, 4, ...,
    # its disagreement, and the least disagreement of the steps after it; x0
    # stands in until step 0 is saved, and its nan disagreement matches no row
    saved, saved_dis, saved_at, save_at, floor = x.tobytes(), math.nan, 0, 0, math.inf
    period = None
    # the reader (the loop) alone decides stops, records rows and tracks the
    # drift in the block buf[:size], which holds steps k .. k + size - 1
    k, size = 0, 1
    # an uncertified run may overflow; the loop detects that itself, so
    # numpy's overflow and invalid-value warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            blk = buf[:size]
            hi, lo = blk.max(axis=1), blk.min(axis=1)
            dis = hi - lo
            # converged, or diverged: no later step can bring the state back below
            # tol.  A state has diverged when an entry is not finite, which only
            # a state whose disagreement is not finite can have
            diverged = ~np.isfinite(dis)
            if diverged.any():
                diverged[diverged] = ~np.isfinite(blk[diverged]).all(axis=1)
            stops = np.flatnonzero((dis < tol) | diverged)
            last = int(stops[0]) if stops.size else size - 1
            # a state that repeats the saved one bitwise repeats its cycle forever;
            # only rows with the saved disagreement are compared
            same = np.flatnonzero(dis[: last + 1] == saved_dis)
            bits = blk[same].view(np.uint64) == np.frombuffer(saved, np.uint64)
            same = same[bits.all(axis=1)]
            if same.size:
                last = int(same[0])
                period = k + last - saved_at
            if on_block is not None:
                on_block(k, blk[: last + 1])
            floor = min(floor, float(dis[: last + 1].min()))
            if k + last == save_at and period is None:
                saved, saved_dis, saved_at = blk[last].tobytes(), dis[last], save_at
                save_at, floor = 2 * save_at or 1, math.inf
            if v is not None:
                # fmin/fmax skip nan as the Python min/max below do
                cons = blk[: last + 1] @ v
                cons_min = min(cons_min, float(np.fmin.reduce(cons)))
                cons_max = max(cons_max, float(np.fmax.reduce(cons)))
            due = -(-k // stride) * stride
            while due <= k + last:
                rows.append(row(due, due - k))
                if len(rows) == snapshot_limit:
                    rows = rows[::2]
                    stride *= 2
                due = -(-(due + 1) // stride) * stride
            if stops.size or period is not None or k + last == max_steps:
                break
            k += size
            size = fill(min(len(buf), save_at - k + 1, max_steps - k + 1))
        if rows[-1][0] != k + last:
            rows.append(row(k + last, last))
    steps, disagreement, conserved, x_min, x_max, states = map(list, zip(*rows))

    # a non-finite conserved value voids the drift; only the last one can
    # be, since a non-finite v . x means a non-finite state, which ends the
    # loop
    drift = (cons_max - cons_min) / drift_denom if math.isfinite(conserved[-1]) else math.nan
    stop_reason = (
        "converged" if dis[last] < tol else "diverged" if diverged[last]
        else "cycled" if period is not None else "budget"
    )
    return RunTrace(
        steps=steps,
        states=states if keep_states else [],
        disagreement=disagreement,
        conserved=conserved,
        x_min=x_min,
        x_max=x_max,
        final_state=blk[last].copy(),
        predicted_alpha=alpha,
        converged_at=k + last if stop_reason == "converged" else None,
        steps_run=k + last,
        conserved_drift=drift,
        certified=not failed,
        stop_reason=stop_reason,
        cycle_period=period,
        cycle_floor=floor if period is not None else None,
    )
