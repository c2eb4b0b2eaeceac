"""Linear-algebra kernels: input validation, the null vector.

Vectors and matrices are plain float64 numpy arrays.  Two solvers find the
null vector of a transposed Laplacian L^T, both on the bordered system
"L^T u = 0 with its last equation replaced by sum(u) = 1":

* :func:`null_vector` makes one dense LAPACK solve, O(n^2) memory and
  O(n^3) work, and checks its residual and sign as postconditions;
* :func:`gmres_null_vector` runs restarted GMRES over the edge arrays, O(n + m)
  per product and O(n) memory, and returns None instead of a vector that
  fails its acceptance test.

WeightedSystem.v tries GMRES first on every directed graph and falls back
on the dense solve only when GMRES is rejected.

The independent routes that cross-check them (a hand-written elimination and
a dense power iteration) are test oracles and live with the tests.
"""

from __future__ import annotations

import numpy as np

_RESIDUAL_RTOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)

# GMRES(30): on ring-plus-chords graphs (n = 192 .. 5000, out-degree 4) two
# cycles of 30 reach the solution; restart lengths 20 and 40 took the same
# time.  The basis is then 31 vectors, 0.5 MB at n = 2000.
_GMRES_RESTART = 30
# sparse random digraphs (mean out-degree 1.5, n = 400 and 800) took the
# most cycles measured on inputs that converge, 10; a cycle with a back edge
# at every seventh node still has residual 1e-6 after 20 and falls back
_GMRES_MAX_RESTARTS = 20
# cycles stop once every row of L^T u is within this many times its own
# worst-case rounding, (1 + in-degree) ulps of (|L^T| |u|)_j; stopping at
# the acceptance bound instead left v 3e-11 away from the dense solve at
# n = 1000
_GMRES_STOP_FACTOR = 4
# accept a GMRES null vector when max_j |(L^T u)_j| / (|L^T| |u|)_j is at
# most this many units of n * eps; converged runs measured 2e-16 to 6e-14,
# a stalled one 1e-6
_ACCEPT_ULPS_PER_NODE = 64


class NullSpaceError(ArithmeticError):
    """The matrix does not have the one-dimensional, sign-definite null space
    guaranteed by the convergence theorem; signals a hypothesis violation or
    an implementation fault upstream."""


def as_vector(x, n: int) -> np.ndarray:
    """Validate x as a finite 1-D float64 vector of length n."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def null_vector(m) -> np.ndarray:
    """Null vector of a transposed Laplacian, normalized to unit l1 norm.

    The dense route for v: WeightedSystem.v calls it on a directed graph
    only when :func:`gmres_null_vector` is rejected (undirected graphs need
    no solve).  It holds M and a bordered copy, O(n^2) memory.

    Intended for matrices M with a one-dimensional null space spanned by an
    entrywise-positive vector (M equal to the transpose of a Laplacian of a
    strongly connected graph guarantees this).  The last row of M is
    replaced by ones and one LAPACK solve against e_n picks the null vector
    with entry sum 1.  The rows of a transposed Laplacian sum to zero, so the
    other rows still span the orthogonal complement of the null vector; the
    ones row is not in it, so the bordered system is nonsingular exactly when
    the null space is one-dimensional.

    Raises ValueError unless M is a finite n x n matrix with n >= 1, and
    :class:`NullSpaceError` when the bordered system is singular,
    when the residual check ``||M v||_inf <= 1e-10 * ||M||_inf * ||v||_inf``
    fails, or when the normalized vector is not entrywise positive.  Those
    are theorem conclusions, so their failure signals a bad input or a bug
    rather than a condition to repair silently.
    """
    original = np.asarray(m, dtype=np.float64)
    if original.ndim != 2 or original.shape[0] != original.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {original.shape}")
    if original.size == 0:
        raise ValueError("expected a nonempty matrix, got shape (0, 0)")
    if not np.all(np.isfinite(original)):
        raise ValueError("matrix has non-finite entries")
    bordered = original.copy()
    bordered[-1, :] = 1.0
    rhs = np.zeros(len(original), dtype=np.float64)
    rhs[-1] = 1.0
    try:
        v = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError:
        raise NullSpaceError(
            "bordered system is singular; expected a one-dimensional null space "
            "(is the graph strongly connected?)"
        ) from None
    v /= float(np.sum(np.abs(v)))

    # written as `not <=` / `not >` so that a nan solution fails them too
    residual = float(np.max(np.abs(original @ v)))
    norm = float(np.max(np.sum(np.abs(original), axis=1)))
    if not residual <= _RESIDUAL_RTOL * norm * float(np.max(np.abs(v))):
        raise NullSpaceError(
            f"null vector residual {residual:.3e} exceeds tolerance; matrix may be ill-conditioned"
        )
    if not float(v.min()) > 0.0:
        raise NullSpaceError(
            "null vector is not entrywise positive; hypothesis violation or upstream fault"
        )
    return v


def gmres_null_vector(d, listeners, sources) -> np.ndarray | None:
    """Positive null vector of L^T by restarted GMRES on the edge arrays, or None.

    L = D - A is the Laplacian whose off-diagonal -1 entries sit at
    (listeners[k], sources[k]) and whose diagonal is d, the out-degrees; the
    graph should be strongly connected, as for :func:`null_vector`.  GMRES
    (Saad and Schultz, 1986) solves the same bordered system, L^T u = 0 with
    its last equation replaced by sum(u) = 1, from the uniform vector, which
    is exact when every in-degree equals the out-degree.  One product is
    ``d * u - bincount(sources, u[listeners])``, O(n + m).  A cycle builds a
    Krylov basis of up to _GMRES_RESTART vectors, orthogonalized by classical
    Gram-Schmidt applied twice, keeps the (k + 1) x k Hessenberg matrix H of
    that basis, and ends in one least-squares solve, min ||beta e_1 - H y||.
    Cycles stop once every row of L^T u is within a few times its own
    rounding error, or after _GMRES_MAX_RESTARTS.

    The result is accepted only when it is entrywise positive and its
    componentwise residual max_j |(L^T u)_j| / (|L^T| |u|)_j, taken over all
    n rows, is at most 64 * n * eps (Grassmann, Taksar and Heyman's sense of
    an entrywise-accurate stationary vector).  Returns u scaled to unit sum,
    or None when either check fails; a failed solve never raises.
    """
    n = d.size

    def lap_t(u: np.ndarray) -> np.ndarray:
        return d * u - np.bincount(sources, weights=u[listeners], minlength=n)

    def bordered(u: np.ndarray) -> np.ndarray:
        y = lap_t(u)
        y[-1] = u.sum()
        return y

    # an orthonormal basis of R^n has at most n vectors
    size = min(_GMRES_RESTART, n)
    stop = _GMRES_STOP_FACTOR * _EPS * (1 + np.bincount(sources, minlength=n))
    basis = np.empty((size + 1, n))
    # the Hessenberg matrix of one cycle: bordered(basis[j]) is
    # hess[: j + 2, j] @ basis[: j + 2]; entries below the subdiagonal are
    # never written and stay zero
    hess = np.zeros((size + 1, size))
    u = np.full(n, 1.0 / n)
    # a breakdown only makes inf or nan, which the acceptance test rejects
    with np.errstate(all="ignore"):
        for cycle in range(_GMRES_MAX_RESTARTS + 1):
            y = lap_t(u)
            resid = np.abs(y)
            au = np.abs(u)
            # |L^T| |u|, compared by multiplying, so a zero row divides nothing
            scale = d * au + np.bincount(sources, weights=au[listeners], minlength=n)
            if cycle == _GMRES_MAX_RESTARTS or np.all(resid <= stop * scale):
                break
            r = -y
            r[-1] = 1.0 - u.sum()
            beta = float(np.linalg.norm(r))
            basis[0] = r / beta
            k = 0
            while k < size:
                w = bordered(basis[k])
                h = np.zeros(k + 1)
                for _ in range(2):
                    c = basis[: k + 1] @ w
                    w -= c @ basis[: k + 1]
                    h += c
                norm = float(np.linalg.norm(w))
                hess[: k + 1, k] = h
                hess[k + 1, k] = norm
                # a non-finite or zero column ends the cycle without it
                col = hess[: k + 2, k]
                if not (np.all(np.isfinite(col)) and col.any()):
                    break
                k += 1
                if not norm > 0.0:
                    break
                basis[k] = w / norm
            if not k:
                break
            rhs = np.zeros(k + 1)
            rhs[0] = beta
            u = u + np.linalg.lstsq(hess[: k + 1, :k], rhs, rcond=None)[0] @ basis[:k]
        accept = _ACCEPT_ULPS_PER_NODE * n * _EPS
        if not (float(u.min()) > 0.0 and np.all(resid <= accept * scale)):
            return None
        return u / u.sum()
