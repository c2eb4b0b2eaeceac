"""Linear-algebra kernels: norms, null vectors, power iteration.

Vectors and matrices are plain float64 numpy arrays.  The two nontrivial
routines here form a deliberate dual route: :func:`null_vector` extracts the
stationary direction with one bordered LAPACK solve, while
:func:`power_iteration` estimates the same direction iteratively, so each
can check the other.  :func:`power_iteration` takes either a dense square
matrix or a callable that applies the operator, so a sparse operator (such
as the engine's edge-list product with P^T) never needs an n x n array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_RESIDUAL_RTOL = 1e-10


class NullSpaceError(ArithmeticError):
    """The matrix does not have the one-dimensional, sign-definite null space
    guaranteed by the convergence theorem; signals a hypothesis violation or
    an implementation fault upstream."""


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Validate x as a finite 1-D float64 vector, optionally of length n."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def as_square_matrix(m) -> np.ndarray:
    """Validate m as a finite 2-D square float64 matrix."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def l1_norm(x) -> float:
    """Sum of absolute entries."""
    return float(np.sum(np.abs(as_vector(x))))


def matrix_inf_norm(m) -> float:
    """Maximum absolute row sum."""
    a = as_square_matrix(m)
    return float(np.max(np.sum(np.abs(a), axis=1)))


def null_vector(m) -> np.ndarray:
    """Null vector of a transposed Laplacian, normalized to unit l1 norm.

    Intended for matrices M with a one-dimensional null space spanned by an
    entrywise-positive vector (M equal to the transpose of a Laplacian of a
    strongly connected graph guarantees this).  The last row of M is
    replaced by ones and one LAPACK solve against e_n picks the null vector
    with entry sum 1.  The rows of a transposed Laplacian sum to zero, so the
    other rows still span the orthogonal complement of the null vector; the
    ones row is not in it, so the bordered system is nonsingular exactly when
    the null space is one-dimensional.

    Raises :class:`NullSpaceError` when the bordered system is singular,
    when the residual check ``||M v||_inf <= 1e-10 * ||M||_inf * ||v||_inf``
    fails, or when the normalized vector is not entrywise positive.  Those
    are theorem conclusions, so their failure signals a bad input or a bug
    rather than a condition to repair silently.
    """
    original = as_square_matrix(m)
    n = original.shape[0]
    bordered = original.copy()
    bordered[-1, :] = 1.0
    rhs = np.zeros(n, dtype=np.float64)
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
    if not residual <= _RESIDUAL_RTOL * matrix_inf_norm(original) * float(np.max(np.abs(v))):
        raise NullSpaceError(
            f"null vector residual {residual:.3e} exceeds tolerance; matrix may be ill-conditioned"
        )
    if not float(v.min()) > 0.0:
        raise NullSpaceError(
            "null vector is not entrywise positive; hypothesis violation or upstream fault"
        )
    return v


@dataclass(frozen=True)
class PowerIterationResult:
    """Outcome of a power iteration run.

    value is the Rayleigh-quotient eigenvalue estimate at the final iterate,
    vector is the final iterate with unit l1 norm, converged records whether
    successive iterates came within tol in l1 distance before max_iter.
    """

    value: float
    vector: np.ndarray
    converged: bool
    iterations: int


def power_iteration(m, x0, max_iter: int = 10_000, tol: float = 1e-13) -> PowerIterationResult:
    """Estimate the dominant eigenpair of an operator by repeated multiplication.

    m is a square matrix, validated as finite, or a callable that returns
    m @ x as a new float64 array of x0's length; a result of another length
    raises ValueError.  Iterates x <- m x / ||m x||_1 from x0 until the l1
    distance between successive iterates drops below tol or max_iter is
    reached.  A matrix and a callable applying it with ``m @ x`` give
    bitwise the same result.  Non-convergence is reported in the result, not
    raised: for the intended inputs (primitive nonnegative matrices) it
    indicates a budget problem, and for anything else it is itself
    informative.
    """
    if callable(m):
        apply = m
        x = as_vector(x0).copy()
    else:
        a = as_square_matrix(m)
        apply = a.__matmul__
        x = as_vector(x0, a.shape[0]).copy()
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    norm = l1_norm(x)
    if norm == 0.0:
        raise ValueError("starting vector must be nonzero")
    x /= norm

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = apply(x)
        if y.shape != x.shape:
            raise ValueError(f"operator returned shape {y.shape} for a vector of shape {x.shape}")
        ynorm = float(np.abs(y).sum())
        if ynorm == 0.0:
            # x landed in the null space; the estimate below is still defined
            x = y
            break
        y /= ynorm
        # x is owned here, so it can hold |x - y| for the convergence test
        x -= y
        delta = float(np.abs(x, out=x).sum())
        x = y
        if delta < tol:
            converged = True
            break

    xx = float(x @ x)
    value = float(x @ apply(x)) / xx if xx > 0.0 else 0.0
    return PowerIterationResult(value=value, vector=x, converged=converged, iterations=iterations)
