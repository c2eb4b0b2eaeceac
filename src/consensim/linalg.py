"""Linear-algebra kernels: input validation, a norm, the null vector.

Vectors and matrices are plain float64 numpy arrays.  :func:`null_vector`
extracts the stationary direction with one bordered LAPACK solve and checks
its residual and sign as postconditions.  The independent routes that
cross-check it (a hand-written elimination and a dense power iteration) are
test oracles and live with the tests.
"""

from __future__ import annotations

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
