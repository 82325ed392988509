"""Small dense real linear algebra kernels.

Everything in the package runs through 4x4 (occasionally 16x16) matrices, so
the kernels below favour transparency over asymptotics: SVD-based nullspaces,
Gauss-Jordan inversion with an explicit pivot tolerance, a fixed-order
scaling-and-squaring matrix exponential, and one Frobenius norm.

At these sizes a numpy call costs more than its arithmetic, so ``inverse``
steps Python floats row by row.  Its pivot is the row that
``np.argmax(np.abs(column))`` picks: the first largest magnitude, or the first
nan when the column holds one (an overflow during elimination can make one).
``frobenius`` is ``np.linalg.norm``'s arithmetic for a norm without ``ord``
or ``axis`` wherever its sum of squares is finite, without argument handling.
The rule is general: where a numpy helper costs more than its arithmetic at
4x4, a kernel writes the same products directly, and a test pins its bits to
the helper's (``expm``'s 1-norm against ``np.linalg.norm(a, 1)``, the
Sylvester operator of ``symmetry`` against ``np.kron``).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, SingularMatrixError

# Taylor order / scaling threshold for expm.  At ||A|| <= _EXPM_THETA the
# order-8 remainder is below double rounding.
_EXPM_ORDER = 8
_EXPM_THETA = 0.1
_NULL_TOL = 1e-12


def require_finite(a: np.ndarray) -> None:
    """Raise InvalidInputError unless every entry of the array is finite.

    ``np.logical_and.reduce(..., axis=None)`` is ``.all()`` without the
    Python wrapper of the method, about 0.3 us less per call on a 4x4.
    """
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise InvalidInputError("matrix has non-finite entries")


def as_matrix(m, square: bool = False) -> np.ndarray:
    """Validate and return a float copy of a 2-D matrix."""
    a = np.array(m, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-D matrix, got ndim={a.ndim}")
    require_finite(a)
    if square and a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    return a


def nullspace(m) -> list[np.ndarray]:
    """Orthonormal kernel basis of ``m``.

    Uses the SVD as the rank-revealing factorization.  A right singular
    vector v belongs to the kernel when ||m v|| = sigma <= 1e-12 (1 + ||m||),
    which makes the returned span maximal under that residual bound.
    """
    a = as_matrix(m)
    _, sigma, vt = np.linalg.svd(a)
    thresh = _NULL_TOL * (1.0 + frobenius(a))
    basis = [vt[i] for i in range(len(sigma)) if sigma[i] <= thresh]
    # svd(full) rows beyond min(m, n) span the coordinate deficit exactly
    basis.extend(vt[i] for i in range(len(sigma), vt.shape[0]))
    return basis


def inverse(m) -> np.ndarray:
    """Invert a square matrix by Gauss-Jordan with partial pivoting.

    Raises SingularMatrixError when a pivot falls below
    ``1e-12 * max(1, max|entry|)``.  The pivot rule and the reason for
    stepping Python floats are in the module docstring.
    """
    a = as_matrix(m, square=True)
    n = a.shape[0]
    rows = a.tolist()
    # the entries are finite, so this is np.max(np.abs(a), initial=0.0)
    floor = 1e-12 * max(1.0, max([abs(x) for row in rows for x in row], default=0.0))
    for i, row in enumerate(rows):
        row += [0.0] * n
        row[n + i] = 1.0
    for col in range(n):
        pivot_row, best = col, -1.0
        for r in range(col, n):
            size = abs(rows[r][col])
            if size != size:
                pivot_row = r
                break
            if size > best:
                pivot_row, best = r, size
        pivot = rows[pivot_row][col]
        if abs(pivot) < floor:
            raise SingularMatrixError(f"pivot {pivot:.3e} below tolerance in column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        top = rows[col] = [x / pivot for x in rows[col]]
        for row in range(n):
            f = rows[row][col]
            if row != col and f != 0.0:
                rows[row] = [x - f * y for x, y in zip(rows[row], top)]
    return np.array([row[n:] for row in rows], dtype=float).reshape(n, n)


def frobenius(a: np.ndarray) -> float:
    """The Frobenius norm of a float array of any shape: the bits of
    ``np.linalg.norm(a)`` where its sum of squares is finite, else the norm of
    a / max|a| scaled back, which is inf only when the norm exceeds every float."""
    x = a.ravel(order="K")
    squares = x.dot(x)
    if squares != math.inf:
        return math.sqrt(squares)
    top = float(np.max(np.abs(x)))  # no nan here: a nan makes the sum nan
    return top if top == math.inf else top * frobenius(x / top)


def relative_residual(x: np.ndarray, y: np.ndarray) -> float:
    """||x - y||_F / (1 + ||y||_F): how far x misses y, relative to y."""
    return frobenius(x - y) / (1.0 + frobenius(y))


def _squarings(a: np.ndarray) -> int:
    """How often ``expm`` squares: the least s >= 0 with ||a||_1 / 2**s <=
    _EXPM_THETA, up to the rounding of log2.  The 1-norm, the largest column
    sum of |a|, is taken as ``np.linalg.norm(a, 1)`` takes it.  Raises
    InvalidInputError where ||a||_1 / _EXPM_THETA overflows, as it may for a
    finite matrix; exp(a) then overflows too."""
    norm = np.add.reduce(np.abs(a), axis=0).max(initial=0.0)
    if norm <= _EXPM_THETA:
        return 0
    ratio = norm / _EXPM_THETA
    if ratio == math.inf:
        raise InvalidInputError(f"matrix 1-norm {norm:.6g} is too large for expm")
    return max(0, int(np.ceil(np.log2(ratio))))


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with an order-8 Taylor kernel."""
    a = as_matrix(m, square=True)
    eye = np.eye(a.shape[0])
    squarings = _squarings(a)
    b = a / (2.0 ** squarings)
    # Horner evaluation of sum_{k<=order} b^k / k!, in place: x + eye is
    # eye + x, since IEEE addition commutes
    result = b / _EXPM_ORDER
    result += eye
    for k in range(_EXPM_ORDER - 1, 0, -1):
        result = b @ result
        result /= k
        result += eye
    for _ in range(squarings):
        result = result @ result
    return result


def leading_minors(m) -> list[float]:
    """Determinants of the leading principal blocks of a symmetric matrix.

    Sylvester's criterion: all minors positive iff the matrix is positive
    definite.  Asymmetric input (beyond 1e-10 relative) is rejected because
    the criterion is meaningless there.
    """
    a = as_matrix(m, square=True)
    if not relative_residual(a, a.T) <= 1e-10:
        raise InvalidInputError("leading_minors requires a symmetric matrix")
    return [float(np.linalg.det(a[:k, :k])) for k in range(1, a.shape[0] + 1)]


def is_positive_definite(m) -> bool:
    """Sylvester test on the leading principal minors."""
    return all(d > 0.0 for d in leading_minors(m))
