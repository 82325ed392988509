import ast
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import puosc
from puosc.core import PuParams, companion_field, hamiltonian_h1, poisson_j1
from puosc.errors import InvalidInputError, SingularMatrixError
from puosc.linalg import (as_matrix, expm, frobenius, inverse, leading_minors, nullspace,
                          require_finite)


def brute_det(m):
    """Permutation-expansion determinant; independent of numpy."""
    n = m.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return total


class TestNullspace:
    def test_identity_trivial_kernel(self):
        assert nullspace(np.eye(4), tol=1e-12) == []

    def test_zero_matrix_full_kernel(self):
        basis = nullspace(np.zeros((2, 2)), tol=1e-12)
        assert len(basis) == 2
        gram = np.array([[u @ v for v in basis] for u in basis])
        assert np.allclose(gram, np.eye(2), atol=1e-12)

    def test_companion_invertible_when_beta_nonzero(self):
        m = companion_field(PuParams(5.0, 4.0))
        assert abs(brute_det(m) - 4.0) < 1e-12
        assert nullspace(m, tol=1e-12) == []

    def test_residual_bound(self, rng):
        for _ in range(20):
            a = rng.uniform(-2, 2, (4, 2)) @ rng.uniform(-2, 2, (2, 4))
            basis = nullspace(a, tol=1e-10)
            bound = 1e-10 * (1.0 + np.linalg.norm(a))
            for v in basis:
                assert np.linalg.norm(a @ v) <= bound

    def test_dimension_plus_rank(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n))
            a = rng.uniform(-2, 2, (n, r)) @ rng.uniform(-2, 2, (r, n))
            assert len(nullspace(a, tol=1e-10)) + np.linalg.matrix_rank(a) == n

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            nullspace([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidInputError):
            nullspace(np.eye(2), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12, -0.0],
                             ids=lambda tol: f"nullspace-{tol}")
    def test_rejects_tol_outside_open_positive_range(self, tol):
        # nan used to find no kernel at all, inf made everything kernel
        with pytest.raises(InvalidInputError, match="tol must be positive and finite"):
            nullspace(np.eye(2), tol=tol)


class TestInverse:
    def test_identity(self):
        assert np.array_equal(inverse(np.eye(3)), np.eye(3))

    def test_j1_multiply_back(self):
        j1 = poisson_j1(PuParams(5.0, 4.0)).matrix
        assert np.max(np.abs(inverse(j1) @ j1 - np.eye(4))) < 1e-12

    def test_zero_matrix_singular(self):
        with pytest.raises(SingularMatrixError):
            inverse(np.zeros((3, 3)))

    def test_random_multiply_back(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a = rng.uniform(-3, 3, (n, n))
            try:
                inv = inverse(a)
            except SingularMatrixError:
                continue
            assert np.max(np.abs(a @ inv - np.eye(n))) < 1e-10


def _numpy_row_inverse(m):
    """Gauss-Jordan on numpy rows, the form ``inverse`` took before it
    stepped Python floats; its bits and errors are the reference."""
    a = as_matrix(m, square=True)
    n = a.shape[0]
    floor = 1e-12 * max(1.0, float(np.max(np.abs(a), initial=0.0)))
    work = np.hstack([a, np.eye(n)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(work[col:, col])))
        if abs(work[pivot_row, col]) < floor:
            raise SingularMatrixError(f"pivot {work[pivot_row, col]:.3e} below tolerance in column {col}")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
        work[col] /= work[col, col]
        for row in range(n):
            if row != col and work[row, col] != 0.0:
                work[row] -= work[row, col] * work[col]
    return work[:, n:]


def _outcome(fn, a):
    """The bytes and shape of fn(a), or the type and message it raises."""
    with np.errstate(all="ignore"):
        try:
            out = fn(a)
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            return type(exc), str(exc)
    return out.shape, out.tobytes()


# small integers make ties in |pivot| and exact zeros of both signs; the
# large entries overflow during elimination, which puts nan in a pivot column
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -3.0]),
    st.floats(-8.0, 8.0).map(lambda x: round(x, 1)),
    st.floats(-1e3, 1e3),
    st.sampled_from([1e150, -1e-150, 1e-300, 1e308, -1e308, 1.7e308]),
)
_SQUARES = st.integers(1, 6).flatmap(
    lambda n: st.lists(_ENTRIES, min_size=n * n, max_size=n * n).map(
        lambda xs: np.array(xs).reshape(n, n)))


class TestInverseBits:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(_SQUARES)
    @example(np.zeros((0, 0)))
    # rows 0 and 1 tie in |column 0|: taking row 1 first rounds differently
    @example(np.array([[1.0, 3.0, 0.1], [-1.0, 0.7, 0.3], [0.2, 0.9, 1.1]]))
    # tied pivots in both columns, one of them -0.0 after elimination
    @example(np.array([[1.0, 2.0, -0.0], [-1.0, 0.0, 3.0], [1.0, -2.0, 0.5]]))
    # singular: the second pivot is exactly zero
    @example(np.array([[1.0, 2.0], [2.0, 4.0]]))
    # an overflow makes nan in column 2 below a finite entry; the first
    # nan is the pivot (choosing the largest finite entry raises instead)
    @example(np.array([[-1.0, -1.0, 3.0, 3.0], [0.0, 0.5, 0.0, -0.0],
                       [-1e308, -1e308, 1e308, 1.0], [1e308, -1e308, 1e308, 1e308]]))
    def test_same_bits_and_errors_as_numpy_rows(self, a):
        assert _outcome(inverse, a) == _outcome(_numpy_row_inverse, a)


def _views(a):
    """A C-order array, its transpose and two strided views of it."""
    views = [a, a.T]
    if a.ndim == 2:
        views += [a[::2, ::-1], a.T[1:, ::2]]
    else:
        views += [a[::-2], a[1::3]]
    return views


class TestFrobeniusBits:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(hnp.arrays(np.float64, st.one_of(hnp.array_shapes(min_dims=2, max_dims=2, max_side=7),
                                            st.integers(0, 20).map(lambda n: (n,))),
                      elements=st.one_of(st.floats(-1e3, 1e3), st.floats(),
                                         st.sampled_from([0.0, -0.0, 1e200, -1e160]))))
    # the transpose's memory order and its C order sum to different bits
    @example(np.array([[0.69, -0.7, 2.98, 2.89], [1.11, 0.9, 1.13, -0.67],
                       [-2.19, 1.33, 0.15, -1.14]]))
    @example(np.array([1e200, 1.0]))  # the sum of squares overflows to inf
    @example(np.array([[1.0, math.nan], [math.inf, 0.0]]))
    def test_same_bits_as_numpy_norm(self, a):
        with np.errstate(all="ignore"):
            for v in _views(a):
                assert np.float64(frobenius(v)).tobytes() == np.linalg.norm(v).tobytes()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
                  elements=st.one_of(st.floats(), st.sampled_from(
                      [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, math.inf, -math.inf]))))
def test_require_finite_refuses_exactly_the_non_finite(a):
    if np.isfinite(a).all():
        require_finite(a)
    else:
        with pytest.raises(InvalidInputError, match="non-finite"):
            require_finite(a)


def _bare_norm_calls(tree):
    """Line numbers of ``*.linalg.norm(x)`` calls with no ord or axis."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.norm")
                and len(node.args) < 2
                and not {"ord", "axis"} & {kw.arg for kw in node.keywords}):
            yield node.lineno


def test_one_frobenius_norm():
    """Every Frobenius norm of the package goes through ``linalg.frobenius``."""
    root = pathlib.Path(puosc.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(root.glob("*.py"))
             for line in _bare_norm_calls(ast.parse(path.read_text()))]
    assert found == []
    # the walk does see a call it must report
    assert list(_bare_norm_calls(ast.parse("np.linalg.norm(a - b)"))) == [1]


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        got = expm(np.diag([1.0, 2.0]))
        assert np.allclose(got, np.diag([math.e, math.e ** 2]), rtol=1e-12)

    def test_dilation_generator(self):
        # s * I/2 at s = 1 rescales by e^(1/2)
        got = expm(0.5 * np.eye(4))
        assert np.allclose(got, math.exp(0.5) * np.eye(4), rtol=1e-12)

    def test_inverse_pair(self, rng):
        for _ in range(20):
            a = rng.uniform(-1, 1, (4, 4))
            a *= 10.0 / max(np.linalg.norm(a), 10.0)
            assert np.max(np.abs(expm(a) @ expm(-a) - np.eye(4))) < 1e-9

    def test_semigroup(self, rng):
        for _ in range(10):
            a = rng.uniform(-1, 1, (4, 4))
            s, t = rng.uniform(0, 2, 2)
            lhs = expm((s + t) * a)
            rhs = expm(s * a) @ expm(t * a)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_derivative_at_zero(self, rng):
        a = rng.uniform(-2, 2, (4, 4))
        h = 1e-6
        fd = (expm(h * a) - expm(-h * a)) / (2 * h)
        assert np.max(np.abs(fd - a)) < 1e-6


class TestLeadingMinors:
    def test_identity(self):
        assert leading_minors(np.eye(3)) == [1.0, 1.0, 1.0]

    def test_indefinite_diag(self):
        assert leading_minors(np.diag([1.0, -1.0])) == [1.0, -1.0]

    def test_first_minor_of_standard_hamiltonian(self):
        s = hamiltonian_h1(PuParams(5.0, 4.0)).matrix
        minors = leading_minors(s)
        assert minors[0] == -4.0
        assert any(m < 0 for m in minors)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            leading_minors([[0.0, 1.0], [-1.0, 0.0]])

    def test_sylvester_matches_eigenvalues(self, rng):
        for _ in range(30):
            a = rng.uniform(-2, 2, (4, 4))
            s = a + a.T
            by_minors = all(d > 0 for d in leading_minors(s))
            by_eigs = bool(np.all(np.linalg.eigvalsh(s) > 0))
            assert by_minors == by_eigs


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=16, max_size=16))
def test_expm_never_silently_wrong_shape(entries):
    a = np.array(entries).reshape(4, 4)
    result = expm(a)
    assert result.shape == (4, 4)
    assert np.all(np.isfinite(result))
