import ast
import itertools
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import puosc
from puosc.core import PuParams, companion_field, hamiltonian_h1, poisson_j1
from puosc.errors import InvalidInputError, SingularMatrixError
from puosc.linalg import (_squarings, expm, frobenius, inverse, leading_minors, nullspace,
                          relative_residual, require_finite)


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
        assert nullspace(np.eye(4)) == []

    def test_zero_matrix_full_kernel(self):
        basis = nullspace(np.zeros((2, 2)))
        assert len(basis) == 2
        gram = np.array([[u @ v for v in basis] for u in basis])
        assert np.allclose(gram, np.eye(2), atol=1e-12)

    def test_companion_invertible_when_beta_nonzero(self):
        m = companion_field(PuParams(5.0, 4.0))
        assert abs(brute_det(m) - 4.0) < 1e-12
        assert nullspace(m) == []

    def test_residual_bound(self, rng):
        for _ in range(20):
            a = rng.uniform(-2, 2, (4, 2)) @ rng.uniform(-2, 2, (2, 4))
            basis = nullspace(a)
            bound = 1e-10 * (1.0 + np.linalg.norm(a))
            for v in basis:
                assert np.linalg.norm(a @ v) <= bound

    def test_dimension_plus_rank(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n))
            a = rng.uniform(-2, 2, (n, r)) @ rng.uniform(-2, 2, (r, n))
            assert len(nullspace(a)) + np.linalg.matrix_rank(a) == n

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            nullspace([[np.nan, 0.0], [0.0, 1.0]])


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
# an overflow makes nan in column 2 below a finite entry under the floor
_NAN_PIVOT = np.array([[-1.0, -1.0, 3.0, 3.0], [0.0, 0.5, 0.0, -0.0],
                       [-1e308, -1e308, 1e308, 1.0], [1e308, -1e308, 1e308, 1e308]])


def _pivot_error(value, col):
    return f"^pivot {re.escape(f'{value:.3e}')} below tolerance in column {col}$"


def _multiplies_back_or_names_a_pivot_below_the_floor(a):
    n = len(a)
    floor = 1e-12 * max(1.0, float(np.max(np.abs(a), initial=0.0)))
    try:
        x = inverse(a)
    except SingularMatrixError as exc:
        value, col = re.fullmatch(r"pivot (\S+) below tolerance in column (\d+)", str(exc)).groups()
        assert int(col) < n and abs(float(value)) < floor * (1.0 + 1e-3)  # 4 digits shown
        return
    assert x.shape == a.shape
    with np.errstate(all="ignore"):
        residual = np.max(np.abs(a @ x - np.eye(n)), initial=0.0)
        scale = (np.max(np.sum(np.abs(a), axis=1), initial=0.0)
                 * np.max(np.sum(np.abs(x), axis=1), initial=0.0))
    if math.isfinite(residual) and math.isfinite(scale):  # else elimination overflowed
        assert residual <= 4 * n * np.finfo(float).eps * scale


def _first_largest_pivot_and_the_floor(a, col):
    # zeros in columns ..col, then m I on the leading block, m = max(1,
    # max|entry|): elimination reaches column col with its rows unchanged,
    # every pivot before it is m, and the floor is 1e-12 m
    b = a.copy()
    b[:, :col + 1] = 0.0
    m = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    b[:col, :col] = m * np.eye(col)
    floor = 1e-12 * m
    # a's candidates, scaled by a power of two to below the floor
    top = float(np.max(np.abs(a[col:, col])))
    scale = 2.0 ** math.floor(math.log2(0.1 * floor / top)) if top >= floor else 1.0
    b[col:, col] = a[col:, col] * scale
    first = b[col + int(np.argmax(np.abs(b[col:, col]))), col]
    with pytest.raises(SingularMatrixError, match=_pivot_error(first, col)):
        inverse(b)
    # a lone candidate at the floor passes; one just below it raises
    b[col:, col] = 0.0
    b[col, col] = floor
    try:
        inverse(b)
    except SingularMatrixError as exc:
        assert int(str(exc).rsplit(" ", 1)[1]) > col
    b[col, col] = math.nextafter(floor, 0.0)
    with pytest.raises(SingularMatrixError, match=_pivot_error(b[col, col], col)):
        inverse(b)


class TestInverseContract:
    """The documented contract of ``inverse``: the pivot is the first largest
    magnitude of its column, or its first nan; a pivot below 1e-12 max(1,
    max|entry|) raises SingularMatrixError naming it; A A^-1 = I to rounding."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(_SQUARES)
    @example(np.zeros((0, 0)))
    # rows 0 and 1 tie in |column 0|
    @example(np.array([[1.0, 3.0, 0.1], [-1.0, 0.7, 0.3], [0.2, 0.9, 1.1]]))
    # tied pivots in both columns, one of them -0.0 after elimination
    @example(np.array([[1.0, 2.0, -0.0], [-1.0, 0.0, 3.0], [1.0, -2.0, 0.5]]))
    @example(_NAN_PIVOT)
    def test_on_drawn_matrices(self, a):
        """a multiplies back to I or raises naming a pivot below the floor;
        and, with elimination led to each column of a in turn, the first
        largest candidate is the pivot and the floor is the least that passes."""
        _multiplies_back_or_names_a_pivot_below_the_floor(a)
        for col in range(len(a)):
            _first_largest_pivot_and_the_floor(a, col)

    def test_nan_pivot_is_taken(self):
        """Column 2's first nan is the pivot: the finite entry beside it, under
        the floor, would raise."""
        assert np.isnan(inverse(_NAN_PIVOT)).all()

    @pytest.mark.parametrize("m, error, message", [
        ([1.0, 2.0], InvalidInputError, "expected a 2-D matrix, got ndim=1"),
        ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], InvalidInputError,
         "expected a square matrix, got shape (2, 3)"),
        ([[1.0, math.inf], [0.0, 1.0]], InvalidInputError, "matrix has non-finite entries"),
        ([[0.0, 0.0], [0.0, 0.0]], SingularMatrixError, "pivot 0.000e+00 below tolerance in column 0"),
        ([[1.0, 2.0], [2.0, 4.0]], SingularMatrixError, "pivot 0.000e+00 below tolerance in column 1"),
    ])
    def test_error_messages(self, m, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            inverse(m)


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
        """Same bits where numpy's sum of squares is finite or meets a nan or an
        inf entry; where it overflows, the norm of v / max|v|, scaled back."""
        with np.errstate(all="ignore"):
            for v in _views(a):
                norm = np.linalg.norm(v)
                if math.isfinite(norm) or not np.isfinite(v).all():
                    assert np.float64(frobenius(v)).tobytes() == norm.tobytes()
                else:
                    top = np.max(np.abs(v))
                    assert frobenius(v) == top * np.linalg.norm(v / top)

    def test_overflowing_squares_give_a_finite_norm(self):
        assert frobenius(np.array([1e200, 1.0])) == 1e200
        assert frobenius(np.full((2, 2), 1e300)) == 2e300
        assert frobenius(np.array([1.7976931348623157e308, 1.7976931348623157e308])) == math.inf


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


def test_relative_residual_where_the_squares_overflow():
    assert relative_residual(np.array([3.0, 4.0]), np.zeros(2)) == 5.0
    got = relative_residual(np.array([1e200, 0.0]), np.array([0.0, 1e200]))
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-15)


def _is_frobenius(node):
    return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "frobenius"


def _hand_residuals(tree):
    """Line numbers of ``frobenius(x) / (1.0 + frobenius(y))`` and of
    ``frobenius(a - a.T)`` or ``frobenius(a + a.T)`` written out by hand."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            scale = node.right
            if (_is_frobenius(node.left) and isinstance(scale, ast.BinOp)
                    and isinstance(scale.op, ast.Add) and _is_frobenius(scale.right)):
                yield node.lineno
        elif _is_frobenius(node) and node.args and isinstance(node.args[0], ast.BinOp):
            arg = node.args[0]
            if (isinstance(arg.op, (ast.Add, ast.Sub))
                    and ast.unparse(arg.right) == ast.unparse(arg.left) + ".T"):
                yield node.lineno


def test_one_relative_residual():
    """Every relative residual and (anti)symmetry test of the package goes
    through ``linalg.relative_residual``."""
    root = pathlib.Path(puosc.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(root.glob("*.py")) if path.name != "linalg.py"
             for line in _hand_residuals(ast.parse(path.read_text()))]
    assert found == []
    planted = "r = frobenius(x - y) / (1.0 + frobenius(y))\nlinalg.frobenius(a + a.T) > 1e-12"
    assert list(_hand_residuals(ast.parse(planted))) == [1, 2]


def _unread_parameters(tree):
    """(function, parameter) of each public module-level function or method
    whose body never reads the parameter."""
    for scope in (tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))):
        for fn in scope.body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                args = fn.args
                read = {node.id for statement in fn.body for node in ast.walk(statement)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
                yield from ((fn.name, a.arg) for a in (*args.posonlyargs, *args.args,
                            *args.kwonlyargs, args.vararg, args.kwarg) if a and a.arg not in read)


def test_every_parameter_is_read():
    """No public function or method of the package accepts an argument that
    it ignores."""
    root = pathlib.Path(puosc.__file__).parent
    found = [f"{path.stem}.{fn}({arg})" for path in sorted(root.glob("*.py"))
             if path.name != "__main__.py"
             for fn, arg in _unread_parameters(ast.parse(path.read_text()))]
    assert found == []
    planted = "def f(a, *b, c, **d):\n    a = c\nclass K:\n    def m(self, e):\n        pass"
    assert list(_unread_parameters(ast.parse(planted))) == [
        ("f", "a"), ("f", "b"), ("f", "d"), ("m", "self"), ("m", "e")]


class TestExpm:
    def test_zero_matrix(self):
        # exactly the identity, +0.0 off the diagonal, from +0.0 or -0.0
        for n in range(9):
            for zero in (np.zeros((n, n)), -np.zeros((n, n))):
                assert expm(zero).tobytes() == np.eye(n).tobytes()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(hnp.arrays(np.float64, st.integers(0, 6).map(lambda n: (n, n)), elements=st.one_of(
        st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 0.1, -0.1, 0.05, 0.2, 1e-300]))))
    def test_squaring_count_is_numpys_one_norm(self, a):
        norm = np.linalg.norm(a, 1)
        want = max(0, int(np.ceil(np.log2(norm / 0.1)))) if norm > 0.1 else 0
        assert _squarings(a) == want

    @pytest.mark.parametrize("a", [np.full((2, 2), 1e308), 5e307 * np.eye(4)],
                             ids=["norm-overflows", "norm-over-theta-overflows"])
    def test_overflowing_one_norm_is_refused(self, a):
        # numpy's overflow warning on the way is not what this test is about
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="too large"):
            expm(a)

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

    def test_rejects_huge_asymmetric(self):
        with pytest.raises(InvalidInputError, match="symmetric"):
            leading_minors([[1e200, 1e200], [-1e200, 1e200]])

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
