"""Model parameters, phase states, Hamiltonians and Poisson tensors.

The fourth-order oscillator q'''' + alpha*q'' + beta*q = 0 is handled as a
linear flow on the phase vector (q, qd, qdd, qddd).  All Hamiltonians are
quadratic forms stored as symmetric 4x4 matrices and all brackets are
constant antisymmetric 4x4 tensors, so every structural identity reduces to
matrix algebra.

Forms and tensors are built on one of two paths.  The public constructors
``QuadHamiltonian(s)`` and ``PoissonTensor(j)`` take any input: they copy it,
require a finite square matrix, reject one whose (anti)symmetric part misses
it by more than 1e-12 relative, and store 0.5 * (a +- a.T) once that is
finite.  The private ``_exact(a)`` constructors are for float arrays the
library has made (anti)symmetric by construction.  They call ``__init__``
with the private ``_trusted`` flag, so every build still runs ``__init__``,
and skip the copy, the shape check and the asymmetry test, which cannot fire
on such input.

``QuadHamiltonian._exact(a)`` takes an array that is symmetric bit for bit,
signed zeros included.  Every site passes one:

- sums, differences, scalings and negations of stored forms, and
  ``combined_form``: each entry pair (i, j), (j, i) goes through the same
  IEEE operations on the same operands;
- the literals H1, H2 and the Ostrogradsky form: each off-diagonal pair is
  one expression written twice;
- ``_square_piece`` and the Tb2 branch of ``transform.pullback_form``: sums
  and scalings of outer products v v^T, and x*y is y*x in IEEE arithmetic;
- ``transform.legendre``: a diagonal plus g times an exactly symmetric
  coupling;
- ``quad_bracket``, ``hierarchy.next_charge`` and the forms of
  ``dynamics.structure_discovery``: 0.5 * (b + b.T), and x + y is y + x.

For such an array 0.5 * (a + a.T) is 0.5 * (2 a), which is a itself unless
a + a overflows.  So the exact path stores a, once ``a + a`` is finite: that
one test raises for a non-finite entry and for the overflow, the errors the
public path raises for its stored 0.5 * (a + a.T).  The stored bits and the
raised errors are the same on either path.  The array passed in becomes the
stored read-only matrix, so it must be fresh and not kept by the caller, or
already a read-only stored matrix.  ``PoissonTensor._exact`` still stores
0.5 * (a - a.T): a pair of underflowed or negatively scaled zeros in
``combined_tensor`` can differ in sign from the convention that
antisymmetrization fixes.  Products such as W^T S W (pullbacks, Lie
derivatives, basis changes) stay on the public path: BLAS may round their
two triangles differently, so the asymmetry test means something there.

Among the exact-path builders, ``combined_form(p, c3, c4)`` builds
c3 H1 + c4 H2 as one form instead of three.  Its bits are those of
``c3 * H1 + c4 * H2``: scaling an exactly symmetric array keeps it exactly
symmetric, so the two scaled forms of that sum store their arrays unchanged.
Only where a scaled term alone overflows when doubled (an entry beyond half
the largest float) did the three builds raise while one build may not.

The structures that depend on (alpha, beta) alone are built once per
``PuParams`` instance: ``companion_field``, ``hamiltonian_h1``/``h2``,
``poisson_j1``/``j2``, ``hierarchy.recursion_operator``,
``symmetry.standard_basis``, and in ``verify`` the reference orbit of its
two RK4 checks and the omega = (2, 1) stand-in for degenerate parameters.
The first call stores its result in the instance's ``__dict__`` and later
calls return that same object, so every array it hands out is read-only.  The memo lives and dies with its instance:
there is no global cache to size or clear, and equal but distinct parameters
(alpha = 0.0 and alpha = -0.0) keep their own signed zeros.  A memoized
value must not hold its ``PuParams``, not even through a field or a solution
object: the instance would reach itself through its own memo, and only the
cyclic garbage collector would free it.  The memo is not part of the value:
fields, ``==``, ``hash`` and ``repr`` ignore it, and a copy or an unpickled
instance starts without it.  Functions that take arguments besides the
parameters (``combine``, ``charge_ladder``, the kernels in ``linalg``) are
not memoized.  Neither are ``symmetry.solve_symmetries(p)`` and
``dynamics.structure_discovery(p)``, though they take p alone: each returns a
fresh list, ``DiscoveryResult.kernels`` holds writable arrays that a shared
copy would let one caller change under another, and the package keeps no
process-wide store of results.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParameterDomainError
from .linalg import as_matrix, relative_residual, require_finite

DEGENERACY_TOL = 1e-8  # p.degenerate holds where |w1^2 - w2^2| <= DEGENERACY_TOL * max(w1^2, w2^2)
_MEMO = "_memo"  # the key of a PuParams' memo dict in its __dict__
_MISSING = object()  # a memo entry that is not there yet


@dataclass(frozen=True)
class PuParams:
    """Oscillator parameters: alpha multiplies qdd, beta multiplies q."""

    alpha: float
    beta: float
    omega1: float | None = None
    omega2: float | None = None

    def __post_init__(self):
        for name in ("omega1", "omega2", "alpha", "beta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidInputError(f"parameter {name} must be finite, got {value!r}")
        w = (self.omega1, self.omega2)
        if w != (None, None):
            if None in w or min(w) < 0.0:
                raise InvalidInputError(f"frequencies must be a non-negative pair, got {w!r}")
            s1, s2 = w[0] * w[0], w[1] * w[1]
            for name, want, got in (("alpha", self.alpha, s1 + s2), ("beta", self.beta, s1 * s2)):
                if abs(got - want) > 1e-12 * got or math.isinf(got):
                    raise InvalidInputError(f"frequencies {w!r} disagree with {name} = {want!r}")

    @classmethod
    def from_frequencies(cls, omega1: float, omega2: float) -> "PuParams":
        """Build from the two mode frequencies: alpha = w1^2 + w2^2, beta = w1^2 w2^2,
        squared as floats, as ``__post_init__`` squares them to check the result."""
        omega1, omega2 = float(omega1), float(omega2)
        w1sq, w2sq = omega1 * omega1, omega2 * omega2
        return cls(alpha=w1sq + w2sq, beta=w1sq * w2sq,
                   omega1=omega1, omega2=omega2)

    def frequencies(self) -> tuple[float, float]:
        """The (omega1, omega2) pair, derived from (alpha, beta) if needed."""
        if self.omega1 is not None and self.omega2 is not None:
            return self.omega1, self.omega2
        disc = self.alpha * self.alpha - 4.0 * self.beta
        if disc < 0.0:
            raise ParameterDomainError("alpha^2 - 4 beta < 0: no real frequencies")
        root = math.sqrt(disc)
        w1sq = 0.5 * (self.alpha + root)
        w2sq = 0.5 * (self.alpha - root)
        if w1sq < 0.0 or w2sq < 0.0:
            raise ParameterDomainError("negative squared frequency: no real frequencies")
        return math.sqrt(w1sq), math.sqrt(w2sq)

    @property
    def degenerate(self) -> bool:
        w1, w2 = self.frequencies()
        return abs(w1 * w1 - w2 * w2) <= DEGENERACY_TOL * max(w1 * w1, w2 * w2)

    def __getstate__(self):
        """Copy and pickle the fields only, never the memo."""
        state = dict(vars(self))
        state.pop(_MEMO, None)
        return state


def _memoized(fn):
    """Memoize ``fn(p)`` on the ``PuParams`` instance ``p`` (see the module
    docstring).  A call that raises stores nothing."""
    @functools.wraps(fn)
    def wrapper(p: PuParams):
        memo = vars(p).setdefault(_MEMO, {})
        value = memo.get(fn, _MISSING)
        if value is _MISSING:
            value = memo[fn] = fn(p)
        return value
    return wrapper


@dataclass(frozen=True)
class PhaseState:
    """The phase vector (q, qd, qdd, qddd)."""

    q: float
    qd: float
    qdd: float
    qddd: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.q, self.qd, self.qdd, self.qddd)):
            raise InvalidInputError("phase state has non-finite entries")

    def as_array(self) -> np.ndarray:
        return np.array([self.q, self.qd, self.qdd, self.qddd])

    @classmethod
    def from_array(cls, v) -> "PhaseState":
        v = np.asarray(v, dtype=float)
        return cls(float(v[0]), float(v[1]), float(v[2]), float(v[3]))


def _store(form, a: np.ndarray, probe: np.ndarray | None = None) -> None:
    """Store a as the read-only matrix of form once probe (default a) is finite."""
    require_finite(a if probe is None else probe)
    a.setflags(write=False)
    object.__setattr__(form, "matrix", a)


def _tovec(v) -> np.ndarray:
    if hasattr(v, "as_array"):
        return v.as_array()
    return np.asarray(v, dtype=float)


class _FrozenMatrix:
    """An immutable read-only ``matrix``; subclasses keep ``__slots__ = ()``."""

    __slots__ = ("matrix",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"{type(self).__name__}({self.matrix.tolist()})"


class QuadHamiltonian(_FrozenMatrix):
    """Quadratic form H(v) = 1/2 v^T S v with symmetric matrix S."""

    __slots__ = ()

    def __init__(self, s, *, _trusted: bool = False):
        if _trusted:
            # 0.5 * (s + s.T) is s unless s + s overflows (module docstring)
            _store(self, s, s + s)
        else:
            a = as_matrix(s, square=True)
            if not relative_residual(a, a.T) <= 1e-12:
                raise InvalidInputError("Hamiltonian matrix is not symmetric")
            _store(self, 0.5 * (a + a.T))

    @classmethod
    def _exact(cls, a: np.ndarray) -> "QuadHamiltonian":
        """The form of a fresh float array that is symmetric bit for bit,
        stored as it is (see the module docstring)."""
        return cls(a, _trusted=True)

    def __reduce__(self):
        # the stored matrix is symmetric bit for bit
        return type(self)._exact, (self.matrix,)

    def value(self, v) -> float:
        x = _tovec(v)
        return float(0.5 * x @ self.matrix @ x)

    def gradient(self, v) -> np.ndarray:
        return self.matrix @ _tovec(v)

    def __add__(self, other: "QuadHamiltonian") -> "QuadHamiltonian":
        return QuadHamiltonian._exact(self.matrix + other.matrix)

    def __sub__(self, other: "QuadHamiltonian") -> "QuadHamiltonian":
        return QuadHamiltonian._exact(self.matrix - other.matrix)

    def __mul__(self, c: float) -> "QuadHamiltonian":
        return QuadHamiltonian._exact(self.matrix * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "QuadHamiltonian":
        return QuadHamiltonian._exact(-self.matrix)


class PoissonTensor(_FrozenMatrix):
    """Constant antisymmetric tensor J defining {F, G} = grad F . J . grad G."""

    __slots__ = ()

    def __init__(self, j, *, _trusted: bool = False):
        if _trusted:
            a = j
        else:
            a = as_matrix(j, square=True)
            if not relative_residual(a, -a.T) <= 1e-12:
                raise InvalidInputError("Poisson tensor is not antisymmetric")
        _store(self, 0.5 * (a - a.T))

    @classmethod
    def _exact(cls, a: np.ndarray) -> "PoissonTensor":
        """The tensor of a float array that is antisymmetric by construction."""
        return cls(a, _trusted=True)

    def __reduce__(self):
        # symmetrizing the stored matrix again reproduces its bits
        return type(self)._exact, (self.matrix,)


@_memoized
def companion_field(p: PuParams) -> np.ndarray:
    """Matrix M of the linear flow dv/dt = M v equivalent to the fourth-order equation."""
    m = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-p.beta, 0.0, -p.alpha, 0.0],
    ])
    m.setflags(write=False)
    return m


@_memoized
def hamiltonian_h1(p: PuParams) -> QuadHamiltonian:
    """H1 = qdd^2/2 - alpha qd^2/2 - beta q^2/2 - qd qddd."""
    a, b = p.alpha, p.beta
    return QuadHamiltonian._exact(np.array([
        [-b, 0.0, 0.0, 0.0],
        [0.0, -a, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ], dtype=float))


@_memoized
def hamiltonian_h2(p: PuParams) -> QuadHamiltonian:
    """H2 = beta qd^2/2 - alpha qdd^2/2 - qddd^2/2 - beta q qdd."""
    a, b = p.alpha, p.beta
    return QuadHamiltonian._exact(np.array([
        [0.0, 0.0, -b, 0.0],
        [0.0, b, 0.0, 0.0],
        [-b, 0.0, -a, 0.0],
        [0.0, 0.0, 0.0, -1.0],
    ], dtype=float))


@_memoized
def poisson_j1(p: PuParams) -> PoissonTensor:
    """First bracket: {qd,qdd}=1, {qddd,q}=1, {qdd,qddd}=alpha."""
    a = p.alpha
    return PoissonTensor._exact(np.array([
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, a],
        [1.0, 0.0, -a, 0.0],
    ], dtype=float))


@_memoized
def poisson_j2(p: PuParams) -> PoissonTensor:
    """Second bracket: {q,qd}=1/beta, {qdd,qddd}=-1.  Needs beta != 0."""
    if p.beta == 0.0:
        raise ParameterDomainError("second Poisson tensor requires beta != 0")
    ib = 1.0 / p.beta
    return PoissonTensor._exact(np.array([
        [0.0, ib, 0.0, 0.0],
        [-ib, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ], dtype=float))


def combined_tensor(p: PuParams, c1: float, c2: float) -> PoissonTensor:
    """The tensor c1 J1 + c2 J2."""
    return PoissonTensor._exact(c1 * poisson_j1(p).matrix + c2 * poisson_j2(p).matrix)


def combined_form(p: PuParams, c3: float, c4: float) -> QuadHamiltonian:
    """The form c3 H1 + c4 H2, built once (see the module docstring)."""
    return QuadHamiltonian._exact(c3 * hamiltonian_h1(p).matrix + c4 * hamiltonian_h2(p).matrix)


def flow_residual(j: PoissonTensor, h: QuadHamiltonian, p: PuParams) -> float:
    """||J S - M|| / (1 + ||M||): zero iff (J, H) generates the oscillator flow."""
    return relative_residual(j.matrix @ h.matrix, companion_field(p))


def quad_bracket(j: PoissonTensor, f: QuadHamiltonian, g: QuadHamiltonian) -> QuadHamiltonian:
    """The bracket {F, G} of two quadratic forms, again a quadratic form.

    With F = v^T Sf v / 2 the gradient is Sf v, so {F,G}(v) = v^T Sf J Sg v,
    whose symmetric matrix in the 1/2 v^T S v convention is
    Sf J Sg - Sg J Sf (pointwise equal to grad F . J . grad G).  That
    difference is symmetric only up to rounding on the scale of the operands,
    which a near-zero bracket of commuting charges cannot absorb, so it is
    symmetrized before the form is built.
    """
    sf, sg, jm = f.matrix, g.matrix, j.matrix
    b = sf @ jm @ sg - sg @ jm @ sf
    return QuadHamiltonian._exact(0.5 * (b + b.T))


def ostrogradsky_matrix(p: PuParams) -> np.ndarray:
    """Linear map T with (q1, q2, pi1, pi2) = T (q, qd, qdd, qddd):
    q1 = q, q2 = qd, pi1 = -qddd - alpha qd, pi2 = qdd."""
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, -p.alpha, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])


def ostrogradsky_hamiltonian(p: PuParams) -> QuadHamiltonian:
    """H(q1,q2,pi1,pi2) = pi1 q2 + pi2^2/2 + alpha q2^2/2 - beta q1^2/2."""
    a, b = p.alpha, p.beta
    return QuadHamiltonian._exact(np.array([
        [-b, 0.0, 0.0, 0.0],
        [0.0, a, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ], dtype=float))


def canonical_tensor() -> PoissonTensor:
    """Canonical bracket {q_i, pi_j} = delta_ij on (q1, q2, pi1, pi2)."""
    return PoissonTensor._exact(np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ], dtype=float))
