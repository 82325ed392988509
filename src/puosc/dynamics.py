"""Classical solutions, numerical integration and interaction-term analysis.

Integration is fixed-step classical RK4: the systems are small and smooth,
and a reproducible grid keeps conservation-drift assertions meaningful.

The RK4 loops step four Python floats.  Numpy 4-vectors and a 4x4 matvec per
stage cost about ten times as much per step in interpreter overhead.  The
float loops do the same IEEE operations in the same order (the matvec's zero
products drop out exactly), so their trajectories are bit-identical to the
vector form's.  ``integrate`` steps both fields, ``LinearField`` and
``PotentialField``, in one loop written out for the companion form: each
stage's derivative is (x1, x2, x3, m30 * x0 + m32 * x2), plus V'(x0) or
W'(x2) when a potential is given, and the loop checks finiteness once per
chunk of steps instead of once per step.  ``_rk4`` takes any right-hand side
``rhs(x0, x1, x2, x3) -> (f0, f1, f2, f3)``; it steps the (x, y) system of
``two_route_max_error``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .core import (PhaseState, PoissonTensor, PuParams, QuadHamiltonian,
                   companion_field, hamiltonian_h1, hamiltonian_h2,
                   poisson_j1, poisson_j2)
from .errors import (ConstructionError, DivergenceError, InconclusiveTestError,
                     InvalidInputError, ParameterDomainError)
from .linalg import inverse, nullspace
from .modes import phase_state
from .symmetry import solution_terms
from .transform import _sqrt_or_raise, build, forward, inverse_jacobian


@dataclass(frozen=True)
class ClassicalSolution:
    p: PuParams
    amplitudes: tuple[float, float, float, float]
    regime: str

    def __post_init__(self):
        # raises InvalidRegimeError when regime and parameters disagree
        solution_terms(self.regime, self.amplitudes, self.p)


def eval_solution(sol: ClassicalSolution, t):
    """Exact phase state of the general solution at a float time t, or the
    (n, 4) array of its states at an array of n times."""
    return phase_state(solution_terms(sol.regime, sol.amplitudes, sol.p), t)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """Interaction term: a function of q (kind 'on_q') or of qdd ('on_qdd')."""

    kind: str
    value: Callable[[float], float]
    derivative: Callable[[float], float]
    name: str

    def __post_init__(self):
        if self.kind not in ("on_q", "on_qdd"):
            raise InvalidInputError(f"potential kind must be on_q or on_qdd, got {self.kind!r}")
        h = 1e-5
        for x in (-1.5, -0.4, 0.3, 1.2):
            fd = (self.value(x + h) - self.value(x - h)) / (2.0 * h)
            if abs(fd - self.derivative(x)) > 1e-6 * (1.0 + abs(fd)):
                raise InvalidInputError(
                    f"potential {self.name!r}: derivative inconsistent at {x}")


def quartic_potential(lam: float = 0.25, kind: str = "on_q") -> Potential:
    return Potential(kind, lambda x: lam * x ** 4 / 4.0, lambda x: lam * x ** 3,
                     f"quartic(lam={lam})")


def cubic_potential(lam: float = 0.25, kind: str = "on_q") -> Potential:
    return Potential(kind, lambda x: lam * x ** 3 / 3.0, lambda x: lam * x ** 2,
                     f"cubic(lam={lam})")


def cosine_potential(lam: float = 1.0, kind: str = "on_q") -> Potential:
    return Potential(kind, lambda x: lam * (1.0 - math.cos(x)), lambda x: lam * math.sin(x),
                     f"cosine(lam={lam})")


_POTENTIALS = {"quartic": quartic_potential, "cubic": cubic_potential,
               "cosine": cosine_potential}


def parse_potential(text: str, kind: str = "on_q") -> Potential:
    """Parse 'name' or 'name:param=value' into a built-in potential."""
    name, _, rest = text.partition(":")
    if name not in _POTENTIALS:
        raise InvalidInputError(f"unknown potential {name!r} (choose from {sorted(_POTENTIALS)})")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if key.strip() != "lam" or not val:
                raise InvalidInputError(f"bad potential parameter {item!r} (expected lam=<value>)")
            try:
                lam = float(val)
            except ValueError:
                lam = math.nan
            if not math.isfinite(lam):
                raise InvalidInputError(
                    f"potential parameter lam: expected a finite number, got {val!r}")
            kwargs["lam"] = lam
    return _POTENTIALS[name](kind=kind, **kwargs)


# ---------------------------------------------------------------------------
# Fields and integration
# ---------------------------------------------------------------------------

class LinearField:
    """dv/dt = M v for the companion matrix M: (x1, x2, x3, m30 x0 + m32 x2)."""

    pot = None

    def __init__(self, p: PuParams):
        self.p = p
        m = companion_field(p)
        self._m30, self._m32 = float(m[3, 0]), float(m[3, 2])


class PotentialField(LinearField):
    """dv/dt = M v + (0, 0, 0, V'(q)) or the on_qdd analogue with W'(qdd)."""

    def __init__(self, p: PuParams, pot: Potential):
        super().__init__(p)
        self.pot = pot


# rows of a trajectory whose derived columns (charges, potential) are held
# at once: simulate's CSV and conservation_report walk a trajectory in
# blocks of this many rows, so their extra memory does not grow with it
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (n, 4)

    def final_state(self) -> PhaseState:
        return PhaseState.from_array(self.states[-1])

    def blocks(self) -> Iterator[Trajectory]:
        """The trajectory as views of consecutive pieces of BLOCK_ROWS rows
        (the last one shorter)."""
        for start in range(0, len(self.times), BLOCK_ROWS):
            stop = start + BLOCK_ROWS
            yield Trajectory(self.times[start:stop], self.states[start:stop])


_CHUNK = 1024  # steps buffered between writes into the state array
# the most steps integrate takes (and samples ``puosc flow`` writes): 10**7
# rows of states are 320 MB, and a larger count is refused before any
# array is allocated
MAX_STEPS = 10 ** 7


def _diverged(i: int, h: float, states: np.ndarray) -> DivergenceError:
    """The error for a non-finite step i, carrying the finite states 0..i,
    which the caller has written into ``states``."""
    return DivergenceError(f"integration diverged at t = {(i + 1) * h:.6g}",
                           t_reached=(i + 1) * h, states=states[:i + 1])


def _start(v0, n_steps: int):
    """The state array with v0 in row 0, its flat view, and v0 as floats."""
    try:
        states = np.empty((n_steps + 1, 4))
    except MemoryError:  # at most MAX_STEPS rows, but more than memory can hold
        raise InvalidInputError(f"cannot hold the states of {n_steps:.6g} steps: "
                                "raise h or lower t_end") from None
    states[0] = v0
    # A numpy matvec never returns -0.0, so the vector form stepped a -0.0
    # entry of the initial state as +0.0; adding 0.0 does the same here.
    return states, states.reshape(-1), (float(x) + 0.0 for x in v0)


def _rk4(rhs, v0, h: float, n_steps: int) -> np.ndarray:
    """Classical RK4 on four floats; ``rhs(x0, x1, x2, x3)`` returns the
    four derivatives.  Returns the (n_steps + 1, 4) array of states; a
    non-finite step raises DivergenceError carrying the states before it."""
    states, flat, (w0, w1, w2, w3) = _start(v0, n_steps)
    hh, h6 = 0.5 * h, h / 6.0
    rows = []  # the chunk's states, four floats each
    for start in range(0, n_steps, _CHUNK):
        stop = min(start + _CHUNK, n_steps)
        for i in range(start, stop):
            try:
                a0, a1, a2, a3 = rhs(w0, w1, w2, w3)
                b0, b1, b2, b3 = rhs(w0 + hh * a0, w1 + hh * a1, w2 + hh * a2, w3 + hh * a3)
                c0, c1, c2, c3 = rhs(w0 + hh * b0, w1 + hh * b1, w2 + hh * b2, w3 + hh * b3)
                d0, d1, d2, d3 = rhs(w0 + h * c0, w1 + h * c1, w2 + h * c2, w3 + h * c3)
            except OverflowError:
                # float ** n raises where numpy's float64 returned inf
                flat[4 * start + 4:4 * i + 4] = rows
                raise _diverged(i, h, states) from None
            w0 = w0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
            w1 = w1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            w2 = w2 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
            w3 = w3 + h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
            # x - x is 0.0 for finite x and nan for inf or nan: an exact
            # finiteness test that cannot overflow
            if (w0 - w0) + (w1 - w1) + (w2 - w2) + (w3 - w3) != 0.0:
                flat[4 * start + 4:4 * i + 4] = rows
                raise _diverged(i, h, states)
            rows += w0, w1, w2, w3
        flat[4 * start + 4:4 * stop + 4] = rows
        rows.clear()
    return states


def _rk4_companion(field: LinearField, v0, h: float, n_steps: int) -> np.ndarray:
    """``_rk4`` for a ``LinearField`` or ``PotentialField``, whose derivative
    of (x0, x1, x2, x3) is (x1, x2, x3, m30 * x0 + m32 * x2 + dv), dv the
    potential's derivative at x0 (on_q) or x2 (on_qdd).  Stage k's
    derivative is the next stage's input shifted by one, so u, y and z below
    are the inputs of stages 2-4 and their first three entries the
    derivatives of stages 1-3.  A chunk runs to its end and a non-finite
    state is found in the written rows: the same first one the per-step test
    finds, since earlier rows are finite.  An exception stops the chunk; after
    a non-finite row it is that row's divergence, and before one an
    OverflowError is the step's own."""
    states, flat, (w0, w1, w2, w3) = _start(v0, n_steps)
    m30, m32, pot = field._m30, field._m32, field.pot
    dv = None if pot is None else pot.derivative
    on_qdd = pot is not None and pot.kind == "on_qdd"
    hh, h6 = 0.5 * h, h / 6.0
    rows = []
    for start in range(0, n_steps, _CHUNK):
        stop = min(start + _CHUNK, n_steps)
        try:
            for i in range(start, stop):
                a3 = m30 * w0 + m32 * w2
                if dv is not None:
                    a3 += dv(w2 if on_qdd else w0)
                u0, u1, u2, u3 = w0 + hh * w1, w1 + hh * w2, w2 + hh * w3, w3 + hh * a3
                b3 = m30 * u0 + m32 * u2
                if dv is not None:
                    b3 += dv(u2 if on_qdd else u0)
                y0, y1, y2, y3 = w0 + hh * u1, w1 + hh * u2, w2 + hh * u3, w3 + hh * b3
                c3 = m30 * y0 + m32 * y2
                if dv is not None:
                    c3 += dv(y2 if on_qdd else y0)
                z0, z1, z2, z3 = w0 + h * y1, w1 + h * y2, w2 + h * y3, w3 + h * c3
                d3 = m30 * z0 + m32 * z2
                if dv is not None:
                    d3 += dv(z2 if on_qdd else z0)
                w0 = w0 + h6 * (w1 + 2.0 * u1 + 2.0 * y1 + z1)
                w1 = w1 + h6 * (w2 + 2.0 * u2 + 2.0 * y2 + z2)
                w2 = w2 + h6 * (w3 + 2.0 * u3 + 2.0 * y3 + z3)
                w3 = w3 + h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
                rows += w0, w1, w2, w3
        except Exception as exc:
            # float ** n raises OverflowError where numpy's float64 returned
            # inf, and math.sin(inf) a ValueError
            flat[4 * start + 4:4 * i + 4] = rows
            _raise_if_diverged(start, i, h, states)
            if isinstance(exc, OverflowError):
                raise _diverged(i, h, states) from None
            raise
        flat[4 * start + 4:4 * stop + 4] = rows
        rows.clear()
        _raise_if_diverged(start, stop, h, states)
    return states


def _raise_if_diverged(start: int, stop: int, h: float, states: np.ndarray) -> None:
    """Raise the divergence at the first non-finite row of steps start..stop - 1."""
    finite = np.isfinite(states[start + 1:stop + 1]).all(axis=1)
    if not finite.all():
        raise _diverged(start + int(np.argmin(finite)), h, states)


def integrate(field: LinearField, v0: PhaseState, h: float, t_end: float) -> Trajectory:
    """Classical fixed-step RK4 from t = 0 over n = round(t_end / h) steps of
    h, rounded half to even: the grid is k * h for k = 0..n.  Its last time
    is n * h, not t_end, where h does not divide t_end: h = 0.6 and
    t_end = 1 end at t = 1.2, and h = 0.4 (2.5 steps) at t = 0.8."""
    if not 0.0 < h < math.inf:
        raise InvalidInputError("step size h must be positive and finite")
    if not h <= t_end < math.inf:
        raise InvalidInputError("t_end must be finite and at least one step")
    if t_end / h > MAX_STEPS:  # inf included
        raise InvalidInputError(f"cannot take {t_end / h:.12g} steps, at most {MAX_STEPS}: "
                                "raise h or lower t_end")
    n_steps = int(round(t_end / h))
    states = _rk4_companion(field, v0.as_array(), h, n_steps)
    times = np.arange(n_steps + 1) * h
    return Trajectory(times=times, states=states)


def charge_values(traj: Trajectory, charge: QuadHamiltonian,
                  augment: Potential | None = None) -> np.ndarray:
    """Charge evaluated along a trajectory, optionally with the potential added.

    Each value is 0.5 * sum_j sum_k (x_j * S_jk) * x_k, accumulated from
    +0.0 over j, then k: the order of ``einsum("ij,jk,ik->i", x, S, x)``,
    whose bits it reproduces.  Zero entries of S are skipped.  For finite
    states that is exact: their term is a signed zero, and an accumulator
    that starts at +0.0 never becomes -0.0, so adding it changes nothing.
    ``integrate`` returns only finite states.
    """
    x, s = traj.states, charge.matrix
    acc, term = np.zeros(len(x)), np.empty(len(x))
    # overflow gives inf or nan without a warning: a diverging simulate
    # writes such rows and reports where it diverged by itself
    with np.errstate(over="ignore", invalid="ignore"):
        for j, k in zip(*np.nonzero(s)):
            np.multiply(x[:, j], s[j, k], out=term)
            term *= x[:, k]
            acc += term
        vals = 0.5 * acc
        if augment is not None:
            vals = vals + potential_values(traj, augment)
    return vals


def potential_values(traj: Trajectory, pot: Potential) -> np.ndarray:
    """V(q) along a trajectory, or W(qdd) for an on_qdd potential."""
    col = traj.states[:, 0 if pot.kind == "on_q" else 2]
    try:
        return np.fromiter(map(pot.value, col.tolist()), float, len(col))
    except OverflowError:
        # float ** n raises where numpy's float64 returns inf, which it
        # does here without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return np.array([pot.value(v) for v in col])


def conservation_report(traj: Trajectory, charges: list[QuadHamiltonian],
                        augment: Potential | None = None) -> list[float]:
    """Max relative drift per charge: max_t |H(t) - H(0)| / (1 + |H(0)|).

    The charges are evaluated block by block of the trajectory and the
    maxima kept as they run.  A max is exact and np.maximum keeps a nan, so
    the drifts have the bits of one pass over all rows.
    """
    first = worst = None
    for part in traj.blocks():
        vals = [charge_values(part, charge, augment) for charge in charges]
        if first is None:
            first = [v[0] for v in vals]
        tops = [np.max(np.abs(v - v0)) for v, v0 in zip(vals, first)]
        worst = tops if worst is None else list(map(np.maximum, worst, tops))
    return [float(w / (1.0 + abs(v0))) for w, v0 in zip(worst, first)]


# ---------------------------------------------------------------------------
# Interaction analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompatibilityReport:
    """Residuals of J(theta) grad H_int = v_int over tensor directions
    (c1, c2) = (cos theta, sin theta) in the span of the two base tensors."""

    angles: np.ndarray
    residuals: np.ndarray
    scale: float
    compatible: list[int]
    compatible_ray: tuple[float, float] | None


def interaction_compatibility(p: PuParams, pot: Potential, rng) -> CompatibilityReport:
    """Scan 32 tensor directions for compatibility with the interacting flow.

    The interacting Hamiltonian is H1 + V(q) for an on_q potential and
    H2 + W(qdd) for an on_qdd one; the target is the interacting vector
    field, probed at 50 random states.  A direction is compatible when its
    residual is at most 1e-9 * scale.  The residuals of the other
    directions are returned, not judged: how far they must stay from zero
    is the caller's bound.
    """
    probe = rng.uniform(-1.0, 1.0, 8)
    if max(abs(pot.derivative(x) - pot.derivative(y))
           for x in probe for y in probe) < 1e-12:
        raise InconclusiveTestError("potential has constant derivative: test is degenerate")

    base = hamiltonian_h1(p) if pot.kind == "on_q" else hamiltonian_h2(p)
    grad_idx = 0 if pot.kind == "on_q" else 2
    m = companion_field(p)
    j1m, j2m = poisson_j1(p).matrix, poisson_j2(p).matrix
    states = rng.uniform(-1.0, 1.0, (50, 4))

    targets = states @ m.T
    dV = np.array([pot.derivative(v[grad_idx]) for v in states])
    targets[:, 3] += dV
    scale = float(np.mean(np.linalg.norm(targets, axis=1)))

    grads = states @ base.matrix.T
    grads[:, grad_idx] += dV

    angles = 2.0 * math.pi * np.arange(32) / 32
    residuals = np.empty(len(angles))
    for k, theta in enumerate(angles):
        j = math.cos(theta) * j1m + math.sin(theta) * j2m
        residuals[k] = np.max(np.linalg.norm(grads @ j.T - targets, axis=1))
    compatible = [k for k in range(len(angles)) if residuals[k] <= 1e-9 * scale]
    ray = None
    if len(compatible) == 1:
        theta = angles[compatible[0]]
        ray = (round(math.cos(theta), 12), round(math.sin(theta), 12))
    return CompatibilityReport(angles, residuals, scale, compatible, ray)


def interaction_transform_constraint(p: PuParams, g: float) -> tuple[float, float]:
    """The (ax, ay) pair for which the two-dimensional system supports an
    arbitrary q-potential: ax = -ay = sqrt(alpha^2 - 4 beta - 4 g)."""
    r = _sqrt_or_raise(p.alpha ** 2 - 4.0 * p.beta - 4.0 * g, "interaction constraint")
    if r == 0.0:
        raise ConstructionError("radicand zero: ax = 0 conflicts with ax != 0")
    return r, -r


def two_route_max_error(p: PuParams, g: float, pot: Potential, v0: PhaseState,
                        h: float = 1e-3, t_end: float = 10.0) -> float:
    """Compare the interacting flow against its two-dimensional image.

    Route 1 integrates the interacting fourth-order system directly.  Route 2
    maps the initial state through the constraint-compatible transformation
    (ax = -ay from the interaction constraint), integrates the coupled
    system in (x, y, px, py) with the induced potential V(-x-y), and pulls
    the trajectory back through W^-1.  Returns the max componentwise deviation.
    """
    if pot.kind != "on_q":
        raise InvalidInputError("the two-route comparison needs an on_q potential")
    ax, ay = interaction_transform_constraint(p, g)
    spec = build("Ta2+", p, ax=ax, ay=ay, g=g)
    winv = inverse_jacobian(spec)
    qx, qy = float(winv[0, 0]), float(winv[0, 1])
    bx, by = spec.bx, spec.by

    def xy_rhs(x, y, px, py):
        dv = pot.derivative(qx * x + qy * y)
        # d/dx V(q(x, y)) = -V'(q), likewise for y
        return px / ax, py / ay, -(bx * x + g * y - dv), -(by * y + g * x - dv)

    direct = integrate(PotentialField(p, pot), v0, h, t_end)
    xy = _rk4(xy_rhs, forward(spec, v0).as_array(), h, int(round(t_end / h)))
    return float(np.max(np.abs(xy @ winv.T - direct.states)))


# ---------------------------------------------------------------------------
# Structure discovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscoveryResult:
    pairs: list[tuple[PoissonTensor, QuadHamiltonian]]
    kernels: list[np.ndarray]
    skipped: list[np.ndarray] = field(default_factory=list)


# the upper-triangle positions (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
_UPPER_ROWS, _UPPER_COLS = np.triu_indices(4, 1)


def _antisym_from_params(c: np.ndarray) -> np.ndarray:
    """The antisymmetric K (or stack of them) with upper triangle c[..., :6]."""
    k = np.zeros(c.shape[:-1] + (4, 4))
    k[..., _UPPER_ROWS, _UPPER_COLS] = c
    k[..., _UPPER_COLS, _UPPER_ROWS] = -c
    return k


# K_j = _antisym_from_params(e_j): +1 and -1 at the j-th pair, +0.0 above
# and -0.0 below the diagonal elsewhere
_UNIT_ANTISYM = _antisym_from_params(np.eye(6))
_UNIT_ANTISYM.setflags(write=False)


def _discovery_operator(m: np.ndarray) -> np.ndarray:
    """The 16x6 matrix of c -> (K M + M^T K).ravel() for K = _antisym_from_params(c).

    Column j is (K_j M + M^T K_j).ravel().  Each entry of K_j M and M^T K_j
    is one exact product +-M[s, t] plus exact zeros, so one stacked matmul
    pair gives the bits of twelve 4x4 ones.
    """
    stack = _UNIT_ANTISYM @ m + m.T @ _UNIT_ANTISYM
    return np.ascontiguousarray(stack.reshape(6, 16).T)


def structure_discovery(p: PuParams) -> DiscoveryResult:
    """Solve the flow equation for (J, H) pairs from scratch.

    Parametrizes antisymmetric K with K M + M^T K = 0 (so that S = K M is
    symmetric), finds the kernel of the resulting linear operator, and inverts
    the kernel elements with condition number at most 1e8 to J = K^{-1}.
    Worse-conditioned directions are reported in ``skipped`` but not
    inverted.
    """
    if p.beta == 0.0:
        raise ParameterDomainError("structure discovery requires beta != 0")
    m = companion_field(p)
    kernel = nullspace(_discovery_operator(m))

    pairs, kernels, skipped = [], [], []
    for coeffs in kernel:
        k = _antisym_from_params(coeffs)
        kernels.append(k)
        svals = np.linalg.svd(k, compute_uv=False)
        if svals[-1] <= 0.0 or svals[0] / svals[-1] > 1e8:
            skipped.append(k)
            continue
        # the inverse is antisymmetric only to about cond(k) * eps
        jinv = inverse(k)
        j = PoissonTensor._exact(0.5 * (jinv - jinv.T))
        s = k @ m
        pairs.append((j, QuadHamiltonian._exact(0.5 * (s + s.T))))
    return DiscoveryResult(pairs=pairs, kernels=kernels, skipped=skipped)
