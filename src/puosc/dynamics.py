"""Classical solutions, numerical integration and interaction-term analysis.

Integration is fixed-step classical RK4: the systems are small and smooth,
and a reproducible grid keeps conservation-drift assertions meaningful.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (PhaseState, PoissonTensor, PuParams, QuadHamiltonian,
                   companion_field, hamiltonian_h1, hamiltonian_h2,
                   poisson_j1, poisson_j2)
from .errors import (ComplexBranchError, ConstructionError, DivergenceError,
                     InconclusiveTestError, InvalidInputError,
                     ParameterDomainError)
from .linalg import inverse, nullspace
from .modes import phase_state
from .symmetry import solution_terms


@dataclass(frozen=True)
class ClassicalSolution:
    p: PuParams
    amplitudes: tuple[float, float, float, float]
    regime: str

    def __post_init__(self):
        # raises InvalidRegimeError when regime and parameters disagree
        solution_terms(self.regime, self.amplitudes, self.p)


def eval_solution(sol: ClassicalSolution, t: float) -> PhaseState:
    """Exact phase state of the general solution at time t."""
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

    def argument(self, v: PhaseState) -> float:
        return v.q if self.kind == "on_q" else v.qdd


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
            kwargs["lam"] = float(val)
    return _POTENTIALS[name](kind=kind, **kwargs)


# ---------------------------------------------------------------------------
# Fields and integration
# ---------------------------------------------------------------------------

class LinearField:
    """dv/dt = M v."""

    def __init__(self, p: PuParams):
        self.p = p
        self._m = companion_field(p)

    def rhs(self, v: np.ndarray) -> np.ndarray:
        return self._m @ v


class PotentialField:
    """dv/dt = M v + (0, 0, 0, V'(q)) or the on_qdd analogue with W'(qdd)."""

    def __init__(self, p: PuParams, pot: Potential):
        self.p = p
        self.pot = pot
        self._m = companion_field(p)
        self._idx = 0 if pot.kind == "on_q" else 2

    def rhs(self, v: np.ndarray) -> np.ndarray:
        out = self._m @ v
        out[3] += self.pot.derivative(v[self._idx])
        return out


@dataclass(frozen=True)
class Trajectory:
    h: float
    times: np.ndarray
    states: np.ndarray  # shape (n, 4)

    @property
    def samples(self) -> list[tuple[float, PhaseState]]:
        return [(float(t), PhaseState.from_array(row))
                for t, row in zip(self.times, self.states)]

    def final_state(self) -> PhaseState:
        return PhaseState.from_array(self.states[-1])


def _rk4(rhs, w0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    states = np.empty((n_steps + 1, w0.size))
    w = w0.astype(float)
    states[0] = w
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            k1 = rhs(w)
            k2 = rhs(w + 0.5 * h * k1)
            k3 = rhs(w + 0.5 * h * k2)
            k4 = rhs(w + h * k3)
            w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(w)):
                raise DivergenceError(
                    f"integration diverged at t = {(i + 1) * h:.6g}", t_reached=(i + 1) * h)
            states[i + 1] = w
    return states


def integrate(field, v0: PhaseState, h: float, t_end: float) -> Trajectory:
    """Classical fixed-step RK4 from t = 0 to t_end (inclusive grid)."""
    if h <= 0.0:
        raise InvalidInputError("step size h must be positive")
    if t_end < h:
        raise InvalidInputError("t_end must be at least one step")
    n_steps = int(round(t_end / h))
    states = _rk4(field.rhs, v0.as_array(), h, n_steps)
    times = np.arange(n_steps + 1) * h
    return Trajectory(h=h, times=times, states=states)


def charge_values(traj: Trajectory, charge: QuadHamiltonian,
                  augment: Potential | None = None) -> np.ndarray:
    """Charge evaluated along a trajectory, optionally with the potential added."""
    s = charge.matrix
    vals = 0.5 * np.einsum("ij,jk,ik->i", traj.states, s, traj.states)
    if augment is not None:
        col = 0 if augment.kind == "on_q" else 2
        vals = vals + np.array([augment.value(x) for x in traj.states[:, col]])
    return vals


def conservation_report(traj: Trajectory, charges: list[QuadHamiltonian],
                        augment: Potential | None = None) -> list[float]:
    """Max relative drift per charge: max_t |H(t) - H(0)| / (1 + |H(0)|)."""
    drifts = []
    for charge in charges:
        vals = charge_values(traj, charge, augment)
        drifts.append(float(np.max(np.abs(vals - vals[0])) / (1.0 + abs(vals[0]))))
    return drifts


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


def interaction_compatibility(p: PuParams, pot: Potential, n_angles: int = 32,
                              n_states: int = 50, rng=None,
                              zero_tol: float = 1e-9,
                              floor: float = 1e-3) -> CompatibilityReport:
    """Scan tensor directions for compatibility with the interacting flow.

    The interacting Hamiltonian is H1 + V(q) for an on_q potential and
    H2 + W(qdd) for an on_qdd one; the target is the interacting vector
    field.  A direction is compatible when its residual is below
    zero_tol * scale; all others must stay above floor * scale.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    probe = rng.uniform(-1.0, 1.0, 8)
    if max(abs(pot.derivative(x) - pot.derivative(y))
           for x in probe for y in probe) < 1e-12:
        raise InconclusiveTestError("potential has constant derivative: test is degenerate")

    base = hamiltonian_h1(p) if pot.kind == "on_q" else hamiltonian_h2(p)
    grad_idx = 0 if pot.kind == "on_q" else 2
    m = companion_field(p)
    j1m, j2m = poisson_j1(p).matrix, poisson_j2(p).matrix
    states = rng.uniform(-1.0, 1.0, (n_states, 4))

    targets = states @ m.T
    dV = np.array([pot.derivative(v[grad_idx]) for v in states])
    targets[:, 3] += dV
    scale = float(np.mean(np.linalg.norm(targets, axis=1)))

    grads = states @ base.matrix.T
    grads[:, grad_idx] += dV

    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    residuals = np.empty(n_angles)
    for k, theta in enumerate(angles):
        j = math.cos(theta) * j1m + math.sin(theta) * j2m
        residuals[k] = np.max(np.linalg.norm(grads @ j.T - targets, axis=1))
    compatible = [k for k in range(n_angles) if residuals[k] <= zero_tol * scale]
    ray = None
    if len(compatible) == 1:
        theta = angles[compatible[0]]
        ray = (round(math.cos(theta), 12), round(math.sin(theta), 12))
    return CompatibilityReport(angles, residuals, scale, compatible, ray)


def interaction_transform_constraint(p: PuParams, g: float) -> tuple[float, float]:
    """The (ax, ay) pair for which the two-dimensional system supports an
    arbitrary q-potential: ax = -ay = sqrt(alpha^2 - 4 beta - 4 g)."""
    radicand = p.alpha ** 2 - 4.0 * p.beta - 4.0 * g
    if radicand < 0.0:
        raise ComplexBranchError(f"negative radicand {radicand:.6g} in interaction constraint")
    r = math.sqrt(radicand)
    if r == 0.0:
        raise ConstructionError("radicand zero: ax = 0 conflicts with ax != 0")
    return r, -r


def constraint_residual(spec, p: PuParams) -> float:
    """Residual of nu2/D = 1 and -mu2/D = 1 with D = mu2 nu0 - mu0 nu2."""
    mu0, _, mu2 = spec.mu
    nu0, _, nu2 = spec.nu
    det = mu2 * nu0 - mu0 * nu2
    if det == 0.0:
        raise ConstructionError("constraints singular: mu2 nu0 = mu0 nu2")
    return max(abs(nu2 / det - 1.0), abs(-mu2 / det - 1.0))


def two_route_max_error(p: PuParams, g: float, pot: Potential, v0: PhaseState,
                        h: float = 1e-3, t_end: float = 10.0) -> float:
    """Compare the interacting flow against its two-dimensional image.

    Route 1 integrates the interacting fourth-order system directly.  Route 2
    maps the initial state through the constraint-compatible transformation
    (ax = -ay from the interaction constraint), integrates the coupled
    second-order system with the induced potential V(-x-y), and pulls the
    trajectory back.  Returns the max componentwise deviation.
    """
    from .transform import build

    if pot.kind != "on_q":
        raise InvalidInputError("the two-route comparison needs an on_q potential")
    ax, ay = interaction_transform_constraint(p, g)
    spec = build("Ta2+", p, ax=ax, ay=ay, g=g)
    mu0, _, mu2 = spec.mu
    nu0, _, nu2 = spec.nu
    det = mu2 * nu0 - mu0 * nu2

    direct = integrate(PotentialField(p, pot), v0, h, t_end)

    bx, by = spec.bx, spec.by

    def xy_rhs(w):
        x, y, xd, yd = w
        dv = pot.derivative((mu2 * y - nu2 * x) / det)
        # d/dx V(q(x, y)) = -V'(q), likewise for y
        return np.array([xd, yd,
                         -(bx * x + g * y - dv) / ax,
                         -(by * y + g * x - dv) / ay])

    w0 = np.array([mu0 * v0.q + mu2 * v0.qdd, nu0 * v0.q + nu2 * v0.qdd,
                   mu0 * v0.qd + mu2 * v0.qddd, nu0 * v0.qd + nu2 * v0.qddd])
    xy = _rk4(xy_rhs, w0, h, int(round(t_end / h)))
    pulled = np.column_stack([
        (mu2 * xy[:, 1] - nu2 * xy[:, 0]) / det,
        (mu2 * xy[:, 3] - nu2 * xy[:, 2]) / det,
        (nu0 * xy[:, 0] - mu0 * xy[:, 1]) / det,
        (nu0 * xy[:, 2] - mu0 * xy[:, 3]) / det,
    ])
    return float(np.max(np.abs(pulled - direct.states)))


# ---------------------------------------------------------------------------
# Structure discovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscoveryResult:
    pairs: list[tuple[PoissonTensor, QuadHamiltonian]]
    kernels: list[np.ndarray]
    skipped: list[np.ndarray] = field(default_factory=list)


_ANTISYM_INDEX = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _antisym_from_params(c: np.ndarray) -> np.ndarray:
    k = np.zeros((4, 4))
    for val, (i, j) in zip(c, _ANTISYM_INDEX):
        k[i, j] = val
        k[j, i] = -val
    return k


def structure_discovery(p: PuParams, tol: float = 1e-12,
                        cond_limit: float = 1e8) -> DiscoveryResult:
    """Solve the flow equation for (J, H) pairs from scratch.

    Parametrizes antisymmetric K with K M + M^T K = 0 (so that S = K M is
    symmetric), finds the kernel of the resulting linear operator, and inverts
    the well-conditioned kernel elements to J = K^{-1}.  Ill-conditioned
    directions are reported in ``skipped`` but not inverted.
    """
    if p.beta == 0.0:
        raise ParameterDomainError("structure discovery requires beta != 0")
    m = companion_field(p)
    columns = []
    for idx in range(6):
        c = np.zeros(6)
        c[idx] = 1.0
        k = _antisym_from_params(c)
        columns.append((k @ m + m.T @ k).ravel())
    operator = np.column_stack(columns)
    kernel = nullspace(operator, tol=tol)

    pairs, kernels, skipped = [], [], []
    for coeffs in kernel:
        k = _antisym_from_params(coeffs)
        kernels.append(k)
        svals = np.linalg.svd(k, compute_uv=False)
        if svals[-1] <= 0.0 or svals[0] / svals[-1] > cond_limit:
            skipped.append(k)
            continue
        # the inverse is antisymmetric only to about cond(k) * eps
        jinv = inverse(k)
        j = PoissonTensor(0.5 * (jinv - jinv.T))
        s = k @ m
        pairs.append((j, QuadHamiltonian(0.5 * (s + s.T), sym_tol=1e-9)))
    return DiscoveryResult(pairs=pairs, kernels=kernels, skipped=skipped)
