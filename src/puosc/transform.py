"""Maps from the fourth-order oscillator to two-dimensional first-order systems.

A transformation sends the phase vector to x = mu0 q + mu2 qdd and
y = nu0 q + nu2 qdd (the qd coefficients vanish for every catalog entry),
paired with a target Lagrangian
L = ax xd^2/2 + ay yd^2/2 - bx x^2/2 - by y^2/2 - g x y.
The seven catalog families fall in two scenarios: Ta (both target equations
of motion map to the fourth-order equation) and Tb (the second target
equation vanishes identically).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (PhaseState, PoissonTensor, PuParams, QuadHamiltonian,
                   canonical_tensor, combined_form, combined_tensor)
from .errors import (ComplexBranchError, ConstructionError,
                     DegenerateLegendreError, InvalidInputError,
                     NonInvertibleTransformError, SingularStructureError)
from .hierarchy import (_flow_pair_map, _pd_squared_frequencies, _square_piece,
                        coefficients_on_h1h2)

KINDS = ("Ta1+", "Ta1-", "Ta2+", "Ta2-", "Tb1", "Tb2+", "Tb2-")

# the canonical bracket {x_i, p_j} = delta_ij, read on (x, y, px, py)
CANONICAL_XY = canonical_tensor().matrix
# the form of x y on (x, y, px, py): g times it is Legendre's coupling term
_XY_COUPLING = np.zeros((4, 4))
_XY_COUPLING[0, 1] = _XY_COUPLING[1, 0] = 1.0
_XY_COUPLING.setflags(write=False)


@dataclass(frozen=True)
class XYState:
    """Target variables (x, y, px, py) with px = ax*xd, py = ay*yd."""

    x: float
    y: float
    px: float
    py: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.px, self.py])


@dataclass(frozen=True)
class TransformSpec:
    kind: str
    mu: tuple[float, float, float]
    nu: tuple[float, float, float]
    ax: float
    ay: float
    bx: float
    by: float
    g: float

    @property
    def lag(self) -> tuple[float, float, float, float, float]:
        return (self.ax, self.ay, self.bx, self.by, self.g)


def _sqrt_or_raise(radicand: float, what: str) -> float:
    if radicand < 0.0:
        raise ComplexBranchError(f"negative radicand {radicand:.6g} in {what}")
    return math.sqrt(radicand)


def tau_of(p: PuParams, ax: float, bx: float) -> float:
    """tau = bx^2 - ax bx alpha + ax^2 beta."""
    return bx * bx - ax * bx * p.alpha + ax * ax * p.beta


def _sign_of_kind(kind: str) -> float:
    return 1.0 if kind.endswith("+") else -1.0


def free_keyword(kind: str) -> str:
    """The one of ay, bx and by that ``build`` reads for the kind's family."""
    return "ay" if kind.startswith("Ta") else "bx" if kind == "Tb1" else "by"


def build(kind: str, p: PuParams, *, ax: float, ay: float | None = None,
          bx: float | None = None, by: float | None = None, g: float = 0.0) -> TransformSpec:
    """Construct a catalog transformation.

    Free parameters by family: Ta1/Ta2 take (ax, ay, g); Tb1 takes (ax, bx, g);
    Tb2 takes (ax, by, g).  Another family's keyword raises InvalidInputError.
    Excluded parameter values raise ConstructionError naming the violated
    condition; a negative square-root radicand raises ComplexBranchError.
    """
    if kind not in KINDS:
        raise InvalidInputError(f"unknown transformation kind {kind!r}")
    read = free_keyword(kind)
    for name, value in (("ay", ay), ("bx", bx), ("by", by)):
        if name != read and value is not None:
            raise InvalidInputError(f"{kind} takes no {name}")
    if ax == 0.0:
        raise ConstructionError("ax must be nonzero")
    alpha, beta = p.alpha, p.beta

    if kind.startswith("Ta"):
        if ay is None or ay == 0.0:
            raise ConstructionError(f"{kind} requires ay != 0")
        sign = _sign_of_kind(kind)
        if kind.startswith("Ta1"):
            r = sign * _sqrt_or_raise(alpha * alpha - 4.0 * beta, "rho_0")
            bx_v = 0.5 * ax * (alpha - 2.0 * g / ay + r)
            by_v = 0.5 * ay * (alpha - 2.0 * g / ax + r)
            mu = (0.5 / ax * (alpha - r), 0.0, 1.0 / ax)
            nu = (0.5 / ay * (alpha - r), 0.0, 1.0 / ay)
        else:
            r = sign * _sqrt_or_raise(alpha * alpha - 4.0 * beta - 4.0 * g * g / (ax * ay), "rho_g")
            bx_v = 0.5 * ax * (alpha + r)
            by_v = 0.5 * ay * (alpha - r)
            mu = (0.5 / ax * (alpha - r - 2.0 * g / ay), 0.0, 1.0 / ax)
            nu = (0.5 / ay * (alpha + r - 2.0 * g / ax), 0.0, 1.0 / ay)
        spec = TransformSpec(kind, mu, nu, ax, ay, bx_v, by_v, g)

    elif kind == "Tb1":
        if bx is None:
            raise ConstructionError("Tb1 requires bx")
        if g == 0.0:
            raise ConstructionError("Tb1 requires g != 0")
        tau = tau_of(p, ax, bx)
        if abs(tau) <= 1e-10 * (1.0 + bx * bx + ax * ax * (abs(alpha) + abs(beta))):
            raise ConstructionError("Tb1 excluded: bx = ax(alpha + rho_0)/2 makes tau vanish")
        ay_v = -ax * g * g / tau
        by_v = g * g * (bx - ax * alpha) / tau
        mu = (1.0 / ax * (alpha - bx / ax), 0.0, 1.0 / ax)
        nu = (tau / (g * ax * ax), 0.0, 0.0)
        spec = TransformSpec(kind, mu, nu, ax, ay_v, bx, by_v, g)

    else:  # Tb2+-
        if by is None or by == 0.0:
            raise ConstructionError(f"{kind} requires by != 0")
        sign = _sign_of_kind(kind)
        r = sign * _sqrt_or_raise(alpha * alpha - 4.0 * beta, "rho_0")
        denom = alpha + r
        if abs(denom) <= 1e-10 * (1.0 + abs(alpha)):
            raise ConstructionError("Tb2 excluded: alpha + rho_0 vanishes")
        bx_v = g * g / by + 0.5 * ax * (alpha + r)
        mu = (2.0 * beta / (ax * denom), 0.0, 1.0 / ax)
        # nu0 carries the sign that makes the second equation of motion vanish
        # identically (equivalently: y = -g x / by on solutions).
        nu = (-2.0 * beta * g / (ax * by * denom), 0.0, -g / (ax * by))
        spec = TransformSpec(kind, mu, nu, ax, 0.0, bx_v, by, g)

    residual = defining_residual(spec, p)
    if residual > 1e-12 * _relation_scale(spec, p):
        raise ConstructionError(f"catalog relations violated by {residual:.3e} for {kind}")
    return spec


def _relation_scale(spec: TransformSpec, p: PuParams) -> float:
    return 1.0 + sum(abs(c) for c in spec.lag) + abs(p.alpha) + abs(p.beta)


def defining_residual(spec: TransformSpec, p: PuParams) -> float:
    """Residual of the family's defining relations.

    Substituting the map into the target equations of motion must reproduce
    the fourth-order equation (Ta: both equations; Tb: the first), while for
    Tb the second equation has to vanish identically.
    """
    mu0, mu1, mu2 = spec.mu
    nu0, nu1, nu2 = spec.nu
    ax, ay, bx, by, g = spec.lag
    alpha, beta = p.alpha, p.beta
    res = [mu1, nu1,
           ax * mu0 + bx * mu2 + g * nu2 - alpha * ax * mu2,
           bx * mu0 + g * nu0 - beta * ax * mu2]
    if spec.kind.startswith("Ta"):
        res.append(ay * nu0 + by * nu2 + g * mu2 - alpha * ay * nu2)
        res.append(by * nu0 + g * mu0 - beta * ay * nu2)
    else:
        res.append(ay * nu0 + by * nu2 + g * mu2)
        res.append(by * nu0 + g * mu0)
    return max(abs(r) for r in res)


def jacobian(spec: TransformSpec) -> np.ndarray:
    """Linear map W with (x, y, px, py) = W (q, qd, qdd, qddd)."""
    mu0, _, mu2 = spec.mu
    nu0, _, nu2 = spec.nu
    return np.array([
        [mu0, 0.0, mu2, 0.0],
        [nu0, 0.0, nu2, 0.0],
        [0.0, spec.ax * mu0, 0.0, spec.ax * mu2],
        [0.0, spec.ay * nu0, 0.0, spec.ay * nu2],
    ])


def forward(spec: TransformSpec, v: PhaseState) -> XYState:
    w = jacobian(spec) @ v.as_array()
    return XYState(*(float(c) for c in w))


def inverse_jacobian(spec: TransformSpec) -> np.ndarray:
    """Closed-form W^-1: defined only when mu2 nu0 - mu0 nu2 != 0 and ay != 0."""
    mu0, _, mu2 = spec.mu
    nu0, _, nu2 = spec.nu
    det = mu2 * nu0 - mu0 * nu2
    scale = 1.0 + max(abs(c) for c in (*spec.mu, *spec.nu))
    if abs(det) <= 1e-12 * scale:
        raise NonInvertibleTransformError(
            f"{spec.kind}: mu2 nu0 - mu0 nu2 = {det:.3e}, map not invertible")
    if spec.ay == 0.0:
        raise NonInvertibleTransformError(f"{spec.kind}: ay = 0, momenta not invertible")
    dx, dy = spec.ax * det, spec.ay * det
    return np.array([
        [-nu2 / det, mu2 / det, 0.0, 0.0],
        [0.0, 0.0, -nu2 / dx, mu2 / dy],
        [nu0 / det, -mu0 / det, 0.0, 0.0],
        [0.0, 0.0, nu0 / dx, -mu0 / dy],
    ])


def inverse(spec: TransformSpec, w: XYState) -> PhaseState:
    """Invert the map (see inverse_jacobian for when it is defined)."""
    return PhaseState.from_array(inverse_jacobian(spec) @ w.as_array())


def legendre(spec: TransformSpec) -> QuadHamiltonian:
    """H(x,y,px,py) = px^2/(2 ax) + py^2/(2 ay) + bx x^2/2 + by y^2/2 + g x y."""
    if spec.ay == 0.0:
        raise DegenerateLegendreError(
            f"{spec.kind}: ay = 0, use the reduced pullback route instead")
    return QuadHamiltonian._exact(np.diag([spec.bx, spec.by, 1.0 / spec.ax, 1.0 / spec.ay])
                                  + spec.g * _XY_COUPLING)


def pullback_form(spec: TransformSpec) -> QuadHamiltonian:
    """The target Hamiltonian written back in the (q, qd, qdd, qddd) variables.

    For Tb2 the y kinetic term degenerates (ay = 0); there y is auxiliary and
    is eliminated through its own equation of motion y = -g x / by before the
    Legendre transform.
    """
    w = jacobian(spec)
    if spec.kind.startswith("Tb2"):
        bx_eff = spec.bx - spec.g * spec.g / spec.by
        xrow, prow = w[0], w[2]
        s = (np.outer(prow, prow) / spec.ax) + bx_eff * np.outer(xrow, xrow)
        return QuadHamiltonian._exact(s)
    return QuadHamiltonian(w.T @ legendre(spec).matrix @ w)


def pullback_hamiltonian(spec: TransformSpec, p: PuParams) -> tuple[float, float]:
    """(c1, c2) with pullback = c1 H1 + c2 H2."""
    return coefficients_on_h1h2(p, pullback_form(spec))


def catalog_pullback_coefficients(spec: TransformSpec, p: PuParams) -> tuple[float, float]:
    """Closed-form (c1, c2) coefficients for each catalog family."""
    ax, ay, bx, by, g = spec.lag
    alpha = p.alpha
    w1, w2 = p.frequencies()
    w1sq, w2sq = w1 * w1, w2 * w2
    mfun = min if spec.kind.endswith("+") else max
    if spec.kind.startswith("Ta1"):
        pref = -(ax + ay) / (ax * ay)
        return pref * mfun(w1sq, w2sq), pref
    if spec.kind.startswith("Ta2"):
        rho = _sqrt_or_raise(alpha * alpha - 4.0 * p.beta - 4.0 * g * g / (ax * ay), "rho_g")
        rho *= _sign_of_kind(spec.kind)
        pref = 0.5 / (ax * ay)
        return (pref * (4.0 * g - rho * (ax - ay) - alpha * (ax + ay)),
                pref * (-2.0 * (ax + ay)))
    if spec.kind == "Tb1":
        return (bx / ax - alpha) / ax, -1.0 / ax
    # Tb2
    return -mfun(w1sq, w2sq) / ax, -1.0 / ax


def flow_preserving_tensor(p: PuParams, c3: float, c4: float) -> PoissonTensor:
    """The tensor J_T making Hbar = c3 H1 + c4 H2 generate the original flow:
    J_T = (c3 J1 + c4 beta J2) / D with D = c3^2 - alpha c3 c4 + beta c4^2,
    which is (c3 - c4 w1^2)(c3 - c4 w2^2).  It is defined wherever D != 0,
    including alpha^2 < 4 beta."""
    return combined_tensor(p, *tensor_coefficients(p, c3, c4))


def tensor_coefficients(p: PuParams, c3: float, c4: float) -> tuple[float, float]:
    """(c1, c2) of the flow-preserving tensor: ``hierarchy._flow_pair_map`` at
    (c4, c3), reversed; raises where D = 0."""
    return _flow_pair_map(p, c4, c3, SingularStructureError)[::-1]


def pushforward_brackets(spec: TransformSpec, jbar: PoissonTensor) -> np.ndarray:
    """Bracket table in (x, y, px, py): table[i, j] = {x_i, x_j} = (W J W^T)[i, j]."""
    w = jacobian(spec)
    return w @ jbar.matrix @ w.T


def canonical_bracket_residual(spec: TransformSpec, jt: PoissonTensor) -> float:
    """Deviation of the pushed-forward bracket jt from canonical; jt is the
    flow-preserving tensor of spec's pullback (``flow_preserving_tensor``)."""
    return float(np.max(np.abs(pushforward_brackets(spec, jt) - CANONICAL_XY)))


def ghost_variant(p: PuParams, g: float = 0.0, a_y_choice: float = -1.0) -> QuadHamiltonian:
    """Target Hamiltonian of Ta2+ at ax = 1, ay = +-1.

    ay = -1 gives the two-oscillators-of-opposite-sign model (Lorentzian
    kinetic term when g != 0); ay = +1 gives two positive space-coupled
    oscillators.
    """
    if a_y_choice not in (-1.0, 1.0):
        raise InvalidInputError("a_y_choice must be -1 or +1")
    return legendre(build("Ta2+", p, ax=1.0, ay=a_y_choice, g=g))


# ---------------------------------------------------------------------------
# Positive-definite decompositions of the transformed Hamiltonians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformedPdDecomposition:
    """Square-piece split of a transformed Hamiltonian, in both variable sets."""

    spec: TransformSpec
    h12_q: QuadHamiltonian
    h21_q: QuadHamiltonian
    h12_xy: QuadHamiltonian
    h21_xy: QuadHamiltonian


def ta2_form(p: PuParams, g: float) -> QuadHamiltonian:
    """Unit-kinetic Ta2 Hamiltonian (ax = ay = 1) in the original variables:
    (2g - alpha) H1 - 2 H2.  Defined for every g (the underlying map may
    leave the real branch, the quadratic form does not)."""
    return combined_form(p, 2.0 * g - p.alpha, -2.0)


def tb1_form(p: PuParams, bx: float) -> QuadHamiltonian:
    """Unit-kinetic Tb1 Hamiltonian (ax = 1) in the original variables:
    (bx - alpha) H1 - H2, defined for every bx."""
    return combined_form(p, bx - p.alpha, -1.0)


def ta2_window(p: PuParams, g: float) -> bool:
    """Positivity window of ``ta2_form``: |2g| < |w1^2 - w2^2| with both
    frequencies nonzero."""
    w1sq, w2sq = _pd_squared_frequencies(p)
    lo, hi = sorted((w2sq - w1sq, w1sq - w2sq))
    return lo < 2.0 * g < hi


def tb1_window(p: PuParams, bx: float) -> bool:
    """Positivity window of ``tb1_form``: bx strictly between w1^2 and w2^2."""
    w1sq, w2sq = _pd_squared_frequencies(p)
    lo, hi = sorted((w1sq, w2sq))
    return lo < bx < hi


def ta2_decomposition(p: PuParams, g: float) -> TransformedPdDecomposition:
    """Square-piece decomposition of ``ta2_form``, whose pieces carry the
    prefactors (2g + w_i^2 - w_j^2)/(2 w_i^2 - 2 w_j^2)."""
    w1sq, w2sq = _pd_squared_frequencies(p)
    return _decomposition(build("Ta2+", p, ax=1.0, ay=1.0, g=g), w1sq, w2sq,
                          (2.0 * g + w1sq - w2sq) / (2.0 * (w1sq - w2sq)),
                          (2.0 * g + w2sq - w1sq) / (2.0 * (w2sq - w1sq)))


def tb1_decomposition(p: PuParams, bx: float, g: float) -> TransformedPdDecomposition:
    """Square-piece decomposition of ``tb1_form``, realized by the Tb1 map at
    coupling g, whose pieces carry the prefactors (bx - w_j^2)/(2 w_i^2 - 2 w_j^2)
    (the squared-frequency reading, fixed by reassembly against the pullback
    Hamiltonian)."""
    w1sq, w2sq = _pd_squared_frequencies(p)
    return _decomposition(build("Tb1", p, ax=1.0, bx=bx, g=g), w1sq, w2sq,
                          (bx - w2sq) / (2.0 * (w1sq - w2sq)),
                          (bx - w1sq) / (2.0 * (w2sq - w1sq)))


def _decomposition(spec: TransformSpec, w1sq: float, w2sq: float, pref12: float,
                   pref21: float) -> TransformedPdDecomposition:
    """The square pieces of prefactors pref12 and pref21 in q, and transported
    to (x, y, px, py) through the inverse map of spec."""
    h12_q = _square_piece(2.0 * pref12, w1sq, w2sq)
    h21_q = _square_piece(2.0 * pref21, w2sq, w1sq)
    winv = inverse_jacobian(spec)
    h12_xy, h21_xy = (QuadHamiltonian(winv.T @ piece.matrix @ winv) for piece in (h12_q, h21_q))
    return TransformedPdDecomposition(spec, h12_q, h21_q, h12_xy, h21_xy)


# ---------------------------------------------------------------------------
# Embedding of the externally proposed positive-definite Hamiltonian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmEmbedding:
    """A positive-definite (w, z) model realized as a Tb1 instance.

    ``h_sm`` is the quadratic form over (w, z, p_w, p_z); ``scale`` is the
    constant mu_w * tau^2 relating it to the Tb1 Legendre Hamiltonian (the two
    agree exactly on the mu_w = tau^-2 slice).
    """

    spec: TransformSpec
    h_sm: QuadHamiltonian
    scale: float
    lam: float
    mu_w: float
    mu_z: float
    tau_sm: float

    def state(self, v: PhaseState) -> np.ndarray:
        """(w, z, p_w, p_z) for a phase state: w = lam tau^2 q + tau^2 qdd,
        z = q, p_w = mu_w wd, p_z = mu_z zd."""
        t2 = self.tau_sm ** 2
        w = self.lam * t2 * v.q + t2 * v.qdd
        z = v.q
        pw = self.mu_w * (self.lam * t2 * v.qd + t2 * v.qddd)
        pz = self.mu_z * v.qd
        return np.array([w, z, pw, pz])


def sm_embedding(p: PuParams, mu_w: float, mu_z: float, tau_sm: float,
                 branch: int = +1) -> SmEmbedding:
    """Realize the two-mass positive-definite model as a Tb1 transformation.

    Omega = (4 mu_z/mu_w)^(1/4) / tau_sm, delta = alpha^2 - 4 beta - Omega^4
    (negative delta raises ComplexBranchError).  branch = +1 picks
    lam = (alpha + sqrt(delta))/2 together with nu_z = sqrt(mu_z lam), while
    nu_w uses the complementary root (alpha - sqrt(delta))/2; branch = -1
    swaps the two roots.
    """
    if mu_w <= 0.0 or mu_z <= 0.0:
        raise InvalidInputError("mu_w and mu_z must be positive")
    if tau_sm == 0.0:
        raise InvalidInputError("tau_sm must be nonzero")
    alpha, beta = p.alpha, p.beta
    omega_cap = (4.0 * mu_z / mu_w) ** 0.25 / abs(tau_sm)
    delta = alpha * alpha - 4.0 * beta - omega_cap ** 4
    dust = 1e-12 * (alpha * alpha + 4.0 * abs(beta) + omega_cap ** 4)
    if delta < -dust:
        raise ComplexBranchError(f"delta = {delta:.6g} < 0: no real embedding")
    delta = max(delta, 0.0)
    root = math.sqrt(delta)
    lam = 0.5 * (alpha + branch * root)
    other = 0.5 * (alpha - branch * root)
    if lam < 0.0 or other < 0.0:
        raise ComplexBranchError("negative root under nu_w/nu_z square roots")
    nu_z = 0.5 * math.sqrt(mu_z * 2.0 * lam)       # nu_z^2 = mu_z lam / 2
    nu_w = 0.5 * math.sqrt(mu_w * 2.0 * other)     # nu_w^2 = mu_w (alpha-lam) / 2
    t2 = tau_sm ** 2
    spec = build("Tb1", p, ax=1.0 / t2, bx=(alpha - lam) / t2, g=-omega_cap ** 4 / 4.0)

    # H_SM = p_w^2/(2 mu_w) + p_z^2/(2 mu_z)
    #        + (nu_w w - nu_z Omega^2 z / sqrt(alpha^2 - delta))^2
    #        + 4 beta nu_z^2 z^2 / (alpha^2 - delta)
    denom = alpha * alpha - delta
    c = nu_z * omega_cap ** 2 / math.sqrt(denom)
    s = np.zeros((4, 4))
    s[2, 2] = 1.0 / mu_w
    s[3, 3] = 1.0 / mu_z
    s[0, 0] = 2.0 * nu_w * nu_w
    s[1, 1] = 2.0 * c * c + 8.0 * beta * nu_z * nu_z / denom
    s[0, 1] = s[1, 0] = -2.0 * nu_w * c
    return SmEmbedding(spec, QuadHamiltonian(s), mu_w * t2, lam, mu_w, mu_z, tau_sm)
