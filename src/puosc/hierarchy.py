"""Conserved-charge hierarchy and combined bi-Hamiltonian structures.

The two base pairs (J1, H1) and (J2, H2) generate the same flow, so the
recursion S_{n+1} = J2^{-1} J1 S_n climbs a ladder of conserved quadratic
charges that stays inside the (H1, H2) plane.  Linear combinations of the two
tensors and Hamiltonians give flow-preserving structures whose positivity
window is decided by Sylvester minors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (PoissonTensor, PuParams, QuadHamiltonian, _memoized,
                   combined_form, combined_tensor, hamiltonian_h1, hamiltonian_h2,
                   poisson_j1, poisson_j2, quad_bracket)
from .errors import (DecompositionUndefinedError, DegenerateCombinationError,
                     InvalidInputError, ParameterDomainError, PuError,
                     RecursionBreakdownError)
from .linalg import frobenius, inverse, relative_residual
from .symmetry import act_on_hamiltonian, standard_basis

MAX_LADDER_DEPTH = 8


@dataclass(frozen=True)
class ChargeLadder:
    charges: tuple[QuadHamiltonian, ...]


@dataclass(frozen=True)
class CombinedStructure:
    c1: float
    c2: float
    c3: float
    c4: float
    jbar: PoissonTensor
    hbar: QuadHamiltonian


@dataclass(frozen=True)
class PdDecomposition:
    h12: QuadHamiltonian
    h21: QuadHamiltonian


@_memoized
def recursion_operator(p: PuParams) -> np.ndarray:
    """R = J2^{-1} J1; S_{n+1} = R S_n."""
    if p.beta == 0.0:
        raise ParameterDomainError("charge recursion requires beta != 0")
    r = inverse(poisson_j2(p).matrix) @ poisson_j1(p).matrix
    r.setflags(write=False)
    return r


def next_charge(p: PuParams, h: QuadHamiltonian) -> QuadHamiltonian:
    """One recursion step.  The product must come out symmetric: that symmetry
    is the integrability certificate, so an asymmetric result is an error,
    never silently repaired."""
    product = recursion_operator(p) @ h.matrix
    asym = relative_residual(product, product.T)
    if not asym <= 1e-10:
        raise RecursionBreakdownError(f"recursion step asymmetric by {asym:.3e} (relative)")
    return QuadHamiltonian._exact(0.5 * (product + product.T))


def charge_ladder(p: PuParams, depth: int = 4) -> ChargeLadder:
    """Charges H1..H_depth obtained by iterating the recursion."""
    if not 1 <= depth <= MAX_LADDER_DEPTH:
        raise InvalidInputError(f"depth must be in 1..{MAX_LADDER_DEPTH}")
    charges = [hamiltonian_h1(p)]
    if depth >= 2:
        charges.append(hamiltonian_h2(p))
    while len(charges) < depth:
        charges.append(next_charge(p, charges[-1]))
    return ChargeLadder(tuple(charges))


def coefficients_on_h1h2(p: PuParams, h: QuadHamiltonian) -> tuple[float, float]:
    """The coordinates (c1, c2) of a form S in the (H1, H2) plane.

    Cramer's rule solves the normal equations G c = (<H1, S>, <H2, S>) of
    c1 H1 + c2 H2 ~ S in Python floats; <Hi, S> reads the six positions where
    H1 or H2 is nonzero, and with (a, b) = (alpha, beta) the Gram matrix is
    G = [[a^2 + b^2 + 3, -a (b + 1)], [-a (b + 1), a^2 + 3 b^2 + 1]].  It is
    well conditioned for every (a, b): |cos angle(H1, H2)| <= 1/sqrt(2),
    ||H1||^2 / ||H2||^2 is in [1/3, 3], and cond(G) <= 3, for
    16 det G - 3 (tr G)^2 = 4 (a^2 - 4 b)^2.  H1 and H2 are scaled by the
    power of two that takes max(|a|, |b|, 1) into [1/2, 1), S by the one that
    takes max(max |S_ij|, 2^-1000) there.  That is exact, so c has the bits
    of the unscaled solve wherever that neither overflows nor underflows,
    and no finite input overflows.  Raises InvalidInputError unless the
    residual ||c1 H1 + c2 H2 - S||_F is at most 1e-10 (1 + ||S||_F), so a
    nan residual raises too.
    """
    s = math.ldexp(1.0, -math.frexp(max(abs(p.alpha), abs(p.beta), 1.0))[1])
    a, b = p.alpha * s, p.beta * s
    flat = h.matrix.ravel().tolist()
    t = math.ldexp(1.0, -math.frexp(max(max(flat), -min(flat), 2.0 ** -1000))[1])
    entries = [x * t for x in flat]
    s00, s01, s02, s03, s10, s11, s12, s13, s20, s21, s22, s23, s30, s31, s32, s33 = entries
    g11, g12, g22 = a * a + b * b + 3.0 * s * s, -a * (b + s), a * a + 3.0 * b * b + s * s
    r1 = -b * s00 - a * s11 + s * s22 - s * (s13 + s31)
    r2 = b * s11 - a * s22 - s * s33 - b * (s02 + s20)
    det = g11 * g22 - g12 * g12
    d1, d2 = (g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det
    residual = math.hypot(s01, s03, s10, s12, s21, s23, s30, s32,
                          -b * d1 - s00, -a * d1 + b * d2 - s11, s * d1 - a * d2 - s22,
                          -s * d2 - s33, -s * d1 - s13, -s * d1 - s31, -b * d2 - s02, -b * d2 - s20)
    if not residual <= 1e-10 * (t + math.hypot(*entries)):
        raise InvalidInputError(f"form is not in the (H1, H2) plane (residual {residual / t:.3e})")
    return d1 * (s / t), d2 * (s / t)


def pu_polynomial(n: int, p: PuParams) -> float:
    """P_n = sum_k c_k^n alpha^(n+1-2k) beta^(k-1) with
    c_k^n = (-1)^(n+k+1)/(k-1)! * prod_{l=k}^{2k-2} (n-l)."""
    if n < 0:
        raise InvalidInputError("polynomial index must be nonnegative")
    upper = math.floor((n - 1) / 2 + 1)
    total = 0.0
    for k in range(1, upper + 1):
        prod = 1.0
        for ell in range(k, 2 * k - 1):
            prod *= n - ell
        c = (-1.0) ** (n + k + 1) / math.factorial(k - 1) * prod
        total += c * p.alpha ** (n + 1 - 2 * k) * p.beta ** (k - 1)
    return total


def ladder_via_x3(p: PuParams, k: int) -> QuadHamiltonian:
    """Closed form of the k-fold X3 action on H1:
    H_{k+1} = beta P_{k-1} H1 + (P_{k+1} + beta P_{k-1}) H2 / alpha."""
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if p.alpha == 0.0:
        raise ParameterDomainError("closed-form ladder requires alpha != 0")
    c1 = p.beta * pu_polynomial(k - 1, p)
    c2 = (pu_polynomial(k + 1, p) + p.beta * pu_polynomial(k - 1, p)) / p.alpha
    return combined_form(p, c1, c2)


def x3_action_ladder(p: PuParams, k: int) -> tuple[QuadHamiltonian, ...]:
    """H1 and its 1- to k-fold images under the X3 Lie derivative."""
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    _, _, x3, _ = standard_basis(p)
    forms = [hamiltonian_h1(p)]
    for _ in range(k):
        forms.append(act_on_hamiltonian(x3, forms[-1]))
    return tuple(forms)


def x4_pair(p: PuParams) -> tuple[QuadHamiltonian, QuadHamiltonian]:
    """The bi-Hamiltonian pair generating the X4 flow:
    Hbar1 = alpha H1 + H2 under J1, Hbar2 = -beta H1 under J2."""
    h1, h2 = hamiltonian_h1(p), hamiltonian_h2(p)
    return p.alpha * h1 + h2, -p.beta * h1


def _flow_pair_map(p: PuParams, a: float, b: float, error: type[PuError]) -> tuple[float, float]:
    """F(a, b) = (a beta, b) / D(a, b), D(a, b) = b^2 - alpha a b + beta a^2.

    Jbar = c1 J1 + c2 J2 and Hbar = c3 H1 + c4 H2 generate the same flow when
    (c3, c4) = F(c1, c2), or equally (c2, c1) = F(c4, c3): D(c4, c3) =
    beta / D(c1, c2).  D = (b - a w1^2)(b - a w2^2) reads no frequencies, so F
    is defined where alpha^2 < 4 beta too.  Raises ``error`` where D is zero to
    1e-10 of its terms."""
    d = b * b - p.alpha * a * b + p.beta * a * a
    if abs(d) <= 1e-10 * (b * b + abs(p.alpha * a * b) + abs(p.beta) * a * a):
        raise error(f"coefficient pair (a, b) = ({a:.6g}, {b:.6g}) is singular:"
                    f" b^2 - alpha a b + beta a^2 = {d:.3e}")
    return a * p.beta / d, b / d


def hbar_coefficients(p: PuParams, c1: float, c2: float) -> tuple[float, float]:
    """The (c3, c4) of Hbar = c3 H1 + c4 H2 that Jbar = c1 J1 + c2 J2 pairs
    with: ``_flow_pair_map`` at (c1, c2)."""
    return _flow_pair_map(p, c1, c2, DegenerateCombinationError)


def combine(p: PuParams, c1: float, c2: float) -> CombinedStructure:
    """Flow-preserving Jbar = c1 J1 + c2 J2 and Hbar (``hbar_coefficients``)."""
    c3, c4 = hbar_coefficients(p, c1, c2)
    return CombinedStructure(c1, c2, c3, c4, combined_tensor(p, c1, c2),
                             combined_form(p, c3, c4))


def _pd_squared_frequencies(p: PuParams) -> tuple[float, float]:
    """(w1^2, w2^2) where the square-piece decomposition is defined."""
    w1, w2 = p.frequencies()
    if p.degenerate:
        raise DecompositionUndefinedError("decomposition undefined at equal frequencies")
    if w1 == 0.0 or w2 == 0.0:
        raise DecompositionUndefinedError("decomposition undefined at zero frequency")
    return w1 * w1, w2 * w2


def _square_piece(prefactor: float, wi_sq: float, wj_sq: float) -> QuadHamiltonian:
    """prefactor/2 * [(qddd + wj^2 qd)^2 + wi^2 (qdd + wj^2 q)^2] as a form."""
    u = np.array([0.0, wj_sq, 0.0, 1.0])       # qddd + wj^2 qd
    w = np.array([wj_sq, 0.0, 1.0, 0.0])       # qdd + wj^2 q
    return QuadHamiltonian._exact(prefactor * (np.outer(u, u) + wi_sq * np.outer(w, w)))


def pd_decompose(p: PuParams, c1: float, c2: float) -> PdDecomposition:
    """Split Hbar(c1, c2) into the two square pieces H12 + H21 with prefactors
    w_i^2 / ((c1 w_i^2 - c2)(w_i^2 - w_j^2))."""
    w1sq, w2sq = _pd_squared_frequencies(p)
    pref12 = w1sq / ((c1 * w1sq - c2) * (w1sq - w2sq))
    pref21 = w2sq / ((c1 * w2sq - c2) * (w2sq - w1sq))
    return PdDecomposition(_square_piece(pref12, w1sq, w2sq), _square_piece(pref21, w2sq, w1sq))


def pd_window(p: PuParams, c1: float, c2: float) -> bool:
    """True iff Hbar(c1, c2) is positive definite:
    (c1 w1^2 - c2)(w1^2 - w2^2) > 0 and (c1 w2^2 - c2)(w2^2 - w1^2) > 0."""
    w1sq, w2sq = _pd_squared_frequencies(p)
    return ((c1 * w1sq - c2) * (w1sq - w2sq) > 0.0
            and (c1 * w2sq - c2) * (w2sq - w1sq) > 0.0)


def involution_residual(p: PuParams, depth: int = 5) -> float:
    """Largest bracket norm among {H_i, H_j} under both tensors, i < j <= depth.

    The pairs j < i and i = j add nothing: {H_j, H_i} is {H_i, H_j} negated
    bit for bit, and {H_i, H_i} is exactly zero."""
    ladder = charge_ladder(p, depth).charges
    j1, j2 = poisson_j1(p), poisson_j2(p)
    return float(np.max([frobenius(quad_bracket(tensor, ladder[i], ladder[j]).matrix)
                         for i in range(depth) for j in range(i + 1, depth)
                         for tensor in (j1, j2)], initial=0.0))
