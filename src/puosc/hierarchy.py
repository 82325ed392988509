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
                     InvalidInputError, ParameterDomainError,
                     RecursionBreakdownError)
from .linalg import frobenius, inverse
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
    prefactor12: float
    prefactor21: float


@_memoized
def recursion_operator(p: PuParams) -> np.ndarray:
    """R = J2^{-1} J1; S_{n+1} = R S_n."""
    if p.beta == 0.0:
        raise ParameterDomainError("charge recursion requires beta != 0")
    r = inverse(poisson_j2(p).matrix) @ poisson_j1(p).matrix
    r.flags.writeable = False
    return r


def next_charge(p: PuParams, h: QuadHamiltonian) -> QuadHamiltonian:
    """One recursion step.  The product must come out symmetric: that symmetry
    is the integrability certificate, so an asymmetric result is an error,
    never silently repaired."""
    product = recursion_operator(p) @ h.matrix
    asym = frobenius(product - product.T)
    if asym > 1e-10 * (1.0 + frobenius(product)):
        raise RecursionBreakdownError(f"recursion step asymmetric by {asym:.3e}")
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


@_memoized
def _h1h2_basis(p: PuParams) -> np.ndarray:
    """The 16x2 matrix whose columns are H1 and H2 flattened."""
    basis = np.column_stack([hamiltonian_h1(p).matrix.ravel(),
                             hamiltonian_h2(p).matrix.ravel()])
    basis.flags.writeable = False
    return basis


def coefficients_on_h1h2(p: PuParams, h: QuadHamiltonian) -> tuple[float, float]:
    """Least-squares coordinates of a charge in the (H1, H2) plane."""
    basis = _h1h2_basis(p)
    target = h.matrix.ravel()
    coeff, _, _, _ = np.linalg.lstsq(basis, target, rcond=None)
    residual = frobenius(basis @ coeff - target)
    if residual > 1e-10 * (1.0 + frobenius(target)):
        raise InvalidInputError(f"form is not in the (H1, H2) plane (residual {residual:.3e})")
    return float(coeff[0]), float(coeff[1])


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


def x3_action_ladder(p: PuParams, k: int) -> QuadHamiltonian:
    """k-fold application of the X3 Lie derivative to H1."""
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    _, _, x3, _ = standard_basis(p)
    h = hamiltonian_h1(p)
    for _ in range(k):
        h = act_on_hamiltonian(x3, h)
    return h


def x4_pair(p: PuParams) -> tuple[QuadHamiltonian, QuadHamiltonian]:
    """The bi-Hamiltonian pair generating the X4 flow:
    Hbar1 = alpha H1 + H2 under J1, Hbar2 = -beta H1 under J2."""
    h1, h2 = hamiltonian_h1(p), hamiltonian_h2(p)
    return p.alpha * h1 + h2, -p.beta * h1


def _singular_pair(p: PuParams, a: float, b: float, d: float) -> bool:
    """True when d, the caller's value of b^2 - alpha a b + beta a^2, is zero to
    1e-10 of its terms: the guard of (c1, c2) = (a, b) in ``combine`` and of
    (c3, c4) = (b, a) in ``transform.tensor_coefficients``.  It reads no
    frequencies, so ``combine`` still works where alpha^2 < 4 beta."""
    return abs(d) <= 1e-10 * (b * b + abs(p.alpha * a * b) + abs(p.beta) * a * a)


def combine(p: PuParams, c1: float, c2: float) -> CombinedStructure:
    """Flow-preserving combination Jbar = c1 J1 + c2 J2, Hbar = c3 H1 + c4 H2.

    The (c3, c4) coefficients divide by (c2 - c1 w1^2)(c2 - c1 w2^2) =
    c2^2 - alpha c1 c2 + beta c1^2; the c3 numerator is c1 * w1^2 * w2^2
    = c1 * beta (the frequency-symmetric reading, confirmed by the flow
    residual at random parameters).
    """
    denom = c2 * c2 - p.alpha * c1 * c2 + p.beta * c1 * c1
    if _singular_pair(p, c1, c2, denom):
        raise DegenerateCombinationError(
            f"c2 = c1*omega_i^2 within tolerance (denominator {denom:.3e})")
    c3 = c1 * p.beta / denom
    c4 = c2 / denom
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
    return PdDecomposition(
        h12=_square_piece(pref12, w1sq, w2sq),
        h21=_square_piece(pref21, w2sq, w1sq),
        prefactor12=pref12,
        prefactor21=pref21,
    )


def pd_window(p: PuParams, c1: float, c2: float) -> bool:
    """True iff Hbar(c1, c2) is positive definite:
    (c1 w1^2 - c2)(w1^2 - w2^2) > 0 and (c1 w2^2 - c2)(w2^2 - w1^2) > 0."""
    w1sq, w2sq = _pd_squared_frequencies(p)
    return ((c1 * w1sq - c2) * (w1sq - w2sq) > 0.0
            and (c1 * w2sq - c2) * (w2sq - w1sq) > 0.0)


def involution_residual(p: PuParams, depth: int = 5) -> float:
    """Largest bracket norm among {H_i, H_j} under both tensors, i,j <= depth."""
    ladder = charge_ladder(p, depth).charges
    j1, j2 = poisson_j1(p), poisson_j2(p)
    return float(np.max([frobenius(quad_bracket(tensor, ladder[i], ladder[j]).matrix)
                         for i in range(depth) for j in range(depth) for tensor in (j1, j2)],
                        initial=0.0))
