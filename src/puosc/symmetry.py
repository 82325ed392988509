"""Lie point symmetries of the oscillator flow and their group actions.

Linear vector fields X = (A v) . d/dv are represented by their matrices.  The
symmetry condition [X, V] = 0 for the flow field V = (M v) . d/dv becomes the
commutation equation M A - A M = 0, solved here as a nullspace problem on the
vectorized 16x16 Sylvester operator.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (PhaseState, PuParams, QuadHamiltonian, _FrozenMatrix, _memoized,
                   companion_field)
from .errors import InvalidRegimeError
from .linalg import as_matrix, expm, nullspace
from .modes import TrigTerm, phase_state


class Generator(_FrozenMatrix):
    """Linear vector field X = (A v) . d/dv."""

    __slots__ = ()

    def __init__(self, a):
        m = as_matrix(a, square=True)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __reduce__(self):
        return Generator, (self.matrix,)


def commutator(x: Generator, y: Generator) -> Generator:
    """[X, Y] for linear fields with matrices A, B has matrix B A - A B."""
    a, b = x.matrix, y.matrix
    return Generator(b @ a - a @ b)


_EYE = np.eye(4)
_EYE.setflags(write=False)


def _sylvester_operator(m: np.ndarray) -> np.ndarray:
    """The 16x16 matrix of A -> M A - A M on column-major vec(A).

    vec(MA) = (I (x) M) vec(A) and vec(AM) = (M^T (x) I) vec(A).  kron(a, b)
    is a[:, None, :, None] * b[None, :, None, :] reshaped, so these are the
    products ``np.kron(I, M) - np.kron(M.T, I)`` forms, bit for bit, without
    kron's wrapper.
    """
    return (_EYE[:, None, :, None] * m[None, :, None, :]
            - m.T[:, None, :, None] * _EYE[None, :, None, :]).reshape(16, 16)


def solve_symmetries(p: PuParams) -> list[Generator]:
    """Orthonormal-coefficient basis of {A : M A - A M = 0}."""
    basis = nullspace(_sylvester_operator(companion_field(p)))
    return [Generator(vec.reshape((4, 4), order="F")) for vec in basis]


@_memoized
def standard_basis(p: PuParams) -> tuple[Generator, Generator, Generator, Generator]:
    """The four commuting generators X1..X4 = (M, I/2, M^2/2, M^3 + alpha M)."""
    m = companion_field(p)
    x1 = Generator(m)
    x2 = Generator(0.5 * np.eye(4))
    x3 = Generator(0.5 * (m @ m))
    x4 = Generator(m @ m @ m + p.alpha * m)
    return x1, x2, x3, x4


def act_on_hamiltonian(x: Generator, h: QuadHamiltonian) -> QuadHamiltonian:
    """Lie derivative X(H): the quadratic form v -> grad H(v) . (A v)."""
    s, a = h.matrix, x.matrix
    return QuadHamiltonian(s @ a + a.T @ s)


def group_flow(x: Generator, s: float, v0: PhaseState) -> PhaseState:
    """phi_s(v0) = exp(s A) v0."""
    return PhaseState.from_array(expm(s * x.matrix) @ v0.as_array())


def flow_curve(x: Generator, s: float, states: list[tuple[float, PhaseState]]
               ) -> list[tuple[float, PhaseState]]:
    """The (t, phi_s(state)) samples of a trajectory's (t, state) samples."""
    mat = expm(s * x.matrix)
    return [(t, PhaseState.from_array(mat @ v.as_array())) for t, v in states]


def _check_regime(p: PuParams, regime: str) -> tuple[float, float]:
    w1, w2 = p.frequencies()
    degenerate = p.degenerate
    if regime == "degenerate" and not degenerate:
        raise InvalidRegimeError("degenerate regime requested but omega1 != omega2")
    if regime == "nondegenerate" and degenerate:
        raise InvalidRegimeError("nondegenerate regime requested but omega1 == omega2")
    if regime not in ("degenerate", "nondegenerate"):
        raise InvalidRegimeError(f"unknown regime {regime!r}")
    return w1, w2


def solution_terms(regime: str, amplitudes, p: PuParams) -> list[TrigTerm]:
    """Oscillatory terms of the general classical solution q(t)."""
    a1, a2, b1, b2 = (float(c) for c in amplitudes)
    w1, w2 = _check_regime(p, regime)
    if regime == "nondegenerate":
        return [
            TrigTerm(a1, 0.0, w1, cosine=False),
            TrigTerm(a2, 0.0, w1, cosine=True),
            TrigTerm(b1, 0.0, w2, cosine=False),
            TrigTerm(b2, 0.0, w2, cosine=True),
        ]
    w = w1
    return [
        TrigTerm(a1, b1, w, cosine=False),
        TrigTerm(a2, b2, w, cosine=True),
    ]


def closed_form_flow(which: str, regime: str, amplitudes, p: PuParams,
                     t: float, s: float) -> PhaseState:
    """Closed-form group flow phi_s of the classical solution at time t.

    ``which`` selects X2 (dilation), X3 (frequency-weighted rescaling with a
    secular shift in the degenerate case) or X4 (mode-dependent time shift).
    Components 2-4 are exact t-derivatives of the first component.
    """
    a1, a2, b1, b2 = (float(c) for c in amplitudes)
    w1, w2 = _check_regime(p, regime)
    degenerate = regime == "degenerate"
    w = w1

    if which == "X2":
        f = math.exp(0.5 * s)
        if degenerate:
            terms = [TrigTerm(f * a1, f * b1, w, cosine=False),
                     TrigTerm(f * a2, f * b2, w, cosine=True)]
        else:
            terms = [TrigTerm(f * a1, 0.0, w1), TrigTerm(f * a2, 0.0, w1, cosine=True),
                     TrigTerm(f * b1, 0.0, w2), TrigTerm(f * b2, 0.0, w2, cosine=True)]
    elif which == "X3":
        if degenerate:
            f = math.exp(-0.5 * s * w * w)
            terms = [TrigTerm(f * (a1 - b2 * s * w), f * b1, w, cosine=False),
                     TrigTerm(f * (a2 + b1 * s * w), f * b2, w, cosine=True)]
        else:
            f1 = math.exp(-0.5 * s * w1 * w1)
            f2 = math.exp(-0.5 * s * w2 * w2)
            terms = [TrigTerm(f1 * a1, 0.0, w1), TrigTerm(f1 * a2, 0.0, w1, cosine=True),
                     TrigTerm(f2 * b1, 0.0, w2), TrigTerm(f2 * b2, 0.0, w2, cosine=True)]
    elif which == "X4":
        if degenerate:
            shift = s * w * w
            terms = [TrigTerm(a1 - b1 * shift, b1, w, shift=shift, cosine=False),
                     TrigTerm(a2 - b2 * shift, b2, w, shift=shift, cosine=True)]
        else:
            s1, s2 = s * w2 * w2, s * w1 * w1
            terms = [TrigTerm(a1, 0.0, w1, shift=s1), TrigTerm(a2, 0.0, w1, shift=s1, cosine=True),
                     TrigTerm(b1, 0.0, w2, shift=s2), TrigTerm(b2, 0.0, w2, shift=s2, cosine=True)]
    else:
        raise InvalidRegimeError(f"unknown generator {which!r} (expected X2, X3 or X4)")
    return phase_state(terms, t)
