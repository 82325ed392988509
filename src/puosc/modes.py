"""Exact time derivatives of oscillatory terms (c0 + c1*t) * trig(w*(t+shift)).

The closed-form solutions and symmetry-group flows are finite sums of such
terms, so repeated analytic differentiation gives exact phase states without
any symbolic machinery.  A term is a named tuple: ``phase_state`` builds
about twenty of them per call, and a tuple is the cheapest immutable record
to build.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .core import PhaseState


class TrigTerm(NamedTuple):
    c0: float
    c1: float
    omega: float
    shift: float = 0.0
    cosine: bool = False

    def value(self, t: float) -> float:
        arg = self.omega * (t + self.shift)
        trig = math.cos(arg) if self.cosine else math.sin(arg)
        return (self.c0 + self.c1 * t) * trig


def d_dt(terms: list[TrigTerm]) -> list[TrigTerm]:
    """Differentiate a term list once with respect to t."""
    out = []
    for c0, c1, omega, shift, cosine in terms:
        if c1 != 0.0:
            out.append(TrigTerm(c1, 0.0, omega, shift, cosine))
        # trig' : sin -> +cos, cos -> -sin
        sign = -1.0 if cosine else 1.0
        out.append(TrigTerm(sign * omega * c0, sign * omega * c1, omega, shift, not cosine))
    return out


def eval_terms(terms: list[TrigTerm], t: float) -> float:
    return sum(u.value(t) for u in terms)


def phase_state(terms: list[TrigTerm], t: float) -> PhaseState:
    """Evaluate q and its first three exact derivatives at time t."""
    values = [eval_terms(terms, t)]
    for _ in range(3):
        terms = d_dt(terms)
        values.append(eval_terms(terms, t))
    return PhaseState(*values)
