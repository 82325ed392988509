"""Exact time derivatives of oscillatory terms (c0 + c1*t) * trig(w*(t+shift)).

The closed-form solutions and symmetry-group flows are finite sums of such
terms, so repeated analytic differentiation gives exact phase states without
any symbolic machinery.

``derivatives`` is the one evaluator, generic over the number type of t.  At
a float t it evaluates with ``math.sin``/``math.cos`` and returns floats; at
an array of times it evaluates with ``np.sin``/``np.cos`` and returns arrays,
making the same IEEE operations per element.  Every derivative of a term
keeps the term's argument w*(t+shift), so one sin and one cos per term of the
list serve all orders.  The terms of derivative k + 1 come from those of
derivative k in a fixed order (``_d_dt``), and each derivative is their sum
from 0 in that order.  So a state at one time has the same bits alone or as
a row of a grid wherever numpy's sin and cos agree with math's, which a test
pins on the arguments of ``puosc flow``.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import PhaseState, require_finite_states


class TrigTerm(NamedTuple):
    c0: float
    c1: float
    omega: float
    shift: float = 0.0
    cosine: bool = False


def _d_dt(terms: list[tuple]) -> list[tuple]:
    """Differentiate (k, c0, c1, omega, cosine) terms once with respect to t;
    k, the index of the term they derive from, names their argument."""
    out = []
    for k, c0, c1, omega, cosine in terms:
        if c1 != 0.0:
            out.append((k, c1, 0.0, omega, cosine))
        # trig' : sin -> +cos, cos -> -sin
        sign = -1.0 if cosine else 1.0
        out.append((k, sign * omega * c0, sign * omega * c1, omega, not cosine))
    return out


def derivatives(terms: list[TrigTerm], t, count: int = 4) -> list:
    """[q, q', ..., q^(count - 1)] of the sum of the terms at t: floats at a
    float t, arrays of t's shape at an array of times."""
    sin, cos = (np.sin, np.cos) if isinstance(t, np.ndarray) else (math.sin, math.cos)
    trig = []  # (sin, cos) of each term's argument; a term's cosine flag indexes it
    for u in terms:
        arg = u.omega * (t + u.shift)
        trig.append((sin(arg), cos(arg)))
    level = [(k, u.c0, u.c1, u.omega, u.cosine) for k, u in enumerate(terms)]
    values = []
    while True:
        total = 0.0
        for k, c0, c1, _, cosine in level:
            total = total + (c0 + c1 * t) * trig[k][cosine]
        values.append(total)
        if len(values) == count:
            return values
        level = _d_dt(level)


def phase_state(terms: list[TrigTerm], t):
    """The phase state (q, q', q'', q''') at a float t; at an array of n
    times, the (n, 4) array whose rows are those states.  A non-finite state
    raises InvalidInputError either way."""
    values = derivatives(terms, t)
    if isinstance(t, np.ndarray):
        return require_finite_states(np.stack(values, axis=-1))
    return PhaseState(*values)
