"""Numerical verification suites.

Each check exercises one structural identity at randomized parameters and
reports (pass, residual, samples).  All but two are ``_over_draws`` rows of
the ``CHECKS`` table: a bound and (n, measure) pairs.  A row passes when
the worst value of n counted draws of each measure is at most its bound,
and counts as samples the draws that measured a value.  A measure fails a
side condition, or a window that disagrees with Sylvester's test, by
returning inf.  The report also carries the resolved-typo ledger: wherever
two printed readings of a formula disagreed, the entry records which
reading survived the numerical ground truth.
"""
from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from . import dynamics, hierarchy, linalg, symmetry, transform
from .core import (PhaseState, PuParams, _memoized, canonical_tensor,
                   combined_form, combined_tensor, companion_field,
                   flow_residual, hamiltonian_h1, hamiltonian_h2,
                   ostrogradsky_hamiltonian, ostrogradsky_matrix, poisson_j1,
                   poisson_j2)
from .errors import PuError, SingularStructureError
from .modes import derivatives

RESOLVED = {
    "combined-structure-coefficient-numerator":
        "c3 numerator reads c1*w1^2*w2^2 = c1*beta; selected by the flow residual",
    "polynomial-p4-explicit":
        "P4 = alpha^3 - 2*alpha*beta (closed-form sum, ladder-consistent)",
    "square-piece-prefactor-signs":
        "prefactors as displayed; verified by reassembly into c3*H1 + c4*H2",
    "x4-flow-superscripts": "the X4 flow system is read as the phi^(4) family",
    "ghost-oscillator-frequencies": "x^2 and y^2 carry squared frequencies w1^2, w2^2",
    "tb1-window-bounds":
        "window and prefactors use squared frequencies: bx between w1^2 and w2^2, bx - w_j^2",
    "tb1-xy-position-sign":
        "position combination is x*lambda_nu - y*lambda_mu; momenta keep px*lambda_nu + py*tau*lambda_mu",
    "xy-cross-bracket-signs":
        "the displayed {x,py}/{y,px} disagree in sign; the pushforward table gives "
        "{x,py}/ay = {y,px}/ax = mu2*nu2*(alpha*c1-c2) - c1*(mu2*nu0+mu0*nu2) + c2*mu0*nu0/beta",
    "kappa-branch-selection":
        "kappa_+- = 1/2 +- rho_g(transformation's own branch)/(4g + 2w_i^2 - 2w_j^2)",
    "ta2-special-choice-radicand":
        "ax = -ay = +-sqrt(alpha^2 - 4*beta - 4*g) reproduces J1 exactly",
    "ta2-j2-choice-symbol-c":
        "the undefined symbol c is the coupling g; J2 is reached on the Ta2- branch",
    "tb2-nu0-sign":
        "nu0 = -2*beta*g/(ax*by*(alpha + rho0)); required for the second equation to vanish",
    "sm-mu2-exponent": "mu2 = tau^2 (and ax = tau^-2), matching the printed coordinate map",
    "sm-lambda-branch-pairing": "lambda tracks nu_z's root; nu_w carries the complementary root",
    "sm-normalisation":
        "H_SM = mu_w*tau^2 times the Tb1 Legendre pullback; exact equality on the mu_w = tau^-2 slice",
    "interaction-garbled-sentence":
        "only the uniqueness claims are tested; the V=W flow identification is skipped",
    "dq-dx-reading":
        "inverse-map partials of q(x, y); the two-route trajectory comparison is the ground truth",
    "tau-symbol-collision": "tau (transform abbreviation) and tau_sm (embedding timescale) kept distinct",
}

_SIGNS = (-1.0, 1.0)
_REGIMES = ("nondegenerate", "degenerate")


def _pick(rng, options):
    """One of options with equal odds; draws the same stream as
    ``rng.choice(options)`` at a fifth of its cost."""
    return options[rng.integers(0, len(options))]


def _uniform(rng, lo: float, hi: float, size=None):
    """``rng.uniform(lo, hi, size)`` at less than half its cost: numpy
    computes that draw as ``lo + (hi - lo) * rng.random(size)``, so this is
    the same stream, the same bits and the same generator state after.
    It does not refuse hi < lo as numpy does; no call here passes that."""
    return lo + (hi - lo) * rng.random(size)


def random_params(rng) -> PuParams:
    """alpha in [-3, 3], |beta| in [0.1, 3] with a random sign."""
    alpha = _uniform(rng, -3.0, 3.0)
    beta = _uniform(rng, 0.1, 3.0) * _pick(rng, _SIGNS)
    return PuParams(alpha, beta)


def random_freq_params(rng) -> PuParams:
    """Frequencies in [0.4, 2.5] whose squares differ by at least 0.1."""
    while True:
        w1 = _uniform(rng, 0.4, 2.5)
        w2 = _uniform(rng, 0.4, 2.5)
        if abs(w1 * w1 - w2 * w2) >= 0.1:
            return PuParams.from_frequencies(w1, w2)


def _regime_params(regime: str, rng) -> PuParams:
    """Equal frequencies in [0.5, 2] for the degenerate regime, else random_freq_params."""
    if regime == "degenerate":
        w = _uniform(rng, 0.5, 2.0)
        return PuParams.from_frequencies(w, w)
    return random_freq_params(rng)


def admissible_spec(kind: str, p: PuParams, rng) -> transform.TransformSpec:
    """A catalog transformation at drawn free parameters; raises PuError
    when the draw hits an excluded value or a complex branch."""
    ax = _uniform(rng, 0.3, 2.0) * _pick(rng, _SIGNS)
    ay = _uniform(rng, 0.3, 2.0) * _pick(rng, _SIGNS)
    g = _uniform(rng, -0.5, 0.5)
    if kind.startswith("Ta"):
        return transform.build(kind, p, ax=ax, ay=ay, g=g)
    if kind == "Tb1":
        return transform.build(kind, p, ax=ax, bx=_uniform(rng, -3.0, 3.0),
                               g=g if g != 0.0 else 0.3)
    return transform.build(kind, p, ax=ax,
                           by=_uniform(rng, 0.3, 2.0) * _pick(rng, _SIGNS), g=g)


@_memoized
def _stand_in(p: PuParams) -> PuParams:
    """omega = (2, 1), one instance per p, so that the checks of one report
    share its memo, the reference orbit in particular."""
    return PuParams.from_frequencies(2.0, 1.0)


def _nondegenerate(p: PuParams) -> PuParams:
    """p itself, or omega = (2, 1) for the checks that need distinct frequencies."""
    return p if not p.degenerate else _stand_in(p)


def _worst(p, rng, draws) -> tuple[float, int]:
    """The largest value that n counted draws of each (n, measure) pair of
    draws return, in turn, and how many of those draws returned a value.

    ``measure(p, rng)`` returns the values of one draw (none at all for a
    counted draw that measures nothing), or None to draw again without
    counting.  The loop catches no exception, so each measure catches just
    what it redraws on.  A nan value makes the result nan, where ``max``
    would drop it; no values at all give 0.0.
    """
    values, samples = [], 0
    for n, measure in draws:
        for _ in range(n):
            while (drawn := measure(p, rng)) is None:
                pass
            values.extend(drawn)
            samples += len(drawn) > 0
    return float(np.max(values, initial=0.0)), samples


def _over_draws(bound: float, *draws) -> Callable:
    """The check of draws (see ``_worst``) that passes when the worst value
    is at most bound."""
    def check(p, rng, tol):
        worst, samples = _worst(p, rng, draws)
        return worst <= bound, worst, samples
    return check


def _holds(condition: bool) -> tuple[float]:
    """A side condition's value: 0.0 if it holds, else inf, which fails any row."""
    return (0.0 if condition else math.inf,)


def _span_residual(span, target) -> float:
    """Relative least-squares distance of target from the column span."""
    coef, _, _, _ = np.linalg.lstsq(span, target, rcond=None)
    return linalg.relative_residual(span @ coef, target)


def _kernels(p, rng):
    n = int(rng.integers(2, 6))
    a = _uniform(rng, -2.0, 2.0, (n, n))
    if abs(np.linalg.det(a)) < 1e-3:
        return ()
    return (np.max(np.abs(a @ linalg.inverse(a) - np.eye(n))),
            np.max(np.abs(linalg.expm(a * 0.3) @ linalg.expm(-a * 0.3) - np.eye(n))))


def _commutant(p, rng):
    pp = random_params(rng)
    basis = symmetry.solve_symmetries(pp)
    if len(basis) != 4:
        return _holds(False)
    span = np.column_stack([g.matrix.ravel() for g in basis])
    return [_span_residual(span, gen.matrix.ravel()) for gen in symmetry.standard_basis(pp)]


def _commutators(p, rng):
    gens = symmetry.standard_basis(random_params(rng))
    return [linalg.frobenius(symmetry.commutator(gi, gj).matrix) for gi in gens for gj in gens]


def _flow_pairs(p, rng):
    pp = random_params(rng)
    return (flow_residual(poisson_j1(pp), hamiltonian_h1(pp), pp),
            flow_residual(poisson_j2(pp), hamiltonian_h2(pp), pp))


def _ostrogradsky(p, rng):
    pp = random_params(rng)
    t = ostrogradsky_matrix(pp)
    pulled = t.T @ ostrogradsky_hamiltonian(pp).matrix @ t
    tinv = linalg.inverse(t)
    pushed = tinv @ canonical_tensor().matrix @ tinv.T
    return (np.max(np.abs(pulled - hamiltonian_h1(pp).matrix)),
            np.max(np.abs(pushed - poisson_j1(pp).matrix)))


def _involution(p, rng):
    return (hierarchy.involution_residual(random_params(rng), depth=5),)


def _recursion(p, rng):
    pp = random_params(rng)
    ladder = hierarchy.charge_ladder(pp, 4).charges
    c3 = hierarchy.coefficients_on_h1h2(pp, ladder[2])
    c4 = hierarchy.coefficients_on_h1h2(pp, ladder[3])
    return (abs(c3[0] + pp.beta), abs(c3[1] + pp.alpha),
            abs(c4[0] - pp.alpha * pp.beta), abs(c4[1] - (pp.alpha ** 2 - pp.beta)))


def _ladder_routes(p, rng):
    pp = random_params(rng)
    if abs(pp.alpha) < 0.1:
        return ()
    ladder = hierarchy.charge_ladder(pp, 7).charges
    actions = hierarchy.x3_action_ladder(pp, 6)
    values = []
    for k in range(1, 7):
        values += [linalg.relative_residual(route.matrix, ladder[k].matrix)
                   for route in (hierarchy.ladder_via_x3(pp, k), actions[k])]
    return values


def _x4_pair(p, rng):
    pp = random_params(rng)
    hb1, hb2 = hierarchy.x4_pair(pp)
    a4 = symmetry.standard_basis(pp)[3].matrix
    return (linalg.frobenius(poisson_j1(pp).matrix @ hb1.matrix - a4),
            linalg.frobenius(poisson_j2(pp).matrix @ hb2.matrix - a4))


def _combined_flow(p, rng):
    pp = random_freq_params(rng)
    c1, c2 = _uniform(rng, -3.0, 3.0, 2)
    try:
        cs = hierarchy.combine(pp, c1, c2)
    except PuError:
        return None
    return (flow_residual(cs.jbar, cs.hbar, pp),)


def _pd_window(p, rng):
    """inf when the window of a drawn (c1, c2) disagrees with Sylvester's test."""
    pp = random_freq_params(rng)
    c1, c2 = _uniform(rng, -3.0, 3.0, 2)
    w1, w2 = pp.frequencies()
    b1 = (c1 * w1 * w1 - c2) * (w1 * w1 - w2 * w2)
    b2 = (c1 * w2 * w2 - c2) * (w2 * w2 - w1 * w1)
    if min(abs(b1), abs(b2)) < 1e-6:
        return None  # too close to the window boundary for a strict sign test
    try:
        hbar = combined_form(pp, *hierarchy.hbar_coefficients(pp, c1, c2))
    except PuError:
        return None
    return _holds(hierarchy.pd_window(pp, c1, c2) == linalg.is_positive_definite(hbar.matrix))


def _axis_window(p, rng):
    """inf when a draw on the c1 = 0 or the c2 = 0 axis passes the window."""
    pp = random_freq_params(rng)
    on_c1_axis = hierarchy.pd_window(pp, 0.0, _uniform(rng, 0.2, 3.0))
    on_c2_axis = hierarchy.pd_window(pp, _uniform(rng, 0.2, 3.0), 0.0)
    return _holds(not (on_c1_axis or on_c2_axis))


def _window_solvable(p, rng):
    """inf unless, for each frequency order, one of 400 drawn (c1, c2) is in the window."""
    found = [any(hierarchy.pd_window(pp, c1, c2) for c1, c2 in _uniform(rng, -3.0, 3.0, (400, 2)))
             for pp in (PuParams.from_frequencies(2.0, 1.0), PuParams.from_frequencies(1.0, 2.0))]
    return _holds(all(found))


def _pd_decomposition(p, rng):
    pp = random_freq_params(rng)
    c1, c2 = _uniform(rng, -3.0, 3.0, 2)
    try:
        hbar = combined_form(pp, *hierarchy.hbar_coefficients(pp, c1, c2)).matrix
        dec = hierarchy.pd_decompose(pp, c1, c2)
    except PuError:
        return None
    return (linalg.relative_residual(dec.h12.matrix + dec.h21.matrix, hbar),)


def _closed_form_flows(regime, p, rng):
    pp = _regime_params(regime, rng)
    gens = symmetry.standard_basis(pp)
    amps = _uniform(rng, -1.0, 1.0, 4)
    t = _uniform(rng, 0.0, 10.0)
    s = _uniform(rng, 0.0, 2.0)
    values = []
    for name, gen in (("X2", gens[1]), ("X3", gens[2]), ("X4", gens[3])):
        v0 = symmetry.closed_form_flow(name, regime, amps, pp, t, 0.0)
        flowed = symmetry.group_flow(gen, s, v0)
        closed = symmetry.closed_form_flow(name, regime, amps, pp, t, s)
        values.append(np.max(np.abs(flowed.as_array() - closed.as_array())))
    return values


def _ode_residual(regime, p, rng):
    pp = _regime_params(regime, rng)
    sol = dynamics.ClassicalSolution(pp, tuple(_uniform(rng, -1.0, 1.0, 4)), regime)
    t = _uniform(rng, 0.0, 10.0)
    # the phase state and q'''', one exact derivative more
    *v, q4 = derivatives(symmetry.solution_terms(regime, sol.amplitudes, pp), t, 5)
    vdot_last = float((companion_field(pp) @ np.array(v))[3])
    return (abs(q4 - vdot_last),)


def _defining(kind, p, rng):
    pp = random_freq_params(rng)
    try:
        spec = admissible_spec(kind, pp, rng)
    except PuError:
        return None
    return (transform.defining_residual(spec, pp),)


def _pullback(kind, p, rng):
    pp = random_freq_params(rng)
    try:
        spec = admissible_spec(kind, pp, rng)
        got = np.array(transform.pullback_hamiltonian(spec, pp))
    except PuError:
        return None
    want = np.array(transform.catalog_pullback_coefficients(spec, pp))
    return (np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))),)


def _round_trip(p, rng):
    pp = random_freq_params(rng)
    kind = _pick(rng, ("Ta2+", "Ta2-", "Tb1"))
    try:
        spec = admissible_spec(kind, pp, rng)
    except PuError:
        return None
    v = PhaseState(*_uniform(rng, -2.0, 2.0, 4))
    back = transform.inverse(spec, transform.forward(spec, v))
    return (np.max(np.abs(back.as_array() - v.as_array())),)


def _ta1_inverts(p, rng):
    """inf when Ta1+, whose map is singular, inverts."""
    try:
        spec = transform.build("Ta1+", _nondegenerate(p), ax=1.0, ay=1.0, g=0.1)
        transform.inverse(spec, transform.XYState(1.0, 0.0, 0.0, 0.0))
    except PuError:
        return _holds(True)
    return _holds(False)


def _flow_tensor(p, rng):
    pp = random_freq_params(rng)
    kind = _pick(rng, ("Ta2+", "Ta2-", "Tb1"))
    try:
        spec = admissible_spec(kind, pp, rng)
        c3, c4 = transform.pullback_hamiltonian(spec, pp)
        jt = transform.flow_preserving_tensor(pp, c3, c4)
    except SingularStructureError:
        return _holds(False)
    except PuError:
        return None
    return (flow_residual(jt, combined_form(pp, c3, c4), pp),
            transform.canonical_bracket_residual(spec, jt))


def _tensor_accepted(p, rng):
    """inf when flow_preserving_tensor accepts a Ta1 or Tb2 pullback."""
    pp = random_freq_params(rng)
    kind = _pick(rng, ("Ta1+", "Ta1-", "Tb2+", "Tb2-"))
    try:
        spec = admissible_spec(kind, pp, rng)
        c3, c4 = transform.pullback_hamiltonian(spec, pp)
    except PuError:
        return None
    try:
        transform.flow_preserving_tensor(pp, c3, c4)
    except SingularStructureError:
        return _holds(True)
    return _holds(False)


def _j1_reduction(p, rng):
    pp = random_freq_params(rng)
    g = _uniform(rng, -0.4, 0.4)
    radicand = pp.alpha ** 2 - 4.0 * pp.beta - 4.0 * g
    if radicand <= 1e-3:
        return ()
    r = math.sqrt(radicand)
    values = []
    for sign, kind in ((+1.0, "Ta2+"), (-1.0, "Ta2-")):
        spec = transform.build(kind, pp, ax=sign * r, ay=-sign * r, g=g)
        c3, c4 = transform.pullback_hamiltonian(spec, pp)
        jt = transform.flow_preserving_tensor(pp, c3, c4)
        values.append(np.max(np.abs(jt.matrix - poisson_j1(pp).matrix)))
    return values


def _j2_reduction(p, rng):
    # ax = 1, ay = -1/2, g = -alpha +- 3 sqrt(beta)/sqrt(2)
    pp = random_freq_params(rng)
    values = []
    for sgn in (+1.0, -1.0):
        g = -pp.alpha + sgn * 3.0 * math.sqrt(pp.beta) / math.sqrt(2.0)
        try:
            spec = transform.build("Ta2-", pp, ax=1.0, ay=-0.5, g=g)
            c3, c4 = transform.pullback_hamiltonian(spec, pp)
            jt = transform.flow_preserving_tensor(pp, c3, c4)
        except PuError:
            continue
        values.append(np.max(np.abs(jt.matrix - poisson_j2(pp).matrix)))
    return values


def _pushforward(p, rng):
    pp = random_freq_params(rng)
    try:
        spec = admissible_spec(_pick(rng, ("Ta2+", "Tb1")), pp, rng)
    except PuError:
        return None
    c1, c2 = _uniform(rng, -2.0, 2.0, 2)
    table = transform.pushforward_brackets(spec, combined_tensor(pp, c1, c2))
    mu0, _, mu2 = spec.mu
    nu0, _, nu2 = spec.nu
    ax, ay = spec.ax, spec.ay
    alpha, beta = pp.alpha, pp.beta
    want_xpx = ax * (mu2 * mu2 * (alpha * c1 - c2) + c2 * mu0 * mu0 / beta
                     - 2.0 * c1 * mu2 * mu0)
    want_ypy = ay * (c2 * nu0 * nu0 / beta - nu2 * nu2 * (c2 - alpha * c1)
                     - 2.0 * c1 * nu2 * nu0)
    # cross entries: the two displayed formulas disagree in sign with each
    # other; the bracket definition gives {x,py}/ay = {y,px}/ax = cross
    cross = (mu2 * nu2 * (alpha * c1 - c2) - c1 * (mu2 * nu0 + mu0 * nu2)
             + c2 * mu0 * nu0 / beta)
    scale = 1.0 + max(abs(want_xpx), abs(want_ypy), abs(cross))
    return (abs(table[0, 2] - want_xpx) / scale, abs(table[0, 3] - ay * cross) / scale,
            abs(table[1, 2] - ax * cross) / scale, abs(table[1, 3] - want_ypy) / scale,
            abs(table[0, 1]) / scale, abs(table[2, 3]) / scale)


def _ghost_variants(p, rng):
    """How far the g = 0 Lorentzian form misses diag(w_hi^2, -w_lo^2, 1, -1),
    and inf unless it is indefinite, the g -> 0 limit of its variant, and
    the Euclidean variant at g = 0.1 is positive definite."""
    pp = _nondegenerate(p)
    lo, hi = sorted(w * w for w in pp.frequencies())
    gh = transform.ghost_variant(pp, g=0.0, a_y_choice=-1.0)
    want = np.diag([hi, -lo, 1.0, -1.0])
    indefinite = any(d < 0.0 for d in linalg.leading_minors(gh.matrix))
    limit = all(np.max(np.abs(transform.ghost_variant(pp, g=g, a_y_choice=-1.0).matrix
                              - gh.matrix)) <= 10.0 * g for g in (1e-4, 1e-6))
    positive = linalg.is_positive_definite(
        transform.ghost_variant(pp, g=0.1, a_y_choice=1.0).matrix)
    return (np.max(np.abs(gh.matrix - want)), *_holds(indefinite and limit and positive))


def _ta2_windows(p, rng):
    """inf unless window and Sylvester find Ta2 at omega = (2, 1) open at g = 1, shut at g = 2."""
    pp = PuParams.from_frequencies(2.0, 1.0)
    return _holds(all(transform.ta2_window(pp, g) == expect
                      == linalg.is_positive_definite(transform.ta2_form(pp, g).matrix)
                      for g, expect in ((1.0, True), (2.0, False))))


def _tb1_window(p, rng):
    """inf when the Tb1 window at a drawn bx disagrees with Sylvester's test."""
    pp = random_freq_params(rng)
    w1, w2 = pp.frequencies()
    bx = _uniform(rng, 0.0, 1.3 * max(w1, w2) ** 2)
    if min(abs(bx - w1 * w1), abs(bx - w2 * w2)) < 1e-4:
        return ()
    return _holds(transform.tb1_window(pp, bx)
                  == linalg.is_positive_definite(transform.tb1_form(pp, bx).matrix))


def _reassembly(dec, want_q) -> tuple[float, float]:
    """How far the summed q pieces of dec miss want_q, and its summed xy
    pieces the Legendre form of its transformation."""
    return (float(np.max(np.abs(dec.h12_q.matrix + dec.h21_q.matrix - want_q))),
            float(np.max(np.abs(dec.h12_xy.matrix + dec.h21_xy.matrix
                                - transform.legendre(dec.spec).matrix))))


def _ta2_pieces(p, rng):
    """The reassembly of a drawn Ta2 decomposition, and inf when a piece
    inside the window is not positive semidefinite."""
    pp = random_freq_params(rng)
    w1, w2 = pp.frequencies()
    g = _uniform(rng, -0.45, 0.45) * abs(w1 * w1 - w2 * w2)
    try:
        dec = transform.ta2_decomposition(pp, g)
    except PuError:
        return None
    values = _reassembly(dec, transform.ta2_form(pp, g).matrix)
    spectra = [np.linalg.eigvalsh(piece.matrix) for piece in (dec.h12_q, dec.h21_q, dec.h12_xy,
               dec.h21_xy)] if transform.ta2_window(pp, g) else []
    return (*values, *_holds(not any(ev.min() < -1e-10 * (1.0 + abs(ev.max())) for ev in spectra)))


def _tb1_pieces(p, rng):
    pp = random_freq_params(rng)
    w1, w2 = pp.frequencies()
    lo, hi = sorted((w1 * w1, w2 * w2))
    bx = _uniform(rng, lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
    g = _uniform(rng, 0.3, 1.5) * _pick(rng, _SIGNS)
    try:
        dec = transform.tb1_decomposition(pp, bx, g)
    except PuError:
        return None
    return _reassembly(dec, transform.tb1_form(pp, bx).matrix)


def _sm_embedding(p, rng):
    pp = random_freq_params(rng)
    mu_w = _uniform(rng, 0.3, 2.0)
    mu_z = _uniform(rng, 0.3, 2.0)
    tau_sm = _uniform(rng, 0.5, 1.5)
    branch = int(_pick(rng, _SIGNS))
    try:
        emb = transform.sm_embedding(pp, mu_w, mu_z, tau_sm, branch)
    except PuError:
        return None
    c3, c4 = transform.pullback_hamiltonian(emb.spec, pp)
    hq = combined_form(pp, c3, c4)
    values = []
    for _ in range(20):
        v = PhaseState(*_uniform(rng, -1.0, 1.0, 4))
        hsm = emb.h_sm.value(emb.state(v))
        values.append(abs(hsm - emb.scale * hq.value(v)) / (1.0 + abs(hsm)))
    jt = transform.flow_preserving_tensor(pp, c3, c4)
    values.append(flow_residual(jt, hq, pp))
    return values


def _reference_solution(pp: PuParams) -> dynamics.ClassicalSolution:
    return dynamics.ClassicalSolution(pp, (0.3, -0.5, 0.7, 0.2), "nondegenerate")


@_memoized
def _reference_orbit(pp: PuParams) -> dynamics.Trajectory:
    """The h = 1e-3 LinearField orbit of the reference solution to t = 50.

    ``dynamics.rk4`` reads its first 10,001 rows, which are bit for bit the
    orbit to t = 10, and ``dynamics.conservation`` reads all of it.
    """
    v0 = dynamics.eval_solution(_reference_solution(pp), 0.0)
    orbit = dynamics.integrate(dynamics.LinearField(pp), v0, 1e-3, 50.0)
    orbit.times.setflags(write=False)
    orbit.states.setflags(write=False)
    return orbit


def _rk4(p, rng):
    """The reference orbit's distance from the exact solution to t = 10,
    and inf unless halving h cuts the error at t = 10 at least 14-fold."""
    pp = _nondegenerate(p)
    sol = _reference_solution(pp)
    v0 = dynamics.eval_solution(sol, 0.0)
    traj = _reference_orbit(pp)
    every = slice(0, 10001, 200)
    exact = dynamics.eval_solution(sol, traj.times[every])
    end = dynamics.eval_solution(sol, 10.0).as_array()
    coarse, fine = (np.max(np.abs(dynamics.integrate(dynamics.LinearField(pp), v0, h, 10.0)
                                  .final_state().as_array() - end)) for h in (0.02, 0.01))
    return (np.max(np.abs(traj.states[every] - exact)), *_holds(coarse / fine >= 14.0))


def _conservation(p, rng):
    """The drift of six charges along the reference orbit and of the
    augmented energy under a quartic potential, and inf unless the bare
    energy drifts there by more than 1e-3."""
    pp = _nondegenerate(p)
    v0 = dynamics.eval_solution(_reference_solution(pp), 0.0)
    charges = list(hierarchy.charge_ladder(pp, 6).charges)
    drifts = dynamics.conservation_report(_reference_orbit(pp), charges)
    pot = dynamics.quartic_potential(0.25)
    traj_i = dynamics.integrate(dynamics.PotentialField(pp, pot), v0, 1e-3, 20.0)
    bare = dynamics.conservation_report(traj_i, [charges[0]])[0]
    augmented = dynamics.conservation_report(traj_i, [charges[0]], augment=pot)[0]
    return (*drifts, augmented, *_holds(bare > 1e-3))


def _check_degenerate_growth(p, rng, tol):
    terms = symmetry.solution_terms("degenerate", (0.0, 0.0, 1.0, 0.0),
                                    PuParams.from_frequencies(1.0, 1.0))
    # q alone, the first of the derivatives, over each window of 80 times
    early, late = (float(np.max(np.abs(derivatives(terms, np.linspace(a, a + 2.0, 80), 1)[0])))
                   for a in (0.0, 18.0))
    return late > 5.0 * early, late / max(early, 1e-30), 160


def _check_interaction_unique(p, rng, tol):
    pp = _nondegenerate(p)
    unique, floors = True, []
    for pot, want in ((dynamics.quartic_potential(0.25), (1.0, 0.0)),
                      (dynamics.quartic_potential(0.25, kind="on_qdd"), (0.0, 1.0))):
        rep = dynamics.interaction_compatibility(pp, pot, rng=rng)
        if len(rep.compatible) != 1 or rep.compatible_ray != want:
            unique = False
            continue
        floors += [rep.residuals[k] / rep.scale for k in range(len(rep.angles))
                   if k not in rep.compatible]
    floor = float(np.min(floors, initial=math.inf))  # np.min keeps a nan that min() drops
    return unique and floor >= 1e-3, floor, 64


def _two_route(p, rng):
    return (dynamics.two_route_max_error(_nondegenerate(p), 0.5, dynamics.quartic_potential(0.25),
                                         PhaseState(0.3, -0.2, 0.25, 0.1), h=1e-3, t_end=5.0),)


def _discovery(p, rng):
    pp = random_params(rng)
    res = dynamics.structure_discovery(pp)
    span = np.column_stack([k.ravel() for k in res.kernels])
    values = [_span_residual(span, linalg.inverse(tensor.matrix).ravel())
              for tensor in (poisson_j1(pp), poisson_j2(pp))]
    return values + [flow_residual(j, h, pp) for j, h in res.pairs]


# (id, anchor, fn(p, rng, tol)).  No check reads tol, and run_verification
# passes None; the slot stays because perfbench's replay of the registry
# (perfbench/tracing.py) calls each fn with three arguments.
CHECKS: list[tuple[str, str, Callable]] = [
    ("kernels.identities", "invented — artifact plumbing", _over_draws(1e-9, (20, _kernels))),
    ("lie.commutant-dimension", "§2.1", _over_draws(1e-9, (25, _commutant))),
    ("lie.abelian-algebra", "Eqs. (Lie1)–(Lie4)", _over_draws(1e-12, (25, _commutators))),
    ("structure.flow-pairs", "Eq. (flow1)", _over_draws(1e-12, (100, _flow_pairs))),
    ("structure.ostrogradsky", "Eq. (equm3)", _over_draws(1e-12, (50, _ostrogradsky))),
    ("hierarchy.involution", "Eq. (Poi1)", _over_draws(1e-10, (20, _involution))),
    ("hierarchy.recursion-coefficients", "Eq. (recn)", _over_draws(1e-10, (25, _recursion))),
    ("hierarchy.ladder-routes", "§2.3", _over_draws(1e-9, (25, _ladder_routes))),
    ("hierarchy.x4-pair", "§2.3", _over_draws(1e-10, (50, _x4_pair))),
    ("combined.flow-residual", "Eq. (a1234)", _over_draws(1e-10, (200, _combined_flow))),
    ("combined.pd-window", "Eq. (PDC)",
     _over_draws(0.0, (200, _pd_window), (20, _axis_window), (1, _window_solvable))),
    ("combined.pd-decomposition", "Eq. (H12H21)", _over_draws(1e-10, (50, _pd_decomposition))),
    ("flows.closed-forms", "§2.4",
     _over_draws(1e-8, *((10, partial(_closed_form_flows, r)) for r in _REGIMES))),
    ("solutions.ode-residual", "Eq. (solndeg)",
     _over_draws(1e-9, *((50, partial(_ode_residual, r)) for r in _REGIMES))),
    ("catalog.defining-relations", "Eqs. (Ta1tran)–(Tb2tran)",
     _over_draws(1e-10, *((50, partial(_defining, kind)) for kind in transform.KINDS))),
    ("catalog.pullback-coefficients", "Eqs. (HT1)–(HT4)",
     _over_draws(1e-9, *((50, partial(_pullback, kind)) for kind in transform.KINDS))),
    ("catalog.inverse-map", "Eq. (qqqxy)", _over_draws(1e-10, (50, _round_trip), (1, _ta1_inverts))),
    ("catalog.flow-tensor", "Eq. (Jflow)",
     _over_draws(1e-10, (50, _flow_tensor), (20, _tensor_accepted))),
    ("catalog.tensor-reductions", "Eq. (J2)",
     _over_draws(1e-10, (20, _j1_reduction), (10, _j2_reduction))),
    ("catalog.pushforward-brackets", "Eqs. (nanvP1)–(nanvP2)", _over_draws(1e-9, (50, _pushforward))),
    ("ghost.variants", "§3.3", _over_draws(1e-10, (1, _ghost_variants))),
    ("positivity.windows", "§4", _over_draws(0.0, (1, _ta2_windows), (50, _tb1_window))),
    ("positivity.square-pieces", "§4", _over_draws(1e-10, (20, _ta2_pieces), (20, _tb1_pieces))),
    ("sm.embedding", "Eq. (Alicoeff)", _over_draws(1e-9, (10, _sm_embedding))),
    ("dynamics.rk4", "Eq. (1flow)", _over_draws(1e-6, (1, _rk4))),
    ("dynamics.conservation", "§2.3", _over_draws(1e-8, (1, _conservation))),
    ("dynamics.degenerate-growth", "Eq. (soldeg)", _check_degenerate_growth),
    ("interaction.unique-tensor", "§4.1", _check_interaction_unique),
    ("interaction.two-route", "§4.1", _over_draws(1e-6, (1, _two_route))),
    ("discovery.structures", "§2.2", _over_draws(1e-9, (10, _discovery))),
]


def run_verification(p: PuParams, seed: int) -> dict:
    """Run every suite and assemble the JSON-ready report."""
    rng = np.random.default_rng(seed)
    checks = []
    for check_id, anchor, fn in CHECKS:
        passed, residual, samples = fn(p, rng, None)
        checks.append({
            "id": check_id,
            "anchor": anchor,
            "pass": bool(passed),
            "residual": float(residual),
            "samples": int(samples),
        })
    params = {"alpha": p.alpha, "beta": p.beta,
              "omega1": p.omega1, "omega2": p.omega2}
    return {
        "seed": int(seed),
        "params": params,
        "checks": checks,
        "resolved": dict(sorted(RESOLVED.items())),
        "pass": all(c["pass"] for c in checks),
    }
