import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puosc.core import (PhaseState, PoissonTensor, PuParams, flow_residual,
                        hamiltonian_h1, hamiltonian_h2, poisson_j1, poisson_j2)
from puosc.errors import (ComplexBranchError, ConstructionError,
                          DecompositionUndefinedError, DegenerateCombinationError,
                          DegenerateLegendreError, InvalidInputError,
                          NonInvertibleTransformError, SingularStructureError)
from puosc.hierarchy import combine, hbar_coefficients
from puosc.linalg import is_positive_definite, leading_minors
from puosc.transform import (XYState, build, canonical_bracket_residual,
                             flow_preserving_tensor, forward, ghost_variant, inverse,
                             inverse_jacobian, jacobian, legendre,
                             pd_decompose_transformed, pd_window_transformed,
                             pullback_hamiltonian, pushforward_brackets,
                             sm_embedding, tau_of, tensor_coefficients,
                             transformed_form)
from puosc.verify import admissible_spec, random_freq_params

# finite, and far enough from overflow and underflow that the map's products
# c^2 beta stay normal floats
_FINITE = st.floats(-1e30, 1e30).filter(lambda x: x == 0.0 or abs(x) >= 1e-30)
_EPS = np.finfo(float).eps


def draw_spec(kind, p, rng):
    while True:
        try:
            return admissible_spec(kind, p, rng)
        except (ComplexBranchError, ConstructionError):
            continue


class TestBuild:
    def test_ta2_example_coefficients(self, p54):
        spec = build("Ta2+", p54, ax=1.0, ay=1.0, g=0.0)
        assert spec.bx == 4.0 and spec.by == 1.0
        assert spec.mu == (1.0, 0.0, 1.0) and spec.nu == (4.0, 0.0, 1.0)

    def test_ta1_rows_proportional(self, p54):
        spec = build("Ta1+", p54, ax=1.0, ay=0.5, g=0.2)
        mu0, _, mu2 = spec.mu
        nu0, _, nu2 = spec.nu
        assert mu2 * nu0 - mu0 * nu2 == pytest.approx(0.0, abs=1e-14)

    def test_tb1_example_tau_and_ay(self, p54):
        spec = build("Tb1", p54, ax=1.0, bx=-5.0, g=1.0)
        assert tau_of(p54, 1.0, -5.0) == 54.0
        assert spec.ay == pytest.approx(-1.0 / 54.0, rel=1e-14)

    def test_ax_zero_rejected(self, p54):
        with pytest.raises(ConstructionError):
            build("Ta2+", p54, ax=0.0, ay=1.0)

    def test_ta_requires_nonzero_ay(self, p54):
        with pytest.raises(ConstructionError):
            build("Ta1+", p54, ax=1.0, ay=0.0)

    def test_tb1_needs_nonzero_g(self, p54):
        with pytest.raises(ConstructionError):
            build("Tb1", p54, ax=1.0, bx=0.5, g=0.0)

    def test_tb1_excluded_bx_root(self, p54):
        bx_root = 0.5 * (p54.alpha + 3.0)  # makes tau vanish
        with pytest.raises(ConstructionError):
            build("Tb1", p54, ax=1.0, bx=bx_root, g=1.0)

    def test_tb2_needs_by(self, p54):
        with pytest.raises(ConstructionError):
            build("Tb2+", p54, ax=1.0, by=0.0, g=0.1)

    def test_negative_radicand(self, p54):
        with pytest.raises(ComplexBranchError):
            build("Ta2+", p54, ax=1.0, ay=1.0, g=5.0)

    def test_unknown_kind(self, p54):
        with pytest.raises(InvalidInputError):
            build("Tc9", p54, ax=1.0)


class TestForwardInverse:
    def test_round_trip(self, p54):
        spec = build("Ta2+", p54, ax=1.0, ay=1.0, g=0.0)
        v = PhaseState(1.0, 0.5, -0.3, 2.0)
        back = inverse(spec, forward(spec, v))
        assert np.max(np.abs(back.as_array() - v.as_array())) <= 1e-10

    def test_zero_maps_to_zero(self, p54):
        spec = build("Tb1", p54, ax=1.0, bx=0.4, g=1.0)
        w = forward(spec, PhaseState(0, 0, 0, 0))
        assert w.as_array().tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_ta1_not_invertible(self, p54):
        for kind in ("Ta1+", "Ta1-"):
            spec = build(kind, p54, ax=1.0, ay=1.0, g=0.0)
            with pytest.raises(NonInvertibleTransformError, match="map not invertible"):
                inverse(spec, XYState(1.0, 0.0, 0.0, 0.0))
            with pytest.raises(NonInvertibleTransformError, match="map not invertible"):
                inverse_jacobian(spec)

    def test_tb2_not_invertible(self, p54):
        # nu = -g/by * mu: the determinant test fires before the ay = 0 one
        for kind in ("Tb2+", "Tb2-"):
            spec = build(kind, p54, ax=1.0, by=1.0, g=0.5)
            with pytest.raises(NonInvertibleTransformError, match="map not invertible"):
                inverse(spec, XYState(1.0, 0.0, 0.0, 0.0))
            with pytest.raises(NonInvertibleTransformError, match="map not invertible"):
                inverse_jacobian(spec)

    def test_zero_ay_momenta_not_invertible(self, p54):
        # no catalog kind builds an invertible map with ay = 0, but a
        # TransformSpec is public input
        spec = dataclasses.replace(build("Ta2+", p54, ax=1.0, ay=1.0, g=0.5), ay=0.0)
        with pytest.raises(NonInvertibleTransformError, match="ay = 0, momenta not invertible"):
            inverse_jacobian(spec)

    def test_round_trips_for_invertible_kinds(self, rng):
        for kind in ("Ta2+", "Ta2-", "Tb1"):
            for _ in range(20):
                p = random_freq_params(rng)
                spec = draw_spec(kind, p, rng)
                v = PhaseState(*rng.uniform(-2, 2, 4))
                back = inverse(spec, forward(spec, v))
                assert np.max(np.abs(back.as_array() - v.as_array())) <= 1e-10
                product = inverse_jacobian(spec) @ jacobian(spec)
                assert np.max(np.abs(product - np.eye(4))) <= 1e-10


class TestLegendre:
    def test_decoupled_unit_oscillators(self, p54):
        spec = build("Ta2+", p54, ax=1.0, ay=1.0, g=0.0)
        h = legendre(build("Ta2+", p54, ax=1.0, ay=1.0, g=0.0))
        assert h.matrix[2, 2] == 1.0 and h.matrix[3, 3] == 1.0
        assert h.matrix[0, 1] == 0.0

    def test_indefinite_kinetic_form(self, p54):
        spec = build("Ta2+", p54, ax=1.0, ay=-1.0, g=0.0)
        h = legendre(spec)
        assert h.matrix[2, 2] == 1.0 and h.matrix[3, 3] == -1.0

    def test_coupling_entry(self, p54):
        spec = build("Ta2+", p54, ax=1.0, ay=1.0, g=0.25)
        assert legendre(spec).matrix[0, 1] == 0.25

    def test_degenerate_kinetic_rejected(self, p54):
        spec = build("Tb2+", p54, ax=1.0, by=1.0, g=0.5)
        with pytest.raises(DegenerateLegendreError):
            legendre(spec)


class TestPullback:
    def test_tb1_example(self, p54):
        spec = build("Tb1", p54, ax=1.0, bx=0.0, g=1.0)
        c1, c2 = pullback_hamiltonian(spec, p54)
        assert (c1, c2) == pytest.approx((-5.0, -1.0), abs=1e-10)

    def test_ta2_opposite_kinetic_kills_h2(self, p54):
        spec = build("Ta2+", p54, ax=1.0, ay=-1.0, g=0.0)
        _, c2 = pullback_hamiltonian(spec, p54)
        assert abs(c2) <= 1e-12

    def test_ta1_example(self, p54):
        spec = build("Ta1+", p54, ax=1.0, ay=1.0, g=0.0)
        c1, c2 = pullback_hamiltonian(spec, p54)
        assert (c1, c2) == pytest.approx((-2.0, -2.0), abs=1e-10)


class TestFlowPreservingTensor:
    def test_tb1_closed_form(self, p54):
        spec = build("Tb1", p54, ax=1.0, bx=0.0, g=1.0)
        c3, c4 = pullback_hamiltonian(spec, p54)
        jt = flow_preserving_tensor(p54, c3, c4)
        tau = tau_of(p54, 1.0, 0.0)
        want = (1.0 / tau) * ((0.0 - 5.0) * poisson_j1(p54).matrix
                              - 4.0 * poisson_j2(p54).matrix)
        assert np.max(np.abs(jt.matrix - want)) <= 1e-10
        hbar = c3 * hamiltonian_h1(p54) + c4 * hamiltonian_h2(p54)
        assert flow_residual(jt, hbar, p54) <= 1e-10

    @pytest.mark.parametrize("kind", ["Ta1+", "Ta1-", "Tb2+", "Tb2-"])
    def test_exclusion_trips(self, kind, rng):
        for _ in range(10):
            p = random_freq_params(rng)
            spec = draw_spec(kind, p, rng)
            c3, c4 = pullback_hamiltonian(spec, p)
            with pytest.raises(SingularStructureError):
                flow_preserving_tensor(p, c3, c4)

    @pytest.mark.parametrize("sign,kind", [(+1.0, "Ta2+"), (-1.0, "Ta2-")])
    def test_reduces_to_j1_at_special_choice(self, sign, kind, p54):
        g = 0.5
        r = math.sqrt(p54.alpha ** 2 - 4.0 * p54.beta - 4.0 * g)
        spec = build(kind, p54, ax=sign * r, ay=-sign * r, g=g)
        c3, c4 = pullback_hamiltonian(spec, p54)
        jt = flow_preserving_tensor(p54, c3, c4)
        assert np.max(np.abs(jt.matrix - poisson_j1(p54).matrix)) <= 1e-10

    def test_reduces_to_j2_at_special_coupling(self, p54):
        # ax = 1, ay = -1/2 and coupling g = -alpha ± 3 sqrt(beta)/sqrt(2)
        for sgn in (+1.0, -1.0):
            g = -p54.alpha + sgn * 3.0 * math.sqrt(p54.beta) / math.sqrt(2.0)
            spec = build("Ta2-", p54, ax=1.0, ay=-0.5, g=g)
            c3, c4 = pullback_hamiltonian(spec, p54)
            jt = flow_preserving_tensor(p54, c3, c4)
            assert np.max(np.abs(jt.matrix - poisson_j2(p54).matrix)) <= 1e-10

    def test_inverts_combination_coefficients(self, rng):
        p = random_freq_params(rng)
        c3, c4 = 1.3, -0.4
        c1, c2 = tensor_coefficients(p, c3, c4)
        jt = flow_preserving_tensor(p, c3, c4)
        want = c1 * poisson_j1(p).matrix + c2 * poisson_j2(p).matrix
        assert np.max(np.abs(jt.matrix - want)) == 0.0

    @pytest.mark.parametrize("a,b,singular", [
        (1.0, 4.0, True), (1.0, 1.0, True), (0.0, 0.0, True), (1.0, 4.0 + 4e-12, True),
        (1e-8, 1e-8 + 1e-21, True), (1.0, 4.0 + 4e-6, False), (1e-8, 2e-8, False),
        (1e-150, 3e-150, False), (0.0, 1.0, False), (1.0, 0.0, False)])
    def test_refuses_where_combine_refuses(self, a, b, singular, p54):
        # one guard: combine(c1, c2) = (a, b) and its inverse at (c3, c4) = (b, a)
        with pytest.raises(DegenerateCombinationError) if singular else contextlib.nullcontext():
            combine(p54, a, b)
        with pytest.raises(SingularStructureError) if singular else contextlib.nullcontext():
            tensor_coefficients(p54, b, a)

    def test_defined_where_the_frequencies_are_complex(self):
        # alpha^2 < 4 beta: D = c3^2 - alpha c3 c4 + beta c4^2 needs no frequencies
        p = PuParams(1.0, 4.0)
        assert np.array_equal(flow_preserving_tensor(p, 1.0, 0.0).matrix, poisson_j1(p).matrix)
        assert combine(p, 1.0, 0.0).c3 == 1.0

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_FINITE, _FINITE.filter(lambda x: x != 0.0), _FINITE, _FINITE)
    @example(5.0, 4.0, 1.0, 4.0)  # D = 0
    def test_one_map_both_ways(self, alpha, beta, c1, c2):
        """hbar_coefficients and tensor_coefficients refuse on the same set, and
        tensor_coefficients inverts hbar_coefficients.  Each rounds D, whose
        relative error grows with kappa = terms / |D|, so the round trip is
        bounded by a few ulps times kappa."""
        p = PuParams(alpha, beta)
        try:
            c3, c4 = hbar_coefficients(p, c1, c2)
        except DegenerateCombinationError:
            with pytest.raises(SingularStructureError):
                tensor_coefficients(p, c2, c1)
            return
        assert tensor_coefficients(p, c2, c1) == (c4, c3)
        back = tensor_coefficients(p, c3, c4)
        terms = c2 * c2 + abs(alpha * c1 * c2) + abs(beta) * c1 * c1
        kappa = terms / abs(c2 * c2 - alpha * c1 * c2 + beta * c1 * c1)
        for got, want in zip(back, (c1, c2)):
            assert abs(got - want) <= 8.0 * _EPS * kappa * abs(want)


class TestPushforward:
    @pytest.mark.parametrize("kind", ["Ta2+", "Ta2-", "Tb1"])
    def test_catalog_brackets_are_canonical(self, kind, rng):
        for _ in range(15):
            p = random_freq_params(rng)
            spec = draw_spec(kind, p, rng)
            jt = flow_preserving_tensor(p, *pullback_hamiltonian(spec, p))
            assert canonical_bracket_residual(spec, jt) <= 1e-10

    def test_generic_x_px_entry(self, p54, rng):
        spec = draw_spec("Ta2+", p54, rng)
        mu0, _, mu2 = spec.mu
        table = pushforward_brackets(spec, poisson_j1(p54))
        want = spec.ax * (mu2 * mu2 * p54.alpha - 2.0 * mu2 * mu0)
        assert table[0, 2] == pytest.approx(want, rel=1e-12)

    def test_cross_entries_share_one_bracket(self, p54, rng):
        # {x, py}/ay = {y, px}/ax for every tensor in the span
        spec = draw_spec("Tb1", p54, rng)
        c1, c2 = rng.uniform(-2, 2, 2)
        j = PoissonTensor(c1 * poisson_j1(p54).matrix + c2 * poisson_j2(p54).matrix)
        table = pushforward_brackets(spec, j)
        assert table[0, 3] / spec.ay == pytest.approx(table[1, 2] / spec.ax, rel=1e-9)
        assert table[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert table[2, 3] == pytest.approx(0.0, abs=1e-12)


class TestGhostVariants:
    def test_opposite_sign_oscillators(self, p54):
        h = ghost_variant(p54, g=0.0, a_y_choice=-1.0)
        assert np.array_equal(h.matrix, np.diag([4.0, -1.0, 1.0, -1.0]))
        minors = leading_minors(h.matrix)
        assert any(m < 0 for m in minors)

    def test_lorentzian_coefficients(self, p54):
        g = 0.1
        rho = math.sqrt(p54.alpha ** 2 - 4.0 * p54.beta + 4.0 * g * g)
        h = ghost_variant(p54, g=g, a_y_choice=-1.0)
        assert h.matrix[0, 0] / 2.0 == pytest.approx((rho + 5.0) / 4.0, rel=1e-12)
        assert h.matrix[1, 1] / 2.0 == pytest.approx((rho - 5.0) / 4.0, rel=1e-12)
        assert h.matrix[0, 1] == g

    def test_coupling_to_zero_limit(self, p54):
        base = ghost_variant(p54, g=0.0, a_y_choice=-1.0)
        for g in (1e-4, 1e-7):
            close = ghost_variant(p54, g=g, a_y_choice=-1.0)
            assert np.max(np.abs(close.matrix - base.matrix)) <= 10.0 * g

    def test_space_coupled_positive_variant(self, p54):
        h = ghost_variant(p54, g=0.0, a_y_choice=1.0)
        assert h.matrix[2, 2] == 1.0 and h.matrix[3, 3] == 1.0
        assert is_positive_definite(h.matrix)

    def test_ghost_matches_pullback_claim(self, p54, rng):
        # H(x) for ax = -ay = 1, g = 0 pulls back to (w2^2 - w1^2)/ay * H1
        spec = build("Ta2+", p54, ax=1.0, ay=-1.0, g=0.0)
        want = (1.0 - 4.0) / (-1.0)  # = 3
        c1, c2 = pullback_hamiltonian(spec, p54)
        assert c1 == pytest.approx(want, rel=1e-12)
        assert c2 == pytest.approx(0.0, abs=1e-12)


class TestPositivityWindows:
    def test_ta2_window_boundary(self, p54):
        for g, expected in ((1.0, True), (2.0, False)):
            form = transformed_form("Ta2", p54, g=g)
            window = pd_window_transformed("Ta2", p54, g=g)
            minors_positive = all(d > 0 for d in leading_minors(form.matrix))
            assert window == expected == minors_positive

    def test_ta2_decomposition_both_variable_sets(self, p54):
        dec = pd_decompose_transformed("Ta2", p54, g=1.0)
        total_q = dec.h12_q.matrix + dec.h21_q.matrix
        assert np.max(np.abs(total_q - transformed_form("Ta2", p54, g=1.0).matrix)) <= 1e-10
        total_xy = dec.h12_xy.matrix + dec.h21_xy.matrix
        assert np.max(np.abs(total_xy - legendre(dec.spec).matrix)) <= 1e-10

    def test_tb1_decomposition_both_variable_sets(self, p54):
        dec = pd_decompose_transformed("Tb1", p54, bx=2.5, g=1.0)
        total_q = dec.h12_q.matrix + dec.h21_q.matrix
        assert np.max(np.abs(total_q - transformed_form("Tb1", p54, bx=2.5).matrix)) <= 1e-10
        total_xy = dec.h12_xy.matrix + dec.h21_xy.matrix
        assert np.max(np.abs(total_xy - legendre(dec.spec).matrix)) <= 1e-10

    def test_pieces_nonnegative_inside_window(self, p54):
        dec = pd_decompose_transformed("Ta2", p54, g=1.0)
        for piece in (dec.h12_q, dec.h21_q, dec.h12_xy, dec.h21_xy):
            evals = np.linalg.eigvalsh(piece.matrix)
            assert evals.min() >= -1e-10 * (1.0 + abs(evals.max()))
        dec = pd_decompose_transformed("Tb1", p54, bx=2.5, g=0.7)
        for piece in (dec.h12_q, dec.h21_q, dec.h12_xy, dec.h21_xy):
            evals = np.linalg.eigvalsh(piece.matrix)
            assert evals.min() >= -1e-10 * (1.0 + abs(evals.max()))

    def test_ta2_kappa_reading(self, p54):
        # kappa_± = 1/2 ± rho_g/(4g + 2 w_i^2 - 2 w_j^2), rho_g of the built branch
        g = 1.0
        dec = pd_decompose_transformed("Ta2", p54, g=g)
        rho = math.sqrt(p54.alpha ** 2 - 4.0 * p54.beta - 4.0 * g * g)
        for wi, wj, piece in ((4.0, 1.0, dec.h12_xy), (1.0, 4.0, dec.h21_xy)):
            denom = 4.0 * g + 2.0 * wi - 2.0 * wj
            kp, km = 0.5 + rho / denom, 0.5 - rho / denom
            pref = (2.0 * g + wi - wj) / (2.0 * (wi - wj))
            pvec = np.array([0.0, 0.0, kp, km])
            xvec = np.array([kp, km, 0.0, 0.0])
            want = 2.0 * pref * (np.outer(pvec, pvec) + wi * np.outer(xvec, xvec))
            assert np.max(np.abs(want - piece.matrix)) <= 1e-12

    def test_tb1_lambda_reading(self, p54):
        # resolved reading: momenta px*lambda_nu + py*tau*lambda_mu, positions
        # x*lambda_nu - y*lambda_mu, lambda_mu^j = (mu0 - mu2 w_j^2)/(mu2 nu0 - mu0 nu2)
        bx, g = 2.5, 1.0
        dec = pd_decompose_transformed("Tb1", p54, bx=bx, g=g)
        (mu0, _, mu2), (nu0, _, nu2) = dec.spec.mu, dec.spec.nu
        det = mu2 * nu0 - mu0 * nu2
        tau_x = (bx - 4.0) * (bx - 1.0) / g ** 2
        for wi, wj, piece in ((4.0, 1.0, dec.h12_xy), (1.0, 4.0, dec.h21_xy)):
            lmu, lnu = (mu0 - mu2 * wj) / det, (nu0 - nu2 * wj) / det
            pref = (bx - wj) / (2.0 * (wi - wj))
            pvec = np.array([0.0, 0.0, lnu, tau_x * lmu])
            xvec = np.array([lnu, -lmu, 0.0, 0.0])
            want = 2.0 * pref * (np.outer(pvec, pvec) + wi * np.outer(xvec, xvec))
            assert np.max(np.abs(want - piece.matrix)) <= 1e-12

    def test_degenerate_rejected(self):
        p = PuParams.from_frequencies(1.1, 1.1)
        with pytest.raises(DecompositionUndefinedError):
            pd_window_transformed("Ta2", p, g=0.5)

    @pytest.mark.parametrize("fn, kind, kwargs, message", [
        (transformed_form, "Ta2", {"bx": 1.0}, "Ta2 form needs g"),
        (transformed_form, "Tb1", {"g": 1.0}, "Tb1 form needs bx"),
        (transformed_form, "Tb2+", {"g": 1.0}, "no unit-kinetic form for kind 'Tb2+'"),
        (pd_decompose_transformed, "Ta2", {"bx": 1.0}, "Ta2 decomposition needs g"),
        (pd_decompose_transformed, "Tb1", {"g": 1.0}, "Tb1 decomposition needs bx"),
        (pd_decompose_transformed, "Ta1", {"g": 1.0}, "no decomposition for kind 'Ta1'"),
        (pd_window_transformed, "Ta2", {"bx": 1.0}, "Ta2 window needs g"),
        (pd_window_transformed, "Tb1", {"g": 1.0}, "Tb1 window needs bx"),
        (pd_window_transformed, "Ta2+", {"g": 1.0}, "no window for kind 'Ta2+'"),
    ])
    def test_unit_kinetic_kind_errors(self, p54, fn, kind, kwargs, message):
        with pytest.raises(InvalidInputError) as excinfo:
            fn(kind, p54, **kwargs)
        assert str(excinfo.value) == message


class TestSmEmbedding:
    def test_branch_point_lambda(self, p54):
        tau0 = (4.0 / 9.0) ** 0.25  # makes Omega^4 = alpha^2 - 4 beta, delta = 0
        for branch in (+1, -1):
            emb = sm_embedding(p54, 1.0, 1.0, tau0, branch)
            assert emb.lam == pytest.approx(p54.alpha / 2.0, rel=1e-12)

    def test_state_map_example(self, p54):
        emb = sm_embedding(p54, 1.0, 1.0, 0.9, +1)
        w, z, pw, pz = emb.state(PhaseState(1, 0, 0, 0))
        assert z == 1.0
        assert w == pytest.approx(emb.lam * 0.9 ** 2, rel=1e-12)
        assert pw == 0.0 and pz == 0.0

    def test_scale_is_one_on_matched_slice(self, p54):
        tau = 1.1
        emb = sm_embedding(p54, 1.0 / tau ** 2, 1.3, tau, +1)
        assert emb.scale == pytest.approx(1.0, rel=1e-12)

    def test_h_sm_is_positive_definite(self, p54):
        emb = sm_embedding(p54, 1.0, 1.0, 0.9, +1)
        assert is_positive_definite(emb.h_sm.matrix)

    def test_tensor_preserves_flow(self, p54):
        emb = sm_embedding(p54, 0.7, 1.3, 1.1, +1)
        c3, c4 = pullback_hamiltonian(emb.spec, p54)
        jt = flow_preserving_tensor(p54, c3, c4)
        hbar = c3 * hamiltonian_h1(p54) + c4 * hamiltonian_h2(p54)
        assert flow_residual(jt, hbar, p54) <= 1e-10
        assert canonical_bracket_residual(emb.spec, jt) <= 1e-10

    def test_complex_branch_rejected(self, p54):
        # huge Omega makes delta negative
        with pytest.raises(ComplexBranchError):
            sm_embedding(p54, 1.0, 1.0, 0.1, +1)

    def test_bad_masses_rejected(self, p54):
        with pytest.raises(InvalidInputError):
            sm_embedding(p54, -1.0, 1.0, 0.9, +1)


class TestHamiltonFlowInXY:
    @pytest.mark.parametrize("kind,kw", [
        ("Ta2+", dict(ax=1.3, ay=0.7, g=0.2)),
        ("Ta2-", dict(ax=-0.8, ay=0.6, g=0.1)),
        ("Tb1", dict(ax=1.0, bx=0.4, g=1.2)),
    ])
    def test_xy_trajectories_pull_back_to_oscillator_solutions(self, kind, kw, p54):
        # Hamilton's equations of the Legendre form, pushed through the map,
        # must land back on exact solutions of the fourth-order equation
        from puosc.dynamics import _rk4
        from puosc.linalg import expm
        from puosc.core import companion_field
        spec = build(kind, p54, **kw)
        mu0, _, mu2 = spec.mu
        nu0, _, nu2 = spec.nu
        det = mu2 * nu0 - mu0 * nu2

        def rhs(x, y, xd, yd):
            return (xd, yd, -(spec.bx * x + spec.g * y) / spec.ax,
                    -(spec.by * y + spec.g * x) / spec.ay)

        v0 = PhaseState(0.4, -0.1, 0.3, 0.2)
        w0 = (mu0 * v0.q + mu2 * v0.qdd, nu0 * v0.q + nu2 * v0.qdd,
              mu0 * v0.qd + mu2 * v0.qddd, nu0 * v0.qd + nu2 * v0.qddd)
        h = 1e-3
        xy = _rk4(rhs, w0, h, 4000)
        pulled = np.column_stack([
            (mu2 * xy[:, 1] - nu2 * xy[:, 0]) / det,
            (mu2 * xy[:, 3] - nu2 * xy[:, 2]) / det,
            (nu0 * xy[:, 0] - mu0 * xy[:, 1]) / det,
            (nu0 * xy[:, 2] - mu0 * xy[:, 3]) / det,
        ])
        m = companion_field(p54)
        worst = 0.0
        for i in range(0, 4001, 400):
            exact = expm(i * h * m) @ v0.as_array()
            worst = max(worst, float(np.max(np.abs(pulled[i] - exact))))
        assert worst <= 1e-7
