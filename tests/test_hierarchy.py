import numpy as np
import pytest
from conftest import assert_memoized

from puosc import hierarchy
from puosc.core import (PuParams, QuadHamiltonian, companion_field, flow_residual,
                        hamiltonian_h1, hamiltonian_h2, poisson_j1, poisson_j2)
from puosc.errors import (DecompositionUndefinedError, DegenerateCombinationError,
                          ParameterDomainError, RecursionBreakdownError)
from puosc.hierarchy import (_h1h2_basis, charge_ladder, coefficients_on_h1h2,
                             combine, involution_residual, ladder_via_x3,
                             next_charge, pd_decompose, pd_window, pu_polynomial,
                             recursion_operator, x3_action_ladder, x4_pair)
from puosc.linalg import expm, leading_minors
from puosc.symmetry import standard_basis
from puosc.verify import random_freq_params, random_params


class TestMemo:
    @pytest.mark.parametrize("fn", [recursion_operator, _h1h2_basis, standard_basis],
                             ids=lambda fn: fn.__name__)
    def test_one_shared_read_only_build_per_params(self, fn):
        assert_memoized(fn, lambda: PuParams(-1.5, 0.7))

    def test_ladder_inverts_j2_once(self, monkeypatch):
        calls = []
        real = hierarchy.inverse
        monkeypatch.setattr(hierarchy, "inverse", lambda m: calls.append(1) or real(m))
        p = PuParams.from_frequencies(2.0, 1.0)
        ladder = charge_ladder(p, 6).charges
        for charge in ladder:
            coefficients_on_h1h2(p, charge)
        assert len(calls) == 1
        assert charge_ladder(p, 6).charges[5].matrix.tobytes() == ladder[5].matrix.tobytes()

    def test_failed_build_is_not_stored(self):
        p = PuParams(5.0, 0.0)
        for _ in range(2):
            with pytest.raises(ParameterDomainError):
                recursion_operator(p)


class TestRecursion:
    def test_h3_is_minus_alpha_h2_minus_beta_h1(self, p54):
        h3 = next_charge(p54, hamiltonian_h2(p54))
        want = -p54.alpha * hamiltonian_h2(p54) - p54.beta * hamiltonian_h1(p54)
        assert np.max(np.abs(h3.matrix - want.matrix)) <= 1e-12

    def test_h3_coefficients(self, p54):
        h3 = next_charge(p54, hamiltonian_h2(p54))
        assert coefficients_on_h1h2(p54, h3) == pytest.approx((-4.0, -5.0), abs=1e-10)

    def test_h4_coefficients(self, p54):
        h3 = next_charge(p54, hamiltonian_h2(p54))
        h4 = next_charge(p54, h3)
        a, b = p54.alpha, p54.beta
        assert coefficients_on_h1h2(p54, h4) == pytest.approx((a * b, a * a - b), abs=1e-10)

    def test_step_satisfies_defining_relation(self, rng):
        for _ in range(10):
            p = random_params(rng)
            h2 = hamiltonian_h2(p)
            h3 = next_charge(p, h2)
            lhs = poisson_j2(p).matrix @ h3.matrix
            rhs = poisson_j1(p).matrix @ h2.matrix
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))

    def test_beta_zero_rejected(self):
        p = PuParams(5.0, 0.0)
        with pytest.raises(ParameterDomainError):
            next_charge(p, hamiltonian_h1(p))

    def test_breakdown_on_nonintegrable_form(self, p54):
        with pytest.raises(RecursionBreakdownError):
            next_charge(p54, QuadHamiltonian(np.diag([1.0, 0.0, 0.0, 0.0])))


class TestPolynomials:
    def test_first_values(self, p54):
        a, b = p54.alpha, p54.beta
        assert pu_polynomial(0, p54) == 0.0
        assert pu_polynomial(1, p54) == -1.0
        assert pu_polynomial(2, p54) == a
        assert pu_polynomial(3, p54) == b - a * a

    def test_p3_at_example_point(self, p54):
        assert pu_polynomial(3, p54) == -21.0

    def test_p5_at_unit_parameters(self):
        assert pu_polynomial(5, PuParams(1.0, 1.0)) == 1.0

    def test_p4_is_ladder_consistent(self, rng):
        # The closed-form sum gives P4 = alpha^3 - 2*alpha*beta: exactly the
        # value forced by the recursion (H5's second coefficient is -P4).
        for _ in range(20):
            p = random_params(rng)
            assert pu_polynomial(4, p) == pytest.approx(
                p.alpha ** 3 - 2.0 * p.alpha * p.beta, rel=1e-12)
            ladder = charge_ladder(p, 5).charges
            _, c2 = coefficients_on_h1h2(p, ladder[4])
            assert c2 == pytest.approx(-pu_polynomial(4, p), abs=1e-9 * (1 + abs(c2)))

    def test_explicit_list_at_random_points(self, rng):
        for _ in range(20):
            p = random_params(rng)
            a, b = p.alpha, p.beta
            explicit = [0.0, -1.0, a, b - a * a, a ** 3 - 2 * a * b,
                        -a ** 4 + 3 * a * a * b - b * b]
            for n, want in enumerate(explicit):
                assert pu_polynomial(n, p) == pytest.approx(want, abs=1e-10 * (1 + abs(want)))


class TestLadder:
    def test_k1_is_h2(self, p54):
        got = ladder_via_x3(p54, 1)
        assert np.max(np.abs(got.matrix - hamiltonian_h2(p54).matrix)) <= 1e-12

    def test_k2_coefficients(self, p54):
        assert coefficients_on_h1h2(p54, ladder_via_x3(p54, 2)) == pytest.approx(
            (-4.0, -5.0), abs=1e-9)

    def test_k3_coefficients(self, p54):
        assert coefficients_on_h1h2(p54, ladder_via_x3(p54, 3)) == pytest.approx(
            (20.0, 21.0), abs=1e-9)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ParameterDomainError):
            ladder_via_x3(PuParams(0.0, 1.0), 2)

    def test_three_routes_agree(self, rng):
        count = 0
        while count < 25:
            p = random_freq_params(rng)
            if abs(p.alpha) < 0.1:
                continue
            ladder = charge_ladder(p, 7).charges
            actions = x3_action_ladder(p, 6)
            assert len(actions) == 7 and actions[0] is hamiltonian_h1(p)
            for k, action in enumerate(actions[1:], 1):
                scale = 1 + np.linalg.norm(ladder[k].matrix)
                closed = ladder_via_x3(p, k)
                assert np.linalg.norm(closed.matrix - ladder[k].matrix) <= 1e-9 * scale
                assert np.linalg.norm(action.matrix - ladder[k].matrix) <= 1e-9 * scale
            count += 1

    def test_charges_conserved_along_flow(self, p54, rng):
        m = companion_field(p54)
        v0 = rng.uniform(-1, 1, 4)
        for charge in charge_ladder(p54, 6).charges:
            e0 = charge.value(v0)
            for t in (0.5, 3.0, 7.5):
                assert charge.value(expm(t * m) @ v0) == pytest.approx(
                    e0, abs=1e-9 * (1 + abs(e0)))

    def test_involution_through_depth_six(self, rng):
        for _ in range(10):
            p = random_params(rng)
            assert involution_residual(p, 6) <= 1e-10


class TestX4Pair:
    def test_hbar1_composition(self, p54):
        hb1, _ = x4_pair(p54)
        want = 5.0 * hamiltonian_h1(p54) + hamiltonian_h2(p54)
        assert np.array_equal(hb1.matrix, want.matrix)

    def test_hbar2_vanishes_at_zero_beta(self):
        _, hb2 = x4_pair(PuParams(5.0, 0.0))
        assert np.max(np.abs(hb2.matrix)) == 0.0

    def test_both_generate_x4(self, rng):
        for _ in range(20):
            p = random_params(rng)
            hb1, hb2 = x4_pair(p)
            a4 = standard_basis(p)[3].matrix
            assert np.linalg.norm(poisson_j1(p).matrix @ hb1.matrix - a4) <= 1e-10
            assert np.linalg.norm(poisson_j2(p).matrix @ hb2.matrix - a4) <= 1e-10


class TestCombinedStructures:
    def test_pure_first_structure(self, p54):
        cs = combine(p54, 1.0, 0.0)
        assert (cs.c3, cs.c4) == (1.0, 0.0)
        assert np.max(np.abs(cs.hbar.matrix - hamiltonian_h1(p54).matrix)) <= 1e-12

    def test_pure_second_structure(self, p54):
        cs = combine(p54, 0.0, 1.0)
        assert np.max(np.abs(cs.hbar.matrix - hamiltonian_h2(p54).matrix)) <= 1e-12
        assert np.max(np.abs(cs.jbar.matrix - poisson_j2(p54).matrix)) <= 1e-12

    def test_example_point(self, p54):
        cs = combine(p54, 1.0, 10.0)
        assert flow_residual(cs.jbar, cs.hbar, p54) <= 1e-10

    def test_degenerate_combination_rejected(self, p54):
        with pytest.raises(DegenerateCombinationError):
            combine(p54, 1.0, 4.0)  # c2 = c1 * omega1^2

    def test_flow_residual_sweep(self, rng):
        count = 0
        while count < 200:
            p = random_freq_params(rng)
            c1, c2 = rng.uniform(-3, 3, 2)
            try:
                cs = combine(p, c1, c2)
            except DegenerateCombinationError:
                continue
            assert flow_residual(cs.jbar, cs.hbar, p) <= 1e-10
            assert cs.hbar.value(rng.uniform(-1, 1, 4)) is not None
            count += 1

    def test_hbar_conserved_along_flow(self, rng):
        p = random_freq_params(rng)
        cs = combine(p, 0.8, -1.7)
        m = companion_field(p)
        v0 = rng.uniform(-1, 1, 4)
        e0 = cs.hbar.value(v0)
        for t in (1.0, 4.0):
            assert cs.hbar.value(expm(t * m) @ v0) == pytest.approx(
                e0, abs=1e-9 * (1 + abs(e0)))


class TestPdWindow:
    def test_example_window_true(self, p54):
        assert pd_window(p54, 1.0, 2.0)
        cs = combine(p54, 1.0, 2.0)
        assert all(d > 0 for d in leading_minors(cs.hbar.matrix))

    def test_axis_draws_never_pass(self, rng):
        for _ in range(50):
            p = random_freq_params(rng)
            assert not pd_window(p, 0.0, float(rng.uniform(0.2, 3.0) * rng.choice([-1, 1])))
            assert not pd_window(p, float(rng.uniform(0.2, 3.0) * rng.choice([-1, 1])), 0.0)

    def test_window_matches_minors(self, rng):
        count = 0
        while count < 200:
            p = random_freq_params(rng)
            c1, c2 = rng.uniform(-3, 3, 2)
            w1, w2 = p.frequencies()
            b1 = (c1 * w1 ** 2 - c2) * (w1 ** 2 - w2 ** 2)
            b2 = (c1 * w2 ** 2 - c2) * (w2 ** 2 - w1 ** 2)
            if min(abs(b1), abs(b2)) < 1e-6:
                continue
            try:
                cs = combine(p, c1, c2)
            except DegenerateCombinationError:
                continue
            minors_positive = all(d > 0 for d in leading_minors(cs.hbar.matrix))
            assert pd_window(p, c1, c2) == minors_positive
            count += 1

    @pytest.mark.parametrize("w1,w2", [(2.0, 1.0), (1.0, 2.0)])
    def test_window_solvable_for_both_orderings(self, w1, w2, rng):
        p = PuParams.from_frequencies(w1, w2)
        assert any(pd_window(p, c1, c2) for c1, c2 in rng.uniform(-3, 3, (400, 2)))

    def test_decomposition_reassembles(self, rng):
        count = 0
        while count < 50:
            p = random_freq_params(rng)
            c1, c2 = rng.uniform(-3, 3, 2)
            try:
                cs = combine(p, c1, c2)
                dec = pd_decompose(p, c1, c2)
            except DegenerateCombinationError:
                continue
            total = dec.h12.matrix + dec.h21.matrix
            assert np.linalg.norm(total - cs.hbar.matrix) <= 1e-10 * (
                1 + np.linalg.norm(cs.hbar.matrix))
            count += 1

    def test_pieces_are_nonnegative_inside_window(self, p54):
        dec = pd_decompose(p54, 1.0, 2.0)
        for piece in (dec.h12, dec.h21):
            assert np.min(np.linalg.eigvalsh(piece.matrix)) >= -1e-12

    def test_degenerate_frequencies_rejected(self):
        p = PuParams.from_frequencies(1.2, 1.2)
        with pytest.raises(DecompositionUndefinedError):
            pd_decompose(p, 1.0, 2.0)
        with pytest.raises(DecompositionUndefinedError):
            pd_window(p, 1.0, 2.0)
