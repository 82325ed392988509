import numpy as np
import pytest
from conftest import assert_memoized
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from puosc import hierarchy
from puosc.core import (PuParams, QuadHamiltonian, combined_form, companion_field, flow_residual,
                        hamiltonian_h1, hamiltonian_h2, poisson_j1, poisson_j2)
from puosc.errors import (DecompositionUndefinedError, DegenerateCombinationError,
                          InvalidInputError, ParameterDomainError, RecursionBreakdownError)
from puosc.hierarchy import (charge_ladder, coefficients_on_h1h2,
                             combine, involution_residual, ladder_via_x3,
                             next_charge, pd_decompose, pd_window, pu_polynomial,
                             recursion_operator, x3_action_ladder, x4_pair)
from puosc.linalg import expm, leading_minors
from puosc.symmetry import standard_basis
from puosc.verify import random_freq_params, random_params


class TestMemo:
    @pytest.mark.parametrize("fn", [recursion_operator, standard_basis],
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


_FINITE = st.floats(-1e300, 1e300)  # with +-0.0 and subnormals


def _plane_form(alpha, beta, c3, c4):
    """(p, c3 H1 + c4 H2), or a rejected example where that form overflows."""
    p = PuParams(alpha, beta)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return p, combined_form(p, c3, c4)
    except InvalidInputError:
        reject()


class TestPlaneCoordinates:
    def test_integral_ladder_is_exact(self, p54):
        got = [coefficients_on_h1h2(p54, h) for h in charge_ladder(p54, 6).charges]
        assert got == [(1.0, 0.0), (0.0, 1.0), (-4.0, -5.0), (20.0, 21.0),
                       (-84.0, -85.0), (340.0, 341.0)]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_FINITE, _FINITE, _FINITE, _FINITE)
    @example(1e200, 1e200, 0.5, -2.0)
    @example(-0.0, 0.0, 5e-324, -0.0)
    @example(0.3, 0.7, 3e-320, -7e-321)
    @example(1.0, 1.0, 8e307, 0.0)
    def test_round_trip(self, alpha, beta, c3, c4):
        p, form = _plane_form(alpha, beta, c3, c4)
        bound = 1e-14 * (abs(c3) + abs(c4))
        got = coefficients_on_h1h2(p, form)
        assert abs(got[0] - c3) <= bound and abs(got[1] - c4) <= bound

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_FINITE, _FINITE, _FINITE, _FINITE,
           st.sampled_from([(0, 1), (0, 3), (1, 2), (2, 3)]), st.sampled_from([-1.0, 1.0]))
    @example(1.0, 1.0, 1e200, 0.0, (0, 1), 1.0)
    def test_entry_off_the_plane_raises(self, alpha, beta, c3, c4, at, sign):
        p, form = _plane_form(alpha, beta, c3, c4)
        s = form.matrix.copy()
        s[at] = s[at[::-1]] = sign * 1e-8 * (1.0 + np.abs(s).max())
        with np.errstate(over="ignore"):  # the public symmetry test's norm
            form = QuadHamiltonian(s)
        with pytest.raises(InvalidInputError, match="not in the .H1, H2. plane"):
            coefficients_on_h1h2(p, form)

    def test_nan_residual_raises(self, p54):
        # no finite form makes the residual nan; a matrix that holds one
        # stands for an intermediate that did
        form = QuadHamiltonian._exact(np.eye(4))
        object.__setattr__(form, "matrix", np.full((4, 4), np.nan))
        with pytest.raises(InvalidInputError, match="residual nan"):
            coefficients_on_h1h2(p54, form)


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

    def test_action_ladder_starts_at_h1(self, p54):
        actions = x3_action_ladder(p54, 6)
        assert len(actions) == 7 and actions[0] is hamiltonian_h1(p54)

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

    def test_negative_axis_points_never_pass(self, p54):
        # verify's axis measure draws the other coefficient positive only
        assert not any(pd_window(p54, 0.0, -c) or pd_window(p54, -c, 0.0) for c in (0.2, 1.0, 3.0))

    @pytest.mark.parametrize("w1,w2", [(2.0, 1.0), (1.0, 2.0)])
    def test_window_solvable_for_both_orderings(self, w1, w2, rng):
        p = PuParams.from_frequencies(w1, w2)
        assert any(pd_window(p, c1, c2) for c1, c2 in rng.uniform(-3, 3, (400, 2)))

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
