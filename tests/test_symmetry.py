import math

import numpy as np
import pytest

from puosc.core import PhaseState, PuParams, companion_field, hamiltonian_h1, hamiltonian_h2
from puosc.errors import InvalidRegimeError
from puosc.hierarchy import charge_ladder
from puosc.linalg import expm
from puosc.symmetry import (Generator, act_on_hamiltonian, closed_form_flow,
                            commutator, group_flow, solve_symmetries,
                            standard_basis)
from puosc.verify import random_freq_params, random_params


def lie_bracket_by_components(a, b):
    """[X, Y]_i = sum_j xi_j d(eta_i)/dq_j - eta_j d(xi_i)/dq_j for linear fields."""
    n = a.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            out[i, k] = sum(b[i, j] * a[j, k] - a[i, j] * b[j, k] for j in range(n))
    return out


class TestCommutator:
    def test_x2_x3_commute(self, p54):
        _, x2, x3, _ = standard_basis(p54)
        assert np.array_equal(commutator(x2, x3).matrix, np.zeros((4, 4)))

    def test_self_commutator(self, p54):
        x1 = standard_basis(p54)[0]
        assert np.array_equal(commutator(x1, x1).matrix, np.zeros((4, 4)))

    def test_against_component_formula(self, rng):
        shift = np.diag(np.ones(3), 1)
        diag = np.diag([1.0, 2.0, 3.0, 4.0])
        got = commutator(Generator(shift), Generator(diag)).matrix
        assert np.array_equal(got, lie_bracket_by_components(shift, diag))
        a, b = rng.uniform(-2, 2, (2, 4, 4))
        got = commutator(Generator(a), Generator(b)).matrix
        assert np.allclose(got, lie_bracket_by_components(a, b), atol=1e-12)

    def test_basis_is_abelian(self, rng):
        for _ in range(50):
            gens = standard_basis(random_params(rng))
            for gi in gens:
                for gj in gens:
                    assert np.linalg.norm(commutator(gi, gj).matrix) <= 1e-12


class TestSymmetrySolver:
    @pytest.mark.parametrize("alpha,beta", [(5.0, 4.0), (0.0, 0.0), (-2.0, 1.5), (1.0, -3.0)])
    def test_dimension_is_four(self, alpha, beta):
        assert len(solve_symmetries(PuParams(alpha, beta))) == 4

    def test_span_contains_flow_matrix(self, p54):
        basis = solve_symmetries(p54)
        span = np.column_stack([g.matrix.ravel() for g in basis])
        m = companion_field(p54).ravel()
        coef, _, _, _ = np.linalg.lstsq(span, m, rcond=None)
        assert np.linalg.norm(span @ coef - m) <= 1e-10 * (1 + np.linalg.norm(m))

    def test_span_equals_matrix_powers(self, rng):
        for _ in range(50):
            p = random_params(rng)
            m = companion_field(p)
            basis = solve_symmetries(p)
            assert len(basis) == 4
            span = np.column_stack([g.matrix.ravel() for g in basis])
            powers = np.column_stack([np.linalg.matrix_power(m, k).ravel() for k in range(4)])
            standard = [g.matrix.ravel() for g in standard_basis(p)]
            for target in [*powers.T, *standard]:
                coef, _, _, _ = np.linalg.lstsq(span, target, rcond=None)
                assert np.linalg.norm(span @ coef - target) <= 1e-9 * (1 + np.linalg.norm(target))
            for g in basis:
                target = g.matrix.ravel()
                coef, _, _, _ = np.linalg.lstsq(powers, target, rcond=None)
                assert np.linalg.norm(powers @ coef - target) <= 1e-9

    def test_every_element_commutes_with_flow(self, rng):
        for _ in range(10):
            p = random_params(rng)
            m = companion_field(p)
            for g in solve_symmetries(p):
                assert np.linalg.norm(m @ g.matrix - g.matrix @ m) <= 1e-10


class TestStandardBasis:
    def test_x2_is_half_identity(self, p54):
        assert np.array_equal(standard_basis(p54)[1].matrix, 0.5 * np.eye(4))

    def test_x4_first_row(self, p54):
        assert standard_basis(p54)[3].matrix[0].tolist() == [0.0, 5.0, 0.0, 1.0]

    def test_x3_third_row(self, p54):
        assert standard_basis(p54)[2].matrix[2].tolist() == [-2.0, 0.0, -2.5, 0.0]

    def test_x1_is_flow_field(self, p54):
        assert np.array_equal(standard_basis(p54)[0].matrix, companion_field(p54))


class TestHamiltonianAction:
    def test_flow_field_annihilates(self, p54):
        x1 = standard_basis(p54)[0]
        assert np.max(np.abs(act_on_hamiltonian(x1, hamiltonian_h1(p54)).matrix)) <= 1e-12

    def test_dilation_fixes(self, p54):
        x2 = standard_basis(p54)[1]
        h2 = hamiltonian_h2(p54)
        assert np.array_equal(act_on_hamiltonian(x2, h2).matrix, h2.matrix)

    def test_x3_raises_charge(self, p54):
        x3 = standard_basis(p54)[2]
        got = act_on_hamiltonian(x3, hamiltonian_h1(p54))
        assert np.max(np.abs(got.matrix - hamiltonian_h2(p54).matrix)) <= 1e-12

    def test_full_table_through_depth_five(self, rng):
        for _ in range(5):
            p = random_params(rng)
            x1, x2, x3, x4 = standard_basis(p)
            ladder = charge_ladder(p, 6).charges
            for i in range(5):
                hi = ladder[i]
                scale = 1 + np.linalg.norm(hi.matrix)
                assert np.linalg.norm(act_on_hamiltonian(x1, hi).matrix) <= 1e-10 * scale
                assert np.linalg.norm(act_on_hamiltonian(x2, hi).matrix - hi.matrix) <= 1e-10 * scale
                assert np.linalg.norm(act_on_hamiltonian(x3, hi).matrix - ladder[i + 1].matrix) \
                    <= 1e-10 * (1 + np.linalg.norm(ladder[i + 1].matrix))
                assert np.linalg.norm(act_on_hamiltonian(x4, hi).matrix) <= 1e-10 * scale


class TestGroupFlow:
    def test_zero_parameter_is_identity(self, p54):
        v0 = PhaseState(0.3, -0.2, 0.5, 0.1)
        got = group_flow(standard_basis(p54)[2], 0.0, v0)
        assert np.array_equal(got.as_array(), v0.as_array())

    def test_dilation_rescales(self, p54, rng):
        x2 = standard_basis(p54)[1]
        v0 = PhaseState(*rng.uniform(-1, 1, 4))
        s = 0.7
        got = group_flow(x2, s, v0)
        assert np.allclose(got.as_array(), math.exp(s / 2) * v0.as_array(), rtol=1e-12)

    def test_x4_flow_shifts_time_by_mode(self, p54):
        amps = (0.4, -0.3, 0.8, 0.2)
        t, s = 1.0, 0.3
        v0 = closed_form_flow("X4", "nondegenerate", amps, p54, t, 0.0)
        got = group_flow(standard_basis(p54)[3], s, v0).as_array()
        want = closed_form_flow("X4", "nondegenerate", amps, p54, t, s).as_array()
        assert np.max(np.abs(got - want)) <= 1e-10
        # the slow mode literally runs at t + s*omega1^2
        only_b = closed_form_flow("X4", "nondegenerate", (0, 0, 1.0, 0), p54, t, s)
        assert only_b.q == pytest.approx(math.sin(1.0 * (t + s * 4.0)), rel=1e-12)


class TestClosedFormFlows:
    def test_s_zero_reproduces_classical_solution(self, p54):
        amps = (1.0, 0.5, -0.2, 0.3)
        state = closed_form_flow("X3", "nondegenerate", amps, p54, 2.0, 0.0)
        q = (amps[0] * math.sin(4.0) + amps[1] * math.cos(4.0)
             + amps[2] * math.sin(2.0) + amps[3] * math.cos(2.0))
        assert state.q == pytest.approx(q, rel=1e-12)

    def test_x3_nondegenerate_spot_values(self, p54):
        state = closed_form_flow("X3", "nondegenerate", (1, 0, 0, 0), p54, 0.0, 1.0)
        assert state.q == 0.0
        assert state.qd == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_x4_degenerate_shift_structure(self):
        p = PuParams.from_frequencies(1.5, 1.5)
        w2 = 1.5 ** 2
        t, s = 1.2, 0.4
        state = closed_form_flow("X4", "degenerate", (0.0, 0.0, 1.0, 0.0), p, t, s)
        want = (t - s * w2) * math.sin(1.5 * (t + s * w2))
        assert state.q == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("which", ["X2", "X3", "X4"])
    @pytest.mark.parametrize("regime", ["nondegenerate", "degenerate"])
    def test_matches_exponential_flow(self, which, regime, rng):
        worst = 0.0
        for _ in range(20):
            if regime == "degenerate":
                w = rng.uniform(0.5, 2.0)
                p = PuParams.from_frequencies(w, w)
            else:
                p = random_freq_params(rng)
            gens = dict(zip(("X2", "X3", "X4"), standard_basis(p)[1:]))
            amps = rng.uniform(-1, 1, 4)
            t, s = rng.uniform(0, 10), rng.uniform(0, 2)
            v0 = closed_form_flow(which, regime, amps, p, t, 0.0)
            via_expm = group_flow(gens[which], s, v0).as_array()
            closed = closed_form_flow(which, regime, amps, p, t, s).as_array()
            worst = max(worst, np.max(np.abs(via_expm - closed)))
        assert worst <= 1e-8

    def test_symmetry_flows_commute_with_time_evolution(self, rng):
        for _ in range(10):
            p = random_params(rng)
            m = companion_field(p)
            for gen in standard_basis(p):
                s, t = rng.uniform(0, 2, 2)
                lhs = expm(s * gen.matrix) @ expm(t * m)
                rhs = expm(t * m) @ expm(s * gen.matrix)
                assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1 + np.max(np.abs(lhs)))

    def test_regime_mismatch_rejected(self, p54):
        with pytest.raises(InvalidRegimeError):
            closed_form_flow("X3", "degenerate", (1, 0, 0, 0), p54, 0.0, 1.0)
        pdeg = PuParams.from_frequencies(1.0, 1.0)
        with pytest.raises(InvalidRegimeError):
            closed_form_flow("X4", "nondegenerate", (1, 0, 0, 0), pdeg, 0.0, 1.0)

    def test_unknown_generator_rejected(self, p54):
        with pytest.raises(InvalidRegimeError):
            closed_form_flow("X9", "nondegenerate", (1, 0, 0, 0), p54, 0.0, 1.0)
