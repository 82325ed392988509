import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puosc.core import (PhaseState, PuParams, QuadHamiltonian, companion_field,
                        flow_residual, hamiltonian_h1, poisson_j1, poisson_j2)
from puosc import dynamics
from puosc.dynamics import (ClassicalSolution, LinearField, _antisym_from_params,
                            _discovery_operator, _rk4,
                            Potential, PotentialField, Trajectory, charge_values,
                            conservation_report, cosine_potential,
                            cubic_potential, eval_solution,
                            interaction_compatibility,
                            interaction_transform_constraint, integrate,
                            parse_potential, quartic_potential,
                            structure_discovery, two_route_max_error)
from puosc.errors import (ComplexBranchError, ConstructionError,
                          DivergenceError, InconclusiveTestError,
                          InvalidInputError, InvalidRegimeError,
                          ParameterDomainError)
from puosc.hierarchy import charge_ladder, coefficients_on_h1h2
from puosc.linalg import inverse
from puosc.symmetry import closed_form_flow, solution_terms
from puosc.transform import XYState, build, inverse as inverse_map
from puosc.verify import (_nondegenerate, _reference_orbit, random_freq_params,
                          random_params)


class TestClassicalSolution:
    def test_zero_amplitudes(self, p54):
        sol = ClassicalSolution(p54, (0, 0, 0, 0), "nondegenerate")
        assert eval_solution(sol, 3.7).as_array().tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_cosine_mode_derivatives(self, p54):
        sol = ClassicalSolution(p54, (0, 1, 0, 0), "nondegenerate")
        state = eval_solution(sol, 0.0)
        assert state.as_array().tolist() == [1.0, 0.0, -4.0, 0.0]

    def test_degenerate_secular_mode(self):
        p = PuParams.from_frequencies(1.0, 1.0)
        sol = ClassicalSolution(p, (0, 0, 1, 0), "degenerate")
        state = eval_solution(sol, math.pi)
        assert state.q == pytest.approx(0.0, abs=1e-12)
        assert state.qd == pytest.approx(-math.pi, rel=1e-12)

    def test_regime_mismatch_rejected(self, p54):
        with pytest.raises(InvalidRegimeError):
            ClassicalSolution(p54, (1, 0, 0, 0), "degenerate")

    @pytest.mark.parametrize("omegas, regime, amplitudes", [
        ((2.0, 1.0), "nondegenerate", (1.0, 0.0, 0.0, -0.4)),
        ((1.0, 1.0), "degenerate", (1.0, 0.0, 0.3, 0.0)),
    ], ids=["nondegenerate", "degenerate"])
    def test_grid_rows_are_the_states_at_each_time(self, omegas, regime, amplitudes):
        p = PuParams.from_frequencies(*omegas)
        sol = ClassicalSolution(p, amplitudes, regime)
        times = np.linspace(0.0, 20.0, 401)

        def alone(state_at):
            return np.array([state_at(t).as_array() for t in times.tolist()]).tobytes()
        assert eval_solution(sol, times).tobytes() == alone(lambda t: eval_solution(sol, t))
        for which in ("X2", "X3", "X4"):
            grid = closed_form_flow(which, regime, amplitudes, p, times, 0.7)
            assert grid.tobytes() == alone(
                lambda t: closed_form_flow(which, regime, amplitudes, p, t, 0.7))

    @pytest.mark.parametrize("omegas, regime, steps, t_end", [
        ((2.0, 1.0), "nondegenerate", 20000, 20.0),
        ((1.0, 1.0), "degenerate", 2000, 10.0),
    ], ids=["flow-long", "flow-degenerate"])
    def test_numpy_trig_is_math_trig_on_the_flow_arguments(self, omegas, regime, steps, t_end):
        """A grid takes np.sin/np.cos where a float time takes math.sin/
        math.cos, and numpy picks its loop by CPU: pin the two against each
        other on the arguments of ``puosc flow``'s time grid."""
        p = PuParams.from_frequencies(*omegas)
        times = np.linspace(0.0, t_end, steps + 1)
        for u in solution_terms(regime, (1.0, 1.0, 1.0, 1.0), p):
            arg = u.omega * (times + u.shift)
            for grid, alone in ((np.sin, math.sin), (np.cos, math.cos)):
                assert grid(arg).tobytes() == np.array(list(map(alone, arg.tolist()))).tobytes()

    def test_non_finite_state_raises_on_a_grid_too(self):
        sol = ClassicalSolution(PuParams.from_frequencies(1.0, 1.0), (0.0, 0.0, 1e308, 0.0),
                                "degenerate")
        # numpy's overflow warning on the grid is not what this test is about
        with np.errstate(over="ignore", invalid="ignore"):
            for t in (10.0, np.array([0.0, 10.0])):
                with pytest.raises(InvalidInputError, match="phase state has non-finite entries"):
                    eval_solution(sol, t)


class TestPotentials:
    def test_builtins_validate(self):
        for pot in (quartic_potential(0.25), cubic_potential(0.5), cosine_potential(2.0)):
            assert pot.derivative(0.7) == pytest.approx(
                (pot.value(0.7 + 1e-6) - pot.value(0.7 - 1e-6)) / 2e-6, rel=1e-4)

    def test_inconsistent_derivative_rejected(self):
        with pytest.raises(InvalidInputError):
            Potential("on_q", lambda x: x ** 2, lambda x: 3 * x, "broken")

    def test_bad_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            Potential("on_qd", lambda x: x, lambda x: 1.0, "bad-kind")

    def test_parse(self):
        pot = parse_potential("quartic:lam=0.5")
        assert pot.derivative(2.0) == pytest.approx(0.5 * 8.0)
        assert parse_potential("cosine", kind="on_qdd").kind == "on_qdd"
        with pytest.raises(InvalidInputError):
            parse_potential("sextic")
        with pytest.raises(InvalidInputError):
            parse_potential("quartic:mass=2")
        for value in ("nan", "inf", "-inf", "abc"):
            with pytest.raises(InvalidInputError, match="expected a finite number"):
                parse_potential(f"quartic:lam={value}")


class TestIntegration:
    def test_matches_analytic_solution(self, p54):
        sol = ClassicalSolution(p54, (0.3, -0.5, 0.7, 0.2), "nondegenerate")
        v0 = eval_solution(sol, 0.0)
        traj = integrate(LinearField(p54), v0, 1e-3, 10.0)
        worst = 0.0
        for t, state in zip(traj.times[::100], traj.states[::100]):
            worst = max(worst, np.max(np.abs(state - eval_solution(sol, t).as_array())))
        assert worst <= 1e-6

    def test_fourth_order_convergence(self, p54):
        sol = ClassicalSolution(p54, (0.3, -0.5, 0.7, 0.2), "nondegenerate")
        v0 = eval_solution(sol, 0.0)
        exact = eval_solution(sol, 10.0).as_array()

        def terminal_error(h):
            traj = integrate(LinearField(p54), v0, h, 10.0)
            return np.max(np.abs(traj.final_state().as_array() - exact))

        assert terminal_error(0.02) / terminal_error(0.01) >= 14.0

    def test_zero_state_stays_zero(self, p54):
        traj = integrate(PotentialField(p54, quartic_potential(0.25)),
                         PhaseState(0, 0, 0, 0), 1e-2, 2.0)
        assert np.max(np.abs(traj.states)) == 0.0

    def test_divergence_reports_time(self):
        p = PuParams(0.0, -1.0)  # real exponential branch
        v0 = PhaseState(1, 1, 1, 1)
        with pytest.raises(DivergenceError) as err:
            integrate(LinearField(p), v0, 0.05, 800.0)
        assert 0.0 < err.value.t_reached < 800.0
        want, t_reached = vector_rk4(p, None, v0.as_array(), 0.05, 16000)
        assert err.value.t_reached == t_reached
        # more than one chunk of rows: the buffer is flushed before the raise
        assert len(err.value.states) == round(t_reached / 0.05) > 1024
        assert np.array_equal(err.value.states, want)

    def test_bad_step_rejected(self, p54):
        with pytest.raises(InvalidInputError):
            integrate(LinearField(p54), PhaseState(1, 0, 0, 0), -0.1, 1.0)
        with pytest.raises(InvalidInputError):
            integrate(LinearField(p54), PhaseState(1, 0, 0, 0), 0.5, 0.2)

    @pytest.mark.parametrize("h, t_end", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                          (1e-3, math.nan), (1e-3, math.inf)])
    def test_non_finite_step_or_end_rejected(self, p54, h, t_end):
        with pytest.raises(InvalidInputError, match="finite"):
            integrate(LinearField(p54), PhaseState(1, 0, 0, 0), h, t_end)

    @pytest.mark.parametrize("t_end", [dynamics.MAX_STEPS + 1.0, 1e300])
    def test_steps_above_the_cap_are_refused_before_allocating(self, p54, t_end, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the step cap")

        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(InvalidInputError, match=f"at most {dynamics.MAX_STEPS}: raise h"):
            integrate(LinearField(p54), PhaseState(1, 0, 0, 0), 1.0, t_end)

    def test_the_cap_itself_is_taken(self, p54, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
        assert len(integrate(LinearField(p54), PhaseState(1, 0, 0, 0), 0.5, 5.0).times) == 11
        with pytest.raises(InvalidInputError, match="cannot take 11 steps, at most 10"):
            integrate(LinearField(p54), PhaseState(1, 0, 0, 0), 0.5, 5.5)


def vector_rk4(p, pot, w, h, n_steps):
    """The integrator in vector form: numpy 4-vectors and a 4x4 matvec per
    stage.  Returns (states, t_reached), t_reached None when it did not diverge."""
    m = companion_field(p)

    def rhs(v):
        out = m @ v
        if pot is not None:
            out[3] += pot.derivative(v[0 if pot.kind == "on_q" else 2])
        return out

    states = np.empty((n_steps + 1, 4))
    w = np.array(w, dtype=float)
    states[0] = w
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            k1 = rhs(w)
            k2 = rhs(w + 0.5 * h * k1)
            k3 = rhs(w + 0.5 * h * k2)
            k4 = rhs(w + h * k3)
            w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(w)):
                return states[:i + 1], (i + 1) * h
            states[i + 1] = w
    return states, None


class TestScalarLoop:
    """integrate steps four floats; its trajectories must equal the vector
    form's bit for bit, across the chunked writes into the state array."""

    @pytest.mark.parametrize("n_steps", [1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("pot", [None, quartic_potential(0.25),
                                     quartic_potential(0.25, kind="on_qdd")],
                             ids=["linear", "on_q", "on_qdd"])
    def test_bit_identical_to_vector_form(self, p54, pot, n_steps):
        v0 = PhaseState(0.4, -0.2, 0.25, 0.1)
        field = LinearField(p54) if pot is None else PotentialField(p54, pot)
        want, t_reached = vector_rk4(p54, pot, v0.as_array(), 0.01, n_steps)
        assert t_reached is None
        traj = integrate(field, v0, 0.01, n_steps * 0.01)
        assert traj.states.shape == (n_steps + 1, 4)
        assert np.array_equal(traj.states, want)

    @pytest.mark.parametrize("h", [1.0, 0.05], ids=["first-chunk", "later-chunk"])
    def test_linear_loop_diverges_where_the_generic_loop_does(self, h):
        # the linear loop tests finiteness once per chunk, the generic loop
        # once per step
        p = PuParams(0.0, -1.0)  # real exponential branch
        v0 = PhaseState(1, 1, 1, 1)
        with pytest.raises(DivergenceError) as generic:
            _rk4(LinearField(p).rhs, v0.as_array(), h, round(800.0 / h))
        with pytest.raises(DivergenceError) as linear:
            integrate(LinearField(p), v0, h, 800.0)
        assert (len(linear.value.states) < 1024) == (h == 1.0)
        assert linear.value.t_reached == generic.value.t_reached
        assert linear.value.states.tobytes() == generic.value.states.tobytes()

    def test_signed_zeros_step_like_the_matvec(self):
        # a matvec never returns -0.0; at alpha < 0 a -0.0 initial entry
        # would otherwise survive the first step
        p = PuParams(-5.0, 4.0)
        v0 = PhaseState(0.0, -0.0, -0.0, -0.0)
        want, _ = vector_rk4(p, None, v0.as_array(), 0.01, 5)
        assert integrate(LinearField(p), v0, 0.01, 0.05).states.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pot,v0,h", [
        (quartic_potential(1.0), PhaseState(3, 0, 0, 0), 0.05),
        (quartic_potential(1.0, kind="on_qdd"), PhaseState(0, 0, 2, 0), 0.01),
    ], ids=["on_q", "on_qdd"])
    def test_overflow_is_divergence_at_the_vector_forms_time(self, p54, pot, v0, h):
        # float ** 3 overflows with OverflowError where float64 gave inf
        want, t_reached = vector_rk4(p54, pot, v0.as_array(), h, int(round(50.0 / h)))
        assert t_reached is not None
        with pytest.raises(DivergenceError) as err:
            integrate(PotentialField(p54, pot), v0, h, 50.0)
        assert err.value.t_reached == t_reached
        assert str(err.value) == f"integration diverged at t = {t_reached:.6g}"
        assert np.array_equal(err.value.states, want)


class TestConservation:
    def test_linear_charges_conserved(self, p54):
        sol = ClassicalSolution(p54, (0.3, -0.5, 0.7, 0.2), "nondegenerate")
        v0 = eval_solution(sol, 0.0)
        traj = integrate(LinearField(p54), v0, 1e-3, 50.0)
        charges = list(charge_ladder(p54, 6).charges)
        assert max(conservation_report(traj, charges)) <= 1e-8

    @pytest.mark.parametrize("rows", [1, 7, 8, 30])
    def test_drift_by_blocks_is_the_one_pass_drift(self, p54, rows, monkeypatch):
        """Blocks of 7 rows; at 30 rows a nan sits in the third block."""
        monkeypatch.setattr(dynamics, "BLOCK_ROWS", 7)
        states = np.random.default_rng(rows).uniform(-1.0, 1.0, (rows, 4))
        if rows == 30:
            states[17, 2] = math.nan
        traj = Trajectory(np.arange(rows) * 0.1, states)
        charges = list(charge_ladder(p54, 4).charges)
        for augment in (None, quartic_potential(0.25)):
            want = []
            for charge in charges:
                vals = charge_values(traj, charge, augment)
                want.append(float(np.max(np.abs(vals - vals[0])) / (1.0 + abs(vals[0]))))
            got = conservation_report(traj, charges, augment)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_constant_trajectory_has_zero_drift(self, p54):
        traj = integrate(LinearField(p54), PhaseState(0, 0, 0, 0), 1e-2, 1.0)
        drifts = conservation_report(traj, list(charge_ladder(p54, 4).charges))
        assert drifts == [0.0, 0.0, 0.0, 0.0]

    def test_interaction_breaks_bare_charge_but_not_augmented(self, p54):
        pot = quartic_potential(0.25)
        sol = ClassicalSolution(p54, (0.3, -0.5, 0.7, 0.2), "nondegenerate")
        v0 = eval_solution(sol, 0.0)
        traj = integrate(PotentialField(p54, pot), v0, 1e-3, 50.0)
        h1 = hamiltonian_h1(p54)
        bare = conservation_report(traj, [h1])[0]
        augmented = conservation_report(traj, [h1], augment=pot)[0]
        assert bare > 1e-3
        assert augmented <= 1e-8

    def test_degenerate_amplitude_growth(self):
        p = PuParams.from_frequencies(1.0, 1.0)
        sol = ClassicalSolution(p, (0.0, 0.0, 1.0, 0.0), "degenerate")
        early = max(abs(eval_solution(sol, t).q) for t in np.linspace(0, 2, 100))
        late = max(abs(eval_solution(sol, t).q) for t in np.linspace(18, 20, 100))
        assert late > 5.0 * early


class TestInteractionCompatibility:
    def test_q_potential_selects_first_tensor(self, p54, rng):
        report = interaction_compatibility(p54, quartic_potential(0.25), rng=rng)
        assert report.compatible_ray == (1.0, 0.0)
        others = [report.residuals[k] for k in range(32) if k not in report.compatible]
        assert min(others) >= 1e-3 * report.scale

    def test_qdd_potential_selects_second_tensor(self, p54, rng):
        pot = quartic_potential(0.25, kind="on_qdd")
        report = interaction_compatibility(p54, pot, rng=rng)
        assert report.compatible_ray == (0.0, 1.0)
        others = [report.residuals[k] for k in range(32) if k not in report.compatible]
        assert min(others) >= 1e-3 * report.scale

    def test_trivial_potential_rejected(self, p54, rng):
        flat = Potential("on_q", lambda x: 0.0, lambda x: 0.0, "flat")
        with pytest.raises(InconclusiveTestError):
            interaction_compatibility(p54, flat, rng=rng)

    def test_compatible_direction_is_exact(self, p54, rng):
        report = interaction_compatibility(p54, cosine_potential(1.5), rng=rng)
        assert len(report.compatible) == 1
        assert report.residuals[report.compatible[0]] <= 1e-9 * report.scale


class TestInteractionTransform:
    def test_example_amplitude(self, p54):
        ax, ay = interaction_transform_constraint(p54, 0.0)
        assert (ax, ay) == (3.0, -3.0)

    def test_zero_radicand_rejected(self, p54):
        g0 = (p54.alpha ** 2 - 4 * p54.beta) / 4.0
        with pytest.raises(ConstructionError):
            interaction_transform_constraint(p54, g0)

    def test_negative_radicand_rejected(self, p54):
        with pytest.raises(ComplexBranchError):
            interaction_transform_constraint(p54, 10.0)

    def test_constraints_hold_through_catalog_spec(self, rng):
        for _ in range(10):
            p = random_freq_params(rng)
            g = float(rng.uniform(-0.3, 0.3))
            try:
                ax, ay = interaction_transform_constraint(p, g)
            except (ComplexBranchError, ConstructionError):
                continue
            spec = build("Ta2+", p, ax=ax, ay=ay, g=g)
            # nu2/D = -mu2/D = 1 (D = mu2 nu0 - mu0 nu2), so the map inverts to q = -(x + y)
            x, y = rng.uniform(-2.0, 2.0, 2)
            q = inverse_map(spec, XYState(x, y, 0.0, 0.0)).q
            assert q == pytest.approx(-(x + y), rel=1e-10, abs=1e-10)

    def test_two_route_trajectories_agree(self, p54):
        err = two_route_max_error(p54, 0.5, quartic_potential(0.25),
                                  PhaseState(0.3, -0.2, 0.25, 0.1),
                                  h=1e-3, t_end=10.0)
        assert err <= 1e-6


def _antisym_by_loop(c):
    """K with upper triangle c, scattered entry by entry."""
    k = np.zeros((4, 4))
    for val, (i, j) in zip(c, itertools.combinations(range(4), 2)):
        k[i, j] = val
        k[j, i] = -val
    return k


_SIGNED_FLOATS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3),
                           st.floats(allow_nan=False, allow_infinity=False))


class TestDiscoveryOperator:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(alpha=_SIGNED_FLOATS, beta=_SIGNED_FLOATS)
    @example(alpha=0.0, beta=-2.0)
    @example(alpha=-0.0, beta=-0.5)
    def test_columns_are_the_matmuls_bit_for_bit(self, alpha, beta):
        m = companion_field(PuParams(alpha, beta))
        operator = _discovery_operator(m)
        assert operator.shape == (16, 6) and operator.flags.c_contiguous
        for j in range(6):
            k = _antisym_by_loop(np.eye(6)[j])
            assert operator[:, j].tobytes() == (k @ m + m.T @ k).ravel().tobytes()

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(st.lists(_SIGNED_FLOATS, min_size=6, max_size=6))
    def test_antisym_from_params_is_the_loop(self, c):
        c = np.array(c)
        assert _antisym_from_params(c).tobytes() == _antisym_by_loop(c).tobytes()


class TestStructureDiscovery:
    def test_kernel_contains_both_inverse_tensors(self, p54):
        result = structure_discovery(p54)
        span = np.column_stack([k.ravel() for k in result.kernels])
        for tensor in (poisson_j1(p54), poisson_j2(p54)):
            target = inverse(tensor.matrix).ravel()
            coef, _, _, _ = np.linalg.lstsq(span, target, rcond=None)
            assert np.linalg.norm(span @ coef - target) <= 1e-9 * (
                1 + np.linalg.norm(target))

    def test_products_are_symmetric(self, rng):
        from puosc.core import companion_field
        p = random_params(rng)
        m = companion_field(p)
        for k in structure_discovery(p).kernels:
            s = k @ m
            assert np.linalg.norm(s - s.T) <= 1e-10 * (1 + np.linalg.norm(s))

    def test_first_ray_recovers_standard_hamiltonian(self, p54):
        result = structure_discovery(p54)
        j1inv = inverse(poisson_j1(p54).matrix)
        span = np.column_stack([k.ravel() for k in result.kernels])
        coef, _, _, _ = np.linalg.lstsq(span, j1inv.ravel(), rcond=None)
        from puosc.core import companion_field, QuadHamiltonian
        k = sum(c * kk for c, kk in zip(coef, result.kernels))
        s = k @ companion_field(p54)
        recovered = QuadHamiltonian(0.5 * (s + s.T))
        c1, c2 = coefficients_on_h1h2(p54, recovered)
        assert c1 == pytest.approx(1.0, rel=1e-9)
        assert abs(c2) <= 1e-9

    def test_combination_closure_at_inverse_level(self, p54, rng):
        # (c1 J1 + c2 J2)^-1 stays inside the discovered kernel span
        result = structure_discovery(p54)
        span = np.column_stack([k.ravel() for k in result.kernels])
        for _ in range(10):
            c1, c2 = rng.uniform(-2, 2, 2)
            jbar = c1 * poisson_j1(p54).matrix + c2 * poisson_j2(p54).matrix
            if abs(np.linalg.det(jbar)) < 1e-6:
                continue
            target = inverse(jbar).ravel()
            coef, _, _, _ = np.linalg.lstsq(span, target, rcond=None)
            assert np.linalg.norm(span @ coef - target) <= 1e-9 * (
                1 + np.linalg.norm(target))

    def test_beta_zero_rejected(self):
        with pytest.raises(ParameterDomainError):
            structure_discovery(PuParams(1.0, 0.0))

    def test_ill_conditioned_inverse_stays_antisymmetric(self):
        # a kernel element near the condition limit: its inverse is
        # antisymmetric only to about cond * eps
        p = PuParams.from_frequencies(1.6152164379919336, 0.7444670718291693)
        pairs = structure_discovery(p).pairs
        assert len(pairs) == 2
        for j, h in pairs:
            assert flow_residual(j, h, p) <= 1e-10


class TestChargeValues:
    def test_matches_direct_evaluation(self, p54, rng):
        sol = ClassicalSolution(p54, (0.2, 0.1, -0.4, 0.3), "nondegenerate")
        traj = integrate(LinearField(p54), eval_solution(sol, 0.0), 1e-2, 1.0)
        h1 = hamiltonian_h1(p54)
        vals = charge_values(traj, h1)
        for i in (0, 50, 100):
            assert vals[i] == pytest.approx(h1.value(traj.states[i]), rel=1e-12)

    @pytest.mark.parametrize("augment", [
        None, quartic_potential(0.25), quartic_potential(0.25, kind="on_qdd"),
        cubic_potential(0.3), cosine_potential(0.7)],
        ids=["bare", "quartic-on_q", "quartic-on_qdd", "cubic", "cosine"])
    @pytest.mark.parametrize("n", range(6), ids=lambda n: f"H{n + 1}")
    def test_bits_of_the_ordered_double_sum(self, p54, n, augment):
        sol = ClassicalSolution(p54, (0.3, -0.5, 0.7, 0.2), "nondegenerate")
        traj = integrate(LinearField(p54), eval_solution(sol, 0.0), 1e-2, 10.0)
        charge = charge_ladder(p54, 6).charges[n]
        want = reference_charge_values(traj.states, charge.matrix, augment)
        assert charge_values(traj, charge, augment).tobytes() == want.tobytes()

    def test_signed_zero_and_subnormal_states(self, p54):
        states = np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, -0.0, -0.0],
                           [5e-324, -5e-324, 0.0, -0.0], [-1e-160, 1e-160, -1e-160, 0.0]])
        traj = Trajectory(np.arange(4.0), states)
        for charge in charge_ladder(p54, 6).charges:
            want = reference_charge_values(states, charge.matrix, None)
            assert charge_values(traj, charge).tobytes() == want.tobytes()

    def test_overflowing_potential_is_inf_as_on_numpy_scalars(self):
        # float ** 3 raises OverflowError on a Python float; charge_values
        # still returns inf there, as on a numpy float64, and warns nothing
        states = np.array([[1e110, 0.0, 0.0, 0.0], [-0.5, 0.0, 0.0, 0.0]])
        zero = QuadHamiltonian(np.zeros((4, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = charge_values(Trajectory(np.arange(2.0), states), zero, cubic_potential(0.25))
        assert vals.tolist() == [math.inf, 0.25 * (-0.5) ** 3 / 3.0]

    def test_overflowing_form_is_silent(self, p54):
        states = np.array([[1e160, 1e160, 1e160, 1e160]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = charge_values(Trajectory(np.zeros(1), states), hamiltonian_h1(p54))
        assert not np.isfinite(vals[0])


def reference_charge_values(states, s, augment):
    """0.5 * sum over j, then k, of (x_j * S_jk) * x_k from 0.0, every entry
    of S included, plus the potential at q (on_q) or qdd (on_qdd)."""
    s = s.tolist()
    out = []
    for x in states.tolist():
        acc = 0.0
        for j in range(4):
            for k in range(4):
                acc += (x[j] * s[j][k]) * x[k]
        value = 0.5 * acc
        if augment is not None:
            value += augment.value(x[0 if augment.kind == "on_q" else 2])
        out.append(value)
    return np.array(out)


class TestReferenceOrbit:
    def test_shared_read_only_and_extends_the_rk4_checks_orbit(self, p54):
        orbit = _reference_orbit(p54)
        assert _reference_orbit(p54) is orbit
        for a in (orbit.times, orbit.states):
            assert not a.flags.writeable
        # dynamics.rk4 reads the first 10,001 rows as the orbit to t = 10
        sol = ClassicalSolution(p54, (0.3, -0.5, 0.7, 0.2), "nondegenerate")
        short = integrate(LinearField(p54), eval_solution(sol, 0.0), 1e-3, 10.0)
        assert orbit.times[:10001].tobytes() == short.times.tobytes()
        assert orbit.states[:10001].tobytes() == short.states.tobytes()
        assert len(orbit.times) == 50001

    def test_degenerate_params_share_one_stand_in(self):
        p = PuParams.from_frequencies(1.0, 1.0)
        stand_in = _nondegenerate(p)
        assert stand_in == PuParams.from_frequencies(2.0, 1.0)
        assert _nondegenerate(p) is stand_in
        assert _nondegenerate(stand_in) is stand_in
