import contextlib
import copy
import dataclasses
import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from conftest import arrays_of, assert_memoized, verify_check
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from puosc import core, dynamics, hierarchy, symmetry, transform, verify
from puosc.core import (PhaseState, PoissonTensor, PuParams, QuadHamiltonian,
                        canonical_tensor, combined_form, companion_field, flow_residual,
                        hamiltonian_h1, hamiltonian_h2, ostrogradsky_hamiltonian,
                        ostrogradsky_matrix, poisson_j1, poisson_j2,
                        quad_bracket)
from puosc.errors import InvalidInputError, ParameterDomainError, PuError
from puosc.hierarchy import _square_piece, charge_ladder, combine, recursion_operator
from puosc.linalg import expm, inverse
from puosc.symmetry import standard_basis
from puosc.verify import random_freq_params, random_params


class TestParams:
    def test_frequency_construction(self):
        p = PuParams.from_frequencies(2.0, 1.0)
        assert p.alpha == 5.0 and p.beta == 4.0
        assert p.alpha ** 2 - 4 * p.beta == pytest.approx((4.0 - 1.0) ** 2)

    def test_degenerate_flag(self):
        assert PuParams.from_frequencies(1.3, 1.3).degenerate
        assert not PuParams.from_frequencies(2.0, 1.0).degenerate
        # the gap is relative to the larger squared frequency
        assert not PuParams.from_frequencies(1e-3, 1.001e-3).degenerate
        assert PuParams.from_frequencies(1e-3, 1e-3).degenerate
        assert PuParams.from_frequencies(0.0, 0.0).degenerate

    def test_frequencies_derived_from_alpha_beta(self):
        w1, w2 = PuParams(5.0, 4.0).frequencies()
        assert (w1, w2) == pytest.approx((2.0, 1.0))

    def test_frequencies_raise_when_complex(self):
        with pytest.raises(ParameterDomainError):
            PuParams(1.0, 4.0).frequencies()

    def test_nonfinite_state_rejected(self):
        with pytest.raises(InvalidInputError):
            PhaseState(1.0, float("inf"), 0.0, 0.0)

    def test_nonfinite_alpha_rejected(self):
        with pytest.raises(InvalidInputError, match="alpha"):
            PuParams(float("nan"), 4.0)

    def test_nonfinite_frequency_rejected(self):
        with pytest.raises(InvalidInputError, match="omega1"):
            PuParams.from_frequencies(float("inf"), 1.0)

    @pytest.mark.parametrize("fields", [(5.0, 4.0, -2.0, 1.0), (5.0, 4.0, 3.0, 3.0),
                                        (5.0, 4.0 + 4e-11, 2.0, 1.0), (5.0, 4.0, 2.0, None),
                                        (1.0, 1.0, 1e200, 1e200), (2e200, 1.0, 1e100, 1e100)])
    def test_bad_frequencies_rejected(self, fields):
        with pytest.raises(InvalidInputError):
            PuParams(*fields)

    @pytest.mark.parametrize("omegas", [(2, 1), (np.float32(1.1), 0.3), (1e-200, 1.0),
                                        (0.0, 0.0), (1e100, 1e-100), (1.3, 1.3)])
    def test_own_frequencies_accepted(self, omegas):
        p = PuParams.from_frequencies(*omegas)
        assert p.frequencies() == tuple(float(w) for w in omegas)


# floats from the whole line, +-0.0, subnormals and huge values included
_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# 0.0 and omegas whose squares and their product are normal floats
_NORMAL_OMEGAS = st.one_of(st.just(0.0), st.floats(1e-70, 1e70))
# relative moves of alpha or beta, each at least 10 % away from 1e-12
_MOVES = st.one_of(st.just(0.0), st.floats(-0.9e-12, 0.9e-12), st.floats(1.1e-12, 10.0),
                   st.floats(-1.0, -1.1e-12))


class TestParamsGate:
    """Which fields ``PuParams`` accepts (README, the CLI paragraph)."""

    @settings(derandomize=True, deadline=None)
    @given(_FINITE_FLOATS, _FINITE_FLOATS)
    def test_any_finite_alpha_beta_accepted(self, alpha, beta):
        p = PuParams(alpha, beta)
        assert (p.alpha, p.beta, p.omega1, p.omega2) == (alpha, beta, None, None)

    @settings(derandomize=True, deadline=None)
    @given(_NORMAL_OMEGAS, _NORMAL_OMEGAS, st.booleans(), st.data())
    def test_non_finite_negative_or_lone_omega_rejected(self, w1, w2, omegas_given, data):
        fields = [w1 * w1 + w2 * w2, w1 * w1 * w2 * w2, *((w1, w2) if omegas_given else (None, None))]
        PuParams(*fields)  # accepted until one field is spoilt
        defects = [(i, bad) for i in range(4 if omegas_given else 2)
                   for bad in (math.nan, math.inf, -math.inf)]
        if omegas_given:
            defects += [(i, None) for i in (2, 3)] + [(i, -fields[i]) for i in (2, 3) if fields[i]]
        i, bad = data.draw(st.sampled_from(defects))
        fields[i] = bad
        with pytest.raises(InvalidInputError):
            PuParams(*fields)

    @settings(derandomize=True, deadline=None)
    @given(st.floats(0.0, allow_infinity=False), st.floats(0.0, allow_infinity=False))
    def test_finite_frequencies_accepted(self, w1, w2):
        assume(math.isfinite(w1 * w1 + w2 * w2) and math.isfinite(w1 * w1 * w2 * w2))
        p = PuParams.from_frequencies(w1, w2)
        assert p.frequencies() == (w1, w2)

    @settings(derandomize=True, deadline=None)
    @given(_NORMAL_OMEGAS, _NORMAL_OMEGAS, _MOVES, _MOVES)
    def test_omegas_accepted_exactly_when_they_match(self, w1, w2, move_alpha, move_beta):
        s1, s2 = w1 * w1, w2 * w2
        alpha, beta = (s1 + s2) * (1.0 + move_alpha), s1 * s2 * (1.0 + move_beta)
        match = all(abs(move) < 1e-12 or exact == 0.0
                    for move, exact in ((move_alpha, s1 + s2), (move_beta, s1 * s2)))
        with pytest.raises(InvalidInputError) if not match else contextlib.nullcontext():
            PuParams(alpha, beta, w1, w2)


class TestCompanion:
    def test_nilpotent_at_zero(self):
        m = companion_field(PuParams(0.0, 0.0))
        assert np.array_equal(np.linalg.matrix_power(m, 4), np.zeros((4, 4)))

    def test_bottom_row(self, p54):
        assert companion_field(p54)[3].tolist() == [-4.0, 0.0, -5.0, 0.0]

    def test_first_column(self, p54):
        out = companion_field(p54) @ np.array([1.0, 0.0, 0.0, 0.0])
        assert out.tolist() == [0.0, 0.0, 0.0, -4.0]


class TestHamiltonians:
    def test_h1_example_value(self, p54):
        assert hamiltonian_h1(p54).value(PhaseState(1, 0, 0, 0)) == -2.0

    def test_h2_example_value(self, p54):
        assert hamiltonian_h2(p54).value(PhaseState(0, 0, 0, 1)) == -0.5

    def test_zero_state(self, p54):
        assert hamiltonian_h1(p54).value(PhaseState(0, 0, 0, 0)) == 0.0

    def test_h1_pointwise_formula(self, p54, rng):
        h1 = hamiltonian_h1(p54)
        for _ in range(20):
            q, qd, qdd, qddd = rng.uniform(-2, 2, 4)
            want = 0.5 * qdd ** 2 - 2.5 * qd ** 2 - 2.0 * q ** 2 - qd * qddd
            assert h1.value([q, qd, qdd, qddd]) == pytest.approx(want, rel=1e-12)

    def test_h2_pointwise_formula(self, p54, rng):
        h2 = hamiltonian_h2(p54)
        for _ in range(20):
            q, qd, qdd, qddd = rng.uniform(-2, 2, 4)
            want = 2.0 * qd ** 2 - 2.5 * qdd ** 2 - 0.5 * qddd ** 2 - 4.0 * q * qdd
            assert h2.value([q, qd, qdd, qddd]) == pytest.approx(want, rel=1e-12)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            QuadHamiltonian([[0.0, 1.0], [0.0, 0.0]])

    def test_huge_asymmetric_matrix_rejected(self):
        # the squares of 1e200 overflow; the symmetry test must not go void
        with pytest.raises(InvalidInputError, match="not symmetric"):
            QuadHamiltonian([[0.0, 1e200], [-1e200, 0.0]])


class TestPoissonTensors:
    def test_j1_entries(self, p54):
        j1 = poisson_j1(p54)
        assert j1.matrix[0, 3] == -1.0
        assert j1.matrix[1, 2] == 1.0
        assert j1.matrix[2, 3] == 5.0

    def test_j2_entries(self, p54):
        j2 = poisson_j2(p54)
        assert j2.matrix[0, 1] == 0.25
        assert j2.matrix[2, 3] == -1.0

    def test_antisymmetry(self, p54):
        j1 = poisson_j1(p54).matrix
        assert np.array_equal(j1 + j1.T, np.zeros((4, 4)))

    def test_j2_requires_beta(self):
        with pytest.raises(ParameterDomainError):
            poisson_j2(PuParams(5.0, 0.0))

    def test_huge_symmetric_matrix_rejected(self):
        with pytest.raises(InvalidInputError, match="not antisymmetric"):
            PoissonTensor([[1e200, 1e200], [1e200, 0.0]])


class TestFlowResidual:
    def test_both_pairs_generate_flow(self, p54):
        assert flow_residual(poisson_j1(p54), hamiltonian_h1(p54), p54) <= 1e-12
        assert flow_residual(poisson_j2(p54), hamiltonian_h2(p54), p54) <= 1e-12

    def test_mismatched_pair_is_positive(self, p54):
        assert flow_residual(poisson_j1(p54), hamiltonian_h2(p54), p54) > 0.1


class TestQuadBracket:
    def test_self_bracket_vanishes(self, p54):
        b = quad_bracket(poisson_j1(p54), hamiltonian_h1(p54), hamiltonian_h1(p54))
        assert np.array_equal(b.matrix, np.zeros((4, 4)))

    def test_h1_h2_in_involution(self, p54):
        b = quad_bracket(poisson_j1(p54), hamiltonian_h1(p54), hamiltonian_h2(p54))
        assert np.max(np.abs(b.matrix)) <= 1e-12

    def test_polarization_of_coordinate_squares(self, p54, rng):
        # F = qd^2, G = qdd^2: {F, G} = 4 qd qdd {qd, qdd} = 4 qd qdd
        f = QuadHamiltonian(np.diag([0.0, 2.0, 0.0, 0.0]))
        g = QuadHamiltonian(np.diag([0.0, 0.0, 2.0, 0.0]))
        bracket = quad_bracket(poisson_j1(p54), f, g)
        for _ in range(10):
            v = rng.uniform(-2, 2, 4)
            assert bracket.value(v) == pytest.approx(4.0 * v[1] * v[2], rel=1e-12)

    def test_bracket_is_pointwise_gradient_pairing(self, p54, rng):
        j = poisson_j1(p54)
        for _ in range(10):
            a, b = rng.uniform(-1, 1, (2, 4, 4))
            f, g = QuadHamiltonian(a + a.T), QuadHamiltonian(b + b.T)
            v = rng.uniform(-2, 2, 4)
            direct = f.gradient(v) @ j.matrix @ g.gradient(v)
            assert quad_bracket(j, f, g).value(v) == pytest.approx(direct, rel=1e-10)

    def test_matrix_level_antisymmetry(self, p54, rng):
        j = poisson_j2(p54)
        a, b = rng.uniform(-1, 1, (2, 4, 4))
        f, g = QuadHamiltonian(a + a.T), QuadHamiltonian(b + b.T)
        fg = quad_bracket(j, f, g).matrix
        gf = quad_bracket(j, g, f).matrix
        assert np.array_equal(fg, -gf)

    def test_commuting_charges_near_zero_bracket(self):
        # here rounding leaves Sf J Sg - Sg J Sf asymmetric by more than the
        # form's symmetry check allows for a near-zero bracket
        p = PuParams(-2.2743700990172995, -2.955055837956778)
        ladder = charge_ladder(p, 5).charges
        for j in (poisson_j1(p), poisson_j2(p)):
            b = quad_bracket(j, ladder[3], ladder[4]).matrix
            assert np.array_equal(b, b.T)
            assert np.linalg.norm(b) <= 1e-10


def _signed_zero_forms(rng):
    """Two symmetric forms whose matrices hold +0.0 and -0.0 entries."""
    forms = []
    for _ in range(2):
        a = rng.uniform(-2.0, 2.0, (4, 4))
        a = a + a.T
        a[0, 1] = a[1, 0] = -0.0
        a[2, 3] = a[3, 2] = 0.0
        a[1, 1] = -0.0
        forms.append(QuadHamiltonian(a))
    return forms


_P21 = PuParams.from_frequencies(2.0, 1.0)

# each case builds its result through the library; the test compares it
# with the same call routed through the public constructors
_EXACT_SITES = {
    "sum": lambda f, g: f + g,
    "difference": lambda f, g: f - g,
    "negative-scaling": lambda f, g: -2.75 * f,
    "negative-zero-scaling": lambda f, g: g * -0.0,
    "negation": lambda f, g: -f,
    "quad-bracket": lambda f, g: quad_bracket(poisson_j2(_P21), f, g),
    "combine-jbar": lambda f, g: combine(_P21, -1.3, -0.7).jbar,
    "combine-hbar": lambda f, g: combine(_P21, -1.3, -0.7).hbar,
    "legendre-ta2": lambda f, g: transform.legendre(
        transform.build("Ta2+", _P21, ax=1.0, ay=-1.0, g=0.3)),
    "legendre-tb1": lambda f, g: transform.legendre(
        transform.build("Tb1", _P21, ax=1.0, bx=2.0, g=-0.5)),
    "pullback-tb2": lambda f, g: transform.pullback_form(
        transform.build("Tb2-", _P21, ax=0.7, by=-1.3, g=0.4)),
    "square-piece": lambda f, g: _square_piece(-0.6, 4.0, 1.0),
    # R S_n comes out asymmetric by rounding at these frequencies
    "next-charge": lambda f, g: charge_ladder(PuParams.from_frequencies(1.7, 0.6), 5).charges[-1],
    "discovery-form": lambda f, g: dynamics.structure_discovery(_P21).pairs[0][1],
}
# the literals at parameters whose signed zeros reach the matrix; a fresh
# PuParams per call, so that neither path reads the other's memo
_EXACT_SITES.update({
    f"{build.__name__}@{alpha},{beta}":
        lambda f, g, build=build, p=(alpha, beta): build(PuParams(*p))
    for build in (hamiltonian_h1, hamiltonian_h2, ostrogradsky_hamiltonian)
    for alpha, beta in ((0.0, 0.0), (-0.0, -0.0), (-0.0, 4.0))})


class TestExactConstruction:
    @pytest.mark.parametrize("site", _EXACT_SITES)
    def test_same_bits_as_public_constructor(self, site, monkeypatch):
        f, g = _signed_zero_forms(np.random.default_rng(7))
        fast = _EXACT_SITES[site](f, g)
        for cls in (QuadHamiltonian, PoissonTensor):
            monkeypatch.setattr(cls, "_exact", classmethod(lambda c, a: c(a)))
        slow = _EXACT_SITES[site](f, g)
        assert type(fast) is type(slow)
        assert fast.matrix.tobytes() == slow.matrix.tobytes()
        assert not fast.matrix.flags.writeable

    def test_signed_zeros_survive_sums(self):
        f, g = _signed_zero_forms(np.random.default_rng(7))
        assert np.signbit((f + g).matrix[0, 1]) and not np.signbit((f + g).matrix[2, 3])

    def test_overflowing_scaling_raises(self):
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="non-finite"):
            hamiltonian_h1(PuParams(5.0, 4.0)) * 1e308

    def test_overflowing_symmetrization_raises(self):
        # each sum is finite, but a +- a.T then overflows
        with np.errstate(over="ignore"):
            h = QuadHamiltonian(np.diag([5e307, 1.0, 1.0, 1.0]))
            with pytest.raises(InvalidInputError, match="non-finite"):
                h + h
            with pytest.raises(InvalidInputError, match="non-finite"):
                QuadHamiltonian(np.diag([1e308, 1.0, 1.0, 1.0]))
            with pytest.raises(InvalidInputError, match="non-finite"):
                PoissonTensor([[0.0, 1e308], [-1e308, 0.0]])

    def test_overflowing_literal_raises(self):
        # 1 / 1e-320 overflows to inf
        with pytest.raises(InvalidInputError, match="non-finite"):
            poisson_j2(PuParams(5.0, 1e-320))


def _assert_combined(form, p, c3, c4):
    """The contract of ``combined_form`` that the core docstring states: each
    entry is c3 * H1[i, j] + c4 * H2[i, j], one float expression, and the
    matrix is symmetric bit for bit, signed zeros included."""
    h1, h2 = hamiltonian_h1(p).matrix.tolist(), hamiltonian_h2(p).matrix.tolist()
    entries = [[c3 * x + c4 * y for x, y in zip(r1, r2)] for r1, r2 in zip(h1, h2)]
    assert form.matrix.tobytes() == np.array(entries).tobytes()
    assert form.matrix.tobytes() == form.matrix.T.tobytes()


# signed zeros in alpha and beta reach the stored H1 and H2
_COMBINED_POINTS = [PuParams(5.0, 4.0), PuParams(-0.0, 4.0), PuParams(0.0, -0.0),
                    PuParams.from_frequencies(1.7, 0.6)]
# negative coefficients turn the zero entries of H1 and H2 into -0.0
_COEFFICIENTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.0, 0.5]),
                          st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300))


def _count_builds(monkeypatch):
    """A list that grows by one for every QuadHamiltonian built from now on."""
    builds = []
    init = QuadHamiltonian.__init__

    def counting(self, *args, **kwargs):
        builds.append(None)
        init(self, *args, **kwargs)
    monkeypatch.setattr(QuadHamiltonian, "__init__", counting)
    return builds


class TestCombinedForm:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(_COMBINED_POINTS), _COEFFICIENTS, _COEFFICIENTS)
    def test_entries_are_the_formula_bit_symmetric(self, p, c3, c4):
        form = combined_form(p, c3, c4)
        _assert_combined(form, p, c3, c4)
        assert not form.matrix.flags.writeable

    @settings(derandomize=True, deadline=None)
    @given(st.sampled_from(_COMBINED_POINTS[::3]), _COEFFICIENTS, _COEFFICIENTS)
    def test_combine_and_closed_form_ladder(self, p, c1, c2):
        try:
            cs = combine(p, c1, c2)
        except PuError:
            cs = None
        if cs is not None:
            _assert_combined(cs.hbar, p, cs.c3, cs.c4)
        k = 1 + int(abs(c1)) % 6
        c1k = p.beta * hierarchy.pu_polynomial(k - 1, p)
        c2k = (hierarchy.pu_polynomial(k + 1, p) + p.beta * hierarchy.pu_polynomial(k - 1, p)) / p.alpha
        _assert_combined(hierarchy.ladder_via_x3(p, k), p, c1k, c2k)

    @settings(derandomize=True, deadline=None)
    @given(st.sampled_from(_COMBINED_POINTS),
           st.one_of(st.sampled_from([0.0, -0.0, 2.5, 5.0]), st.floats(-1e3, 1e3)))
    def test_transformed_form(self, p, value):
        # x - 2y is x + (-2)y in IEEE arithmetic, signed zeros included;
        # value = alpha / 2 and value = alpha make the H1 coefficient 0.0
        h1, h2 = hamiltonian_h1(p), hamiltonian_h2(p)
        ta2 = (2.0 * value - p.alpha) * h1 - 2.0 * h2
        tb1 = (value - p.alpha) * h1 - h2
        assert transform.ta2_form(p, value).matrix.tobytes() == ta2.matrix.tobytes()
        assert transform.tb1_form(p, value).matrix.tobytes() == tb1.matrix.tobytes()

    @pytest.mark.parametrize("check_id", ["catalog.flow-tensor", "sm.embedding"],
                             ids=["flow-tensor", "sm-embedding"])
    def test_verify_sites(self, check_id, monkeypatch):
        # each form the check builds, on the coefficients it draws
        check = verify_check(check_id)
        built = []

        def checked(p, c3, c4):
            form = combined_form(p, c3, c4)
            _assert_combined(form, p, c3, c4)
            built.append(form)
            return form
        monkeypatch.setattr(verify, "combined_form", checked)
        check(None, np.random.default_rng(15), None)
        assert built

    @pytest.mark.parametrize("build", [
        lambda p: combine(p, 1.0, 0.3),
        lambda p: hierarchy.ladder_via_x3(p, 3),
        lambda p: transform.tb1_form(p, 1.0),
        lambda p: combined_form(p, -1.0, 2.0),
    ], ids=["combine", "ladder_via_x3", "tb1_form", "combined_form"])
    def test_one_build_once_h1_h2_are_memoized(self, build, monkeypatch):
        p = PuParams.from_frequencies(2.0, 1.0)
        hamiltonian_h1(p), hamiltonian_h2(p)
        builds = _count_builds(monkeypatch)
        build(p)
        assert len(builds) == 1


_CORE_MEMOIZED = [companion_field, hamiltonian_h1, hamiltonian_h2, poisson_j1, poisson_j2]
# every function of the package that core._memoized wraps, found by its code
_WRAPPER_CODE = core._memoized(lambda p: p).__code__
_ALL_MEMOIZED = {fn.__qualname__: fn
                 for module in (core, dynamics, hierarchy, symmetry, transform, verify)
                 for fn in vars(module).values()
                 if getattr(fn, "__code__", None) is _WRAPPER_CODE}
_ROUND_TRIPS = pytest.mark.parametrize(
    "roundtrip", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"])


class TestMemo:
    @pytest.mark.parametrize("fn", _CORE_MEMOIZED, ids=lambda fn: fn.__name__)
    def test_one_shared_read_only_build_per_params(self, fn):
        assert_memoized(fn, lambda: PuParams.from_frequencies(1.7, 0.6))

    @pytest.mark.parametrize("fn", _CORE_MEMOIZED, ids=lambda fn: fn.__name__)
    def test_equal_params_keep_their_own_signed_zeros(self, fn):
        # 0.0 == -0.0, so a cache keyed by value would hand one the other's bits
        plus, minus = PuParams(0.0, 4.0), PuParams(-0.0, 4.0)
        assert plus == minus and hash(plus) == hash(minus)
        for p in (plus, minus, plus):
            want = fn.__wrapped__(p)
            assert ([a.tobytes() for a in arrays_of(fn(p))]
                    == [a.tobytes() for a in arrays_of(want)])
        assert companion_field(plus).tobytes() != companion_field(minus).tobytes()

    def test_replaced_params_start_empty(self):
        p = PuParams(5.0, 4.0)
        companion_field(p)
        q = dataclasses.replace(p, alpha=3.0)
        assert companion_field(q)[3, 2] == -3.0
        assert companion_field(p)[3, 2] == -5.0

    def test_value_semantics_unchanged(self):
        p, q = PuParams(5.0, 4.0), PuParams(5.0, 4.0)
        before = (p == q, hash(p), repr(p), dataclasses.astuple(p))
        charge_ladder(p, 6)
        standard_basis(p)
        assert (p == q, hash(p), repr(p), dataclasses.astuple(p)) == before

    def test_every_builder_found(self):
        assert {"companion_field", "hamiltonian_h1", "hamiltonian_h2", "poisson_j1",
                "poisson_j2", "recursion_operator", "standard_basis",
                "_reference_orbit", "_stand_in"} == set(_ALL_MEMOIZED)

    @pytest.mark.parametrize("fill", [
        lambda p: verify.run_verification(p, 11), *_ALL_MEMOIZED.values()],
        ids=["run_verification", *_ALL_MEMOIZED])
    def test_memo_frees_its_params_without_the_cycle_collector(self, fill):
        # a memoized value that holds its params (say, a ClassicalSolution)
        # would make a cycle through p.__dict__ that only gc.collect() frees
        gc.disable()
        try:
            p = PuParams.from_frequencies(2.0, 1.0)
            fill(p)
            assert vars(p)[core._MEMO]
            alive = weakref.ref(p)
            del p
            assert alive() is None
        finally:
            gc.enable()

    @_ROUND_TRIPS
    def test_params_copy_after_memoized_calls(self, roundtrip):
        p = PuParams.from_frequencies(2.0, 1.0)
        charge_ladder(p, 6)
        q = roundtrip(p)
        assert q == p and repr(q) == repr(p)
        assert hamiltonian_h1(q) is not hamiltonian_h1(p)
        assert recursion_operator(q).tobytes() == recursion_operator(p).tobytes()
        assert not recursion_operator(q).flags.writeable


_SHAPES = {
    "QuadHamiltonian": lambda: _signed_zero_forms(np.random.default_rng(3))[0],
    # half the smallest subnormal rounds to +0.0 above and -0.0 below the diagonal
    "PoissonTensor": lambda: PoissonTensor([[0.0, 5e-324, 1.0], [0.0, 0.0, 2.0],
                                            [-1.0, -2.0, 0.0]]),
    "Generator": lambda: standard_basis(PuParams(-5.0, 4.0))[3],
}


class TestCopyAndPickle:
    @_ROUND_TRIPS
    @pytest.mark.parametrize("make", _SHAPES.values(), ids=_SHAPES.keys())
    def test_round_trip_keeps_bits(self, make, roundtrip):
        original = make()
        back = roundtrip(original)
        assert type(back) is type(original)
        assert back.matrix.tobytes() == original.matrix.tobytes()
        assert not back.matrix.flags.writeable
        name = type(original).__name__
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            back.matrix = None
        assert repr(back) == f"{name}({back.matrix.tolist()})"
        assert not hasattr(back, "__dict__")


class TestOstrogradsky:
    def test_identity_on_position(self, p54):
        o = ostrogradsky_matrix(p54) @ PhaseState(1, 0, 0, 0).as_array()
        assert o.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_pi1_example(self, p54):
        assert (ostrogradsky_matrix(p54) @ PhaseState(0, 1, 0, 0).as_array())[2] == -5.0

    def test_energy_of_unit_acceleration(self, p54):
        o = ostrogradsky_matrix(p54) @ PhaseState(0, 0, 1, 0).as_array()
        assert ostrogradsky_hamiltonian(p54).value(o) == 0.5

    def test_canonical_bracket_pushes_to_j1(self, rng):
        for _ in range(20):
            p = random_params(rng)
            tinv = inverse(ostrogradsky_matrix(p))
            pushed = tinv @ canonical_tensor().matrix @ tinv.T
            assert np.max(np.abs(pushed - poisson_j1(p).matrix)) <= 1e-12

    def test_hamilton_equations(self, p54, rng):
        # canonical flow in (q1, q2, pi1, pi2) matches the transported companion flow
        t = ostrogradsky_matrix(p54)
        m = companion_field(p54)
        rhs_canonical = canonical_tensor().matrix @ ostrogradsky_hamiltonian(p54).matrix
        assert np.max(np.abs(rhs_canonical - t @ m @ inverse(t))) <= 1e-12


class TestConservationAlongExactFlow:
    def test_h1_h2_constant(self, rng):
        # oscillatory branch: trajectories stay bounded, so the absolute
        # conservation tolerance is meaningful
        for _ in range(10):
            p = random_freq_params(rng)
            m = companion_field(p)
            v0 = rng.uniform(-1, 1, 4)
            h1, h2 = hamiltonian_h1(p), hamiltonian_h2(p)
            e1, e2 = h1.value(v0), h2.value(v0)
            for t in rng.uniform(0, 10, 5):
                vt = expm(t * m) @ v0
                assert h1.value(vt) == pytest.approx(e1, abs=1e-9 * (1 + abs(e1)))
                assert h2.value(vt) == pytest.approx(e2, abs=1e-9 * (1 + abs(e2)))
