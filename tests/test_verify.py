"""The draw loop behind the verify registry, the nan-keeping maxima and
side conditions of its checks, the registry's measures at the unit-test
seed, and the report bytes they yield."""
import hashlib
import itertools
import math
import os
import platform
import runpy
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PKG_ROOT, run_cli, verify_check
from puosc import dynamics, hierarchy, transform, verify
from puosc.core import PuParams, poisson_j1
from puosc.errors import ComplexBranchError, ConstructionError, DegenerateCombinationError
from puosc.verify import _over_draws, _uniform, _worst


def _replay(draws):
    """A measure that returns the given draws in turn."""
    values = iter(draws)
    return lambda p, rng: next(values)


class TestWorst:
    def test_none_is_redrawn_and_not_counted(self):
        draws = [None, [0.2], None, None, [0.4, 0.1]]
        measure = _replay(draws + [[9.0]])
        assert _worst(None, None, [(2, measure)]) == (0.4, 2)
        assert measure(None, None) == [9.0]  # nothing drawn past the second counted draw

    def test_no_values_give_zero(self):
        assert _worst(None, None, [(5, lambda p, rng: ())]) == (0.0, 0)

    @pytest.mark.parametrize("draws", [[[math.nan], [0.5]], [[0.5], [math.nan]],
                                       [[0.5, math.nan, 0.1], [0.2]]],
                             ids=["first", "after-a-value", "inside-a-draw"])
    def test_nan_is_kept_and_fails_the_check(self, draws):
        assert math.isnan(_worst(None, None, [(2, _replay(draws))])[0])
        passed, residual, samples = _over_draws(1.0, (2, _replay(draws)))(None, None, None)
        assert passed is False and math.isnan(residual) and samples == 2

    def test_samples_count_each_measure(self):
        # p reaches each measure; a draw that measures nothing is no sample
        check = _over_draws(0.5, (4, lambda p, rng: [p]), (3, lambda p, rng: [0.25]),
                            (2, lambda p, rng: ()))
        assert check(0.5, None, None) == (True, 0.5, 7)


# (id, measure, n, bound): n counted draws of a registry measure, at the rng
# fixture's seed, all within bound
MEASURES = [
    ("random_parameter_sweep", verify._flow_pairs, 100, 1e-12),
    # both ways: H1 pulled back from the canonical energy, J1 pushed forward
    # from the canonical bracket
    ("pullback_equals_h1", verify._ostrogradsky, 100, 1e-12),
    *((f"satisfies_equation_of_motion-{regime}", partial(verify._ode_residual, regime), 50, 1e-9)
      for regime in verify._REGIMES),
    ("pairs_generate_the_flow", verify._discovery, 10, 1e-10),
    ("three_routes_agree", verify._ladder_routes, 25, 1e-9),
    ("both_generate_x4", verify._x4_pair, 20, 1e-10),
    ("flow_residual_sweep", verify._combined_flow, 200, 1e-10),
    ("axis_draws_never_pass", verify._axis_window, 50, 0.0),
    ("window_matches_minors", verify._pd_window, 200, 0.0),
    ("decomposition_reassembles", verify._pd_decomposition, 50, 1e-10),
    ("basis_is_abelian", verify._commutators, 50, 1e-12),
    *((f"random_admissible_draws-{kind}", partial(verify._defining, kind), 50, 1e-10)
      for kind in transform.KINDS),
    *((f"matches_catalog_formula-{kind}", partial(verify._pullback, kind), 50, 1e-9)
      for kind in transform.KINDS),
    ("tb1_window_minors_ground_truth", verify._tb1_window, 50, 0.0),
    ("matches_tb1_pullback_at_random_states", verify._sm_embedding, 10, 1e-9),
]


@pytest.mark.parametrize("measure, n, bound", [row[1:] for row in MEASURES],
                         ids=[row[0] for row in MEASURES])
def test_measure(measure, n, bound, p54, rng, monkeypatch):
    # the measures redraw on any PuError; here only on the errors of an
    # excluded draw, so that any other error fails the row
    monkeypatch.setattr(verify, "PuError",
                        (ComplexBranchError, ConstructionError, DegenerateCombinationError))
    assert _worst(p54, rng, [(n, measure)])[0] <= bound


_BOUND = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 3.0]), st.floats(-1e6, 1e6))


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 2**64 - 1), _BOUND, _BOUND,
       st.sampled_from([None, 1, 4, (3, 3), (400, 2)]))
def test_uniform_draws_the_bits_of_rng_uniform(seed, a, b, size):
    lo, hi = sorted((a, b))  # rng.uniform refuses hi < lo
    got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        fast, slow = _uniform(got, lo, hi, size), ref.uniform(lo, hi, size)
        assert type(fast) is type(slow)
        assert np.asarray(fast).tobytes() == np.asarray(slow).tobytes()
    assert got.bit_generator.state == ref.bit_generator.state


# {file name: argv} of every tools/snapshot.py output
_SNAPSHOT = dict(runpy.run_path(os.path.join(PKG_ROOT, "tools", "snapshot.py"))["commands"]())


def _snapshot_exit_code(name, tmp_path) -> int:
    """Run the snapshot command of name, require its bytes and exit code to
    match its tools/snapshot.sha256 line, and return the exit code."""
    with open(os.path.join(PKG_ROOT, "tools", "snapshot.sha256")) as handle:
        header, *lines = handle.read().splitlines()
    running = f"# python {platform.python_version()} numpy {np.__version__}"
    if header != running:
        pytest.skip(f"manifest written under '{header[2:]}', running '{running[2:]}'")
    out = tmp_path / name
    code = run_cli(*_SNAPSHOT[name], "--out", str(out)).returncode
    assert f"{hashlib.sha256(out.read_bytes()).hexdigest()} {name} {code}" in lines
    return code


@pytest.mark.parametrize("seed, code", [(5, 0), (3, 1)])
def test_verify_bytes_match_the_snapshot_manifest(seed, code, tmp_path):
    """A slip in the order of verify's draws moves these bytes, though two
    runs of one build still agree with each other."""
    assert _snapshot_exit_code(f"verify-{seed}.json", tmp_path) == code


@pytest.mark.parametrize("name", [name for name in _SNAPSHOT if name == "simulate-readme.csv"
                                  or not name.startswith(("verify-", "simulate-"))])
def test_quick_outputs_match_the_snapshot_manifest(name, tmp_path):
    """The snapshot outputs that take at most a fraction of a second, gated
    on every run; the README's ``simulate`` starts from ``eval_solution``."""
    _snapshot_exit_code(name, tmp_path)


def _nan_on_call(monkeypatch, owner, name, call, nan=math.nan):
    """Patch owner.name so that its call-th call returns nan instead."""
    real, calls = getattr(owner, name), itertools.count(1)
    monkeypatch.setattr(owner, name,
                        lambda *args: nan if next(calls) == call else real(*args))


class TestNanFails:
    """A nan that an inner measure returns after finite values makes its
    check fail with a nan residual; ``max(worst, x)`` dropped it."""

    def assert_fails_on_nan(self, check_id):
        passed, residual, _ = verify_check(check_id)(PuParams.from_frequencies(2.0, 1.0),
                                                     np.random.default_rng(5), None)
        assert passed is False and math.isnan(residual)

    def test_commutant(self, monkeypatch):
        _nan_on_call(monkeypatch, verify, "_span_residual", 3)
        self.assert_fails_on_nan("lie.commutant-dimension")

    def test_flow_tensor(self, monkeypatch):
        _nan_on_call(monkeypatch, transform, "canonical_bracket_residual", 3)
        self.assert_fails_on_nan("catalog.flow-tensor")

    def test_positivity_pieces(self, monkeypatch):
        _nan_on_call(monkeypatch, verify, "_reassembly", 3, nan=(0.0, math.nan))
        self.assert_fails_on_nan("positivity.square-pieces")

    def test_rk4_trajectory(self, monkeypatch):
        real = verify._reference_orbit

        def orbit(pp):
            traj = real(pp)
            states = traj.states.copy()
            states[400, 1] = math.nan  # the third sampled row
            return dynamics.Trajectory(traj.times, states)
        monkeypatch.setattr(verify, "_reference_orbit", orbit)
        self.assert_fails_on_nan("dynamics.rk4")

    def test_conservation_drift(self, monkeypatch):
        real, calls = dynamics.conservation_report, itertools.count(1)

        def report(*args, **kwargs):
            drifts = real(*args, **kwargs)
            return drifts[:-1] + [math.nan] if next(calls) == 1 else drifts
        monkeypatch.setattr(dynamics, "conservation_report", report)
        self.assert_fails_on_nan("dynamics.conservation")

    def test_involution(self, monkeypatch):
        nan_bracket = SimpleNamespace(matrix=np.full((4, 4), math.nan))
        _nan_on_call(monkeypatch, hierarchy, "quad_bracket", 3, nan=nan_bracket)
        assert math.isnan(hierarchy.involution_residual(PuParams(5.0, 4.0)))
        _nan_on_call(monkeypatch, hierarchy, "quad_bracket", 3, nan=nan_bracket)
        self.assert_fails_on_nan("hierarchy.involution")

    def test_interaction_separation(self, monkeypatch):
        real = dynamics.interaction_compatibility

        def compatibility(*args, **kwargs):
            rep = real(*args, **kwargs)
            residuals = rep.residuals.copy()
            residuals[min(set(range(len(residuals))) - set(rep.compatible))] = math.nan
            return dynamics.CompatibilityReport(rep.angles, residuals, rep.scale,
                                                rep.compatible, rep.compatible_ray)
        monkeypatch.setattr(dynamics, "interaction_compatibility", compatibility)
        self.assert_fails_on_nan("interaction.unique-tensor")


_INTEGRATE, _PD_WINDOW = dynamics.integrate, hierarchy.pd_window


@pytest.mark.parametrize("check_id, owner, name, stand_in", [
    # every pair has a tensor, Ta1 and Tb2 pullbacks included
    ("catalog.flow-tensor", transform, "flow_preserving_tensor", lambda pp, c3, c4: poisson_j1(pp)),
    ("catalog.inverse-map", transform, "inverse", lambda spec, w: w),  # Ta1 inverts
    # the h = 0.02 run steps at 0.01 too, so halving h gains nothing
    ("dynamics.rk4", dynamics, "integrate",
     lambda field, v0, h, t_end: _INTEGRATE(field, v0, min(h, 0.01), t_end)),
    ("combined.pd-window", hierarchy, "pd_window",
     lambda pp, c1, c2: c1 * c2 == 0.0 or _PD_WINDOW(pp, c1, c2)),  # axis draws pass
], ids=["tensor-accepts-ta1-tb2", "ta1-inverts", "rk4-order", "axis-passes"])
def test_failed_side_condition_fails_its_row(check_id, owner, name, stand_in, monkeypatch):
    """Each row's other values stay finite, so only the side condition gives inf."""
    monkeypatch.setattr(owner, name, stand_in)
    check = verify_check(check_id)
    assert check(PuParams.from_frequencies(2.0, 1.0), np.random.default_rng(5), None)[:2] == (
        False, math.inf)
