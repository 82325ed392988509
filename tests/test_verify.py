"""The draw loop behind the verify registry, the nan-keeping maxima of
its checks, and the report bytes they yield."""
import hashlib
import itertools
import math
import os
import platform
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import PKG_ROOT, run_cli
from puosc import dynamics, hierarchy, transform, verify
from puosc.core import PuParams
from puosc.verify import _over_draws, _worst


def _replay(draws):
    """A measure that returns the given draws in turn."""
    values = iter(draws)
    return lambda rng: next(values)


class TestWorst:
    def test_none_is_redrawn_and_not_counted(self):
        draws = [None, [0.2], None, None, [0.4, 0.1]]
        measure = _replay(draws + [[9.0]])
        assert _worst(None, 2, measure) == 0.4
        assert measure(None) == [9.0]  # nothing drawn past the second counted draw

    def test_draws_as_the_loop_it_replaced(self):
        def measure(rng):
            # below 0.3 a redraw, below 0.5 a counted draw without values
            x = rng.uniform()
            return None if x < 0.3 else [] if x < 0.5 else [x]

        got, ref = np.random.default_rng(8), np.random.default_rng(8)
        worst = _worst(got, 20, measure, measure)
        # the loop each check wrote out before, once per measure
        best = 0.0
        for _ in range(2):
            n = 0
            while n < 20:
                x = ref.uniform()
                if x < 0.3:
                    continue
                if x >= 0.5:
                    best = max(best, x)
                n += 1
        assert worst == best > 0.5
        assert got.uniform() == ref.uniform()

    def test_no_values_give_zero(self):
        assert _worst(None, 5, lambda rng: ()) == 0.0

    @pytest.mark.parametrize("draws", [[[math.nan], [0.5]], [[0.5], [math.nan]],
                                       [[0.5, math.nan, 0.1], [0.2]]],
                             ids=["first", "after-a-value", "inside-a-draw"])
    def test_nan_is_kept_and_fails_the_check(self, draws):
        assert math.isnan(_worst(None, 2, _replay(draws)))
        passed, residual, samples = _over_draws(2, 1.0, _replay(draws))(None, None, 1e-9)
        assert passed is False and math.isnan(residual) and samples == 2

    def test_samples_count_each_measure(self):
        check = _over_draws(4, 0.5, lambda rng: [0.5], lambda rng: [0.25])
        assert check(None, None, 1e-9) == (True, 0.5, 8)


def _manifest():
    """(header, {name: (sha256, exit code)}) of tools/snapshot.sha256."""
    with open(os.path.join(PKG_ROOT, "tools", "snapshot.sha256")) as handle:
        header, *lines = handle.read().splitlines()
    return header, {name: (digest, int(code))
                    for digest, name, code in (line.split() for line in lines)}


@pytest.mark.parametrize("seed, code", [(5, 0), (3, 1)])
def test_verify_bytes_match_the_snapshot_manifest(seed, code, tmp_path):
    """A slip in the order of verify's draws moves these bytes, though two
    runs of one build still agree with each other."""
    header, digests = _manifest()
    running = f"# python {platform.python_version()} numpy {np.__version__}"
    if header != running:
        pytest.skip(f"manifest written under '{header[2:]}', running '{running[2:]}'")
    out = tmp_path / "report.json"
    r = run_cli("verify", "--omega1", "2", "--omega2", "1", "--seed", str(seed), "--out", str(out))
    assert r.returncode == code
    assert (hashlib.sha256(out.read_bytes()).hexdigest(), code) == digests[f"verify-{seed}.json"]


def _nan_on_call(monkeypatch, owner, name, call, nan=math.nan):
    """Patch owner.name so that its call-th call returns nan instead."""
    real, calls = getattr(owner, name), itertools.count(1)
    monkeypatch.setattr(owner, name,
                        lambda *args: nan if next(calls) == call else real(*args))


class TestNanFails:
    """A nan that an inner measure returns after finite values makes its
    check fail with a nan residual; ``max(worst, x)`` dropped it."""

    def assert_fails_on_nan(self, check):
        passed, residual, _ = check(PuParams.from_frequencies(2.0, 1.0),
                                    np.random.default_rng(5), 1e-9)
        assert passed is False and math.isnan(residual)

    def test_commutant(self, monkeypatch):
        _nan_on_call(monkeypatch, verify, "_span_residual", 3)
        self.assert_fails_on_nan(verify._check_commutant)

    def test_flow_tensor(self, monkeypatch):
        _nan_on_call(monkeypatch, transform, "canonical_bracket_residual", 3)
        self.assert_fails_on_nan(verify._check_flow_tensor)

    def test_positivity_pieces(self, monkeypatch):
        _nan_on_call(monkeypatch, verify, "_reassembly", 3, nan=(0.0, math.nan))
        self.assert_fails_on_nan(verify._check_positivity_pieces)

    def test_rk4_trajectory(self, monkeypatch):
        real = verify._reference_orbit

        def orbit(pp):
            traj = real(pp)
            states = traj.states.copy()
            states[400, 1] = math.nan  # the third sampled row
            return dynamics.Trajectory(traj.times, states)
        monkeypatch.setattr(verify, "_reference_orbit", orbit)
        self.assert_fails_on_nan(verify._check_rk4)

    def test_conservation_drift(self, monkeypatch):
        real, calls = dynamics.conservation_report, itertools.count(1)

        def report(*args, **kwargs):
            drifts = real(*args, **kwargs)
            return drifts[:-1] + [math.nan] if next(calls) == 1 else drifts
        monkeypatch.setattr(dynamics, "conservation_report", report)
        self.assert_fails_on_nan(verify._check_conservation)

    def test_involution(self, monkeypatch):
        nan_bracket = SimpleNamespace(matrix=np.full((4, 4), math.nan))
        _nan_on_call(monkeypatch, hierarchy, "quad_bracket", 3, nan=nan_bracket)
        assert math.isnan(hierarchy.involution_residual(PuParams(5.0, 4.0)))
        _nan_on_call(monkeypatch, hierarchy, "quad_bracket", 3, nan=nan_bracket)
        self.assert_fails_on_nan(
            {check_id: fn for check_id, _, fn in verify.CHECKS}["hierarchy.involution"])

    def test_interaction_separation(self, monkeypatch):
        real = dynamics.interaction_compatibility

        def compatibility(*args, **kwargs):
            rep = real(*args, **kwargs)
            residuals = rep.residuals.copy()
            residuals[min(set(range(len(residuals))) - set(rep.compatible))] = math.nan
            return dynamics.CompatibilityReport(rep.angles, residuals, rep.scale,
                                                rep.compatible, rep.compatible_ray)
        monkeypatch.setattr(dynamics, "interaction_compatibility", compatibility)
        self.assert_fails_on_nan(verify._check_interaction_unique)
