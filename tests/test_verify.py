"""The draw loop behind the verify registry, and the report bytes it yields."""
import hashlib
import math
import os
import platform

import numpy as np
import pytest

from conftest import PKG_ROOT, run_cli
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
