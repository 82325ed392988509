import os
import subprocess
import sys

import numpy as np
import pytest

from puosc.core import PuParams

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env_extra=None):
    """Run `python -m puosc ARGS` against this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "puosc", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="session")
def verify_runs(tmp_path_factory):
    """(exit code, report bytes) of two identical `puosc verify --seed 42` runs.

    Session-scoped so the acceptance and CLI suites share one pair of
    subprocesses.
    """
    out = tmp_path_factory.mktemp("verify")
    runs = []
    for name in ("r1.json", "r2.json"):
        path = out / name
        proc = run_cli("verify", "--omega1", "2", "--omega2", "1", "--seed", "42",
                       "--out", str(path))
        assert path.exists(), f"verify exited {proc.returncode} without a report: {proc.stderr}"
        runs.append((proc.returncode, path.read_bytes()))
    return runs


@pytest.fixture
def p54():
    """alpha = 5, beta = 4, i.e. omega = (2, 1)."""
    return PuParams.from_frequencies(2.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
