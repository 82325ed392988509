import contextlib
import io
import os
import subprocess
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from puosc import cli
from puosc.core import PuParams

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env_extra=None):
    """Run `puosc ARGS` in this process through `cli.main`.

    stdout and stderr are captured, ``env_extra`` is set in the environment
    for the call only, and an uncaught exception is printed as a traceback
    with exit code 1, as the interpreter would.  Returns a CompletedProcess.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = {key: os.environ.get(key) for key in env_extra or {}}
    os.environ.update(env_extra or {})
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key)
            else:
                os.environ[key] = value
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def run_cli_process(*args, env_extra=None):
    """Run `python -m puosc ARGS` in a subprocess against this checkout's src."""
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
    subprocesses, which run at the same time.
    """
    out = tmp_path_factory.mktemp("verify")
    paths = [out / "r1.json", out / "r2.json"]

    def run(path):
        return run_cli_process("verify", "--omega1", "2", "--omega2", "1", "--seed", "42",
                               "--out", str(path))

    with ThreadPoolExecutor(len(paths)) as pool:
        procs = list(pool.map(run, paths))
    runs = []
    for path, proc in zip(paths, procs):
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


def arrays_of(value):
    """The matrices of a memoized structure: an array, a form or tensor, or
    a tuple of generators."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [item.matrix for item in value]
    return [value.matrix]


def assert_memoized(fn, make_params):
    """fn(p) returns one shared object per params instance, read-only and
    byte-identical to a fresh build on a new, equal instance."""
    p = make_params()
    first = fn(p)
    assert fn(p) is first
    fresh = fn.__wrapped__(make_params())
    assert ([a.tobytes() for a in arrays_of(first)]
            == [a.tobytes() for a in arrays_of(fresh)])
    for a in arrays_of(first):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
