"""Write a fixed set of puosc outputs for byte-for-byte comparison.

    python3 tools/snapshot.py OUTDIR

runs this checkout's ``puosc.cli.main`` (from the ``src`` next to this
script) and writes 71 files into OUTDIR:

- ``verify-S.json``: the 40 ``verify --omega1 2 --omega2 1 --seed S``
  reports, S = 0..39;
- ``simulate-K.csv``: 16 quartic ``simulate`` trajectories at omega = (2, 1),
  h = 1e-3, t_end = 20, with the amplitude sets the ``simulate`` benchmark
  draws for its seed 1, and ``simulate-readme.csv``, the README example;
- ``simulate-small.csv``, a quartic trajectory of amplitude 1e-6, whose cells
  are almost all in ``e-0X`` notation, and ``simulate-blow-up.csv``, the
  README's diverging example, with ``inf``, ``-inf`` and ``e+244`` cells;
- ``hierarchy.csv``, ``hierarchy.json``, three ``transform-*.json`` reports,
  ``discover.json``, three ``flow-*.csv`` curves, ``flow-zero.csv``, a
  20,001-row zero-amplitude curve whose cells are ``0`` but for its times,
  ``flow-long.csv``, a 20,001-row X3 curve, and ``flow-degenerate.csv``, an
  X4 curve at omega = (1, 1) with its secular term.

It prints a ``# python X numpy Y`` header, then one ``sha256 name exit-code``
line per command.  ``tools/snapshot.sha256`` is that output, committed; to
check that the outputs match it, run

    python3 tools/snapshot.py /tmp/s | diff tools/snapshot.sha256 -

(21 s on a 2-core 2.1 GHz Xeon shared with other jobs, Python 3.11 and
numpy 2.4).  A change that moves outputs on purpose commits the new
manifest, so its diff names exactly the files that moved.
"""
import contextlib
import hashlib
import io
import os
import platform
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from puosc import cli  # noqa: E402

OMEGA = ["--omega1", "2", "--omega2", "1"]
QUARTIC = ["--potential", "quartic:lam=0.25", "--h", "0.001", "--t-end", "20.0"]


def commands():
    """(file name, argv without --out) for every snapshot file."""
    for seed in range(40):
        yield f"verify-{seed}.json", ["verify", *OMEGA, "--seed", str(seed)]
    amplitudes = np.random.default_rng([1, 2]).uniform(-0.5, 0.5, (16, 4))
    for k, amps in enumerate(amplitudes):
        flags = [x for name, a in zip(("--A1", "--A2", "--B1", "--B2"), amps)
                 for x in (name, repr(float(a)))]
        yield f"simulate-{k:02d}.csv", ["simulate", *OMEGA, *QUARTIC, *flags]
    yield "simulate-readme.csv", ["simulate", *OMEGA, "--A1", "0.3", *QUARTIC]
    yield "simulate-small.csv", ["simulate", *OMEGA, "--A1", "1e-6", "--B2", "3e-7", *QUARTIC]
    yield "simulate-blow-up.csv", ["simulate", "--omega1", "1", "--omega2", "1", "--B1", "1",
                                   *QUARTIC]
    yield "hierarchy.csv", ["hierarchy", "--n", "6", "--alpha", "5", "--beta", "4"]
    yield "hierarchy.json", ["hierarchy", "--n", "8", "--alpha", "-1.5", "--beta", "0.7",
                             "--format", "json"]
    yield "transform-Tb1.json", ["transform", "--kind", "Tb1", *OMEGA, "--ax", "1", "--bx", "0",
                                 "--g", "1"]
    yield "transform-Ta1+.json", ["transform", "--kind", "Ta1+", *OMEGA, "--ax", "1", "--ay", "1",
                                  "--g", "0.2"]
    yield "transform-Tb2-.json", ["transform", "--kind", "Tb2-", *OMEGA, "--ax", "0.7",
                                  "--by", "-1.3", "--g", "0.4"]
    yield "discover.json", ["discover", "--alpha", "5", "--beta", "4"]
    for gen in ("X2", "X3", "X4"):
        yield f"flow-{gen}.csv", ["flow", *OMEGA, "--generator", gen, "--s", "0.7",
                                  "--A1", "1", "--B2", "-0.4", "--steps", "50"]
    yield "flow-zero.csv", ["flow", *OMEGA, "--steps", "20000"]
    yield "flow-long.csv", ["flow", *OMEGA, "--generator", "X3", "--s", "0.7", "--A1", "1",
                            "--B2", "-0.4", "--steps", "20000", "--t-end", "20"]
    yield "flow-degenerate.csv", ["flow", "--omega1", "1", "--omega2", "1", "--generator", "X4",
                                  "--s", "0.5", "--A1", "1", "--B1", "0.3", "--steps", "2000"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = argv[0]
    os.makedirs(out_dir, exist_ok=True)
    print(f"# python {platform.python_version()} numpy {np.__version__}")
    for name, args in commands():
        path = os.path.join(out_dir, name)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*args, "--out", path])
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        print(digest, name, code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
