"""Paths and small statistics shared by the benchmark's scripts.

Nothing here imports puosc: the benchmark puts the checkout's own ``src``
first on ``sys.path`` (``use_checkout_src``) so that it always measures the
source tree it was run from, never an installed copy.
"""
from __future__ import annotations

import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (for example, it has no puosc source)."""


def use_checkout_src() -> None:
    """Make ``import puosc`` resolve to ``<checkout>/src/puosc`` or fail."""
    if not os.path.isfile(os.path.join(SRC, "puosc", "__init__.py")):
        raise SetupError(f"no puosc source under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def check_puosc_origin(module) -> None:
    """Refuse a puosc that was imported from anywhere but the checkout."""
    origin = os.path.dirname(os.path.abspath(module.__file__))
    if origin != os.path.join(SRC, "puosc"):
        raise SetupError(f"puosc imported from {origin}, not from {SRC}")


def median(values) -> float:
    return float(statistics.median(values))
