"""The three workloads: inputs made from the seed, one operation, its check.

Each workload is a closed loop of one caller: ``run(i)`` performs operation
``i`` and returns its exit status, ``check(i)`` checks that operation's
output against ``checks``, and ``finish()`` makes any check that needs more
than one operation.  Inputs are drawn once, in the constructor, from
``--seed`` alone; operations cycle through them.

Operations reach puosc only through ``puosc.cli.main`` and the names the
``puosc`` package exports, looked up at call time so that the tracer's
wrappers see every call.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import checks
from common import check_puosc_origin, use_checkout_src

use_checkout_src()
import puosc  # noqa: E402  (must come from the checkout's src)
import puosc.cli  # noqa: E402
from puosc.errors import SingularStructureError  # noqa: E402

check_puosc_origin(puosc)

OMEGA = (2.0, 1.0)

# Seeds 0-39 whose `verify --omega1 2 --omega2 1` report passes, from
# `python3 perfbench/seedscan.py --first 0 --count 40`.  The other 23 crash
# or fail a check (see CHANGES.md); they stay out rather than count as
# failed operations, because a crashed report stops at check 6 of 30 and
# would make the fix look like a slowdown.
VERIFY_SEEDS = (5, 6, 7, 10, 11, 12, 15, 16, 19, 20, 21, 23, 24, 25, 30, 33, 36)


class Verify:
    """`puosc verify` at omega = (2, 1), cycling through VERIFY_SEEDS."""

    def __init__(self, seed: int, out_dir: str):
        self.seeds = [VERIFY_SEEDS[(seed + k) % len(VERIFY_SEEDS)] for k in range(len(VERIFY_SEEDS))]
        self.out = os.path.join(out_dir, f"verify-{seed}.json")
        self.first_bytes = None

    def argv(self, i: int, out: str) -> list[str]:
        return ["verify", "--omega1", str(OMEGA[0]), "--omega2", str(OMEGA[1]),
                "--seed", str(self.seeds[i % len(self.seeds)]), "--out", out]

    def run(self, i: int) -> int:
        return puosc.cli.main(self.argv(i, self.out))

    def output_bytes(self) -> int:
        return os.path.getsize(self.out)

    def check(self, i: int) -> None:
        with open(self.out, "rb") as fh:
            data = fh.read()
        checks.check_verify_report(data, self.seeds[i % len(self.seeds)])
        if i == 0:
            self.first_bytes = data

    def finish(self) -> None:
        """A second report at the first operation's seed is byte-identical."""
        if self.first_bytes is None:
            return
        again = self.out + ".again"
        if puosc.cli.main(self.argv(0, again)) != 0:
            raise checks.CheckFailed("second verify report at the same seed failed")
        with open(again, "rb") as fh:
            checks.check_same_bytes(self.first_bytes, fh.read(), "verify report")


class Simulate:
    """`puosc simulate` with a quartic potential, amplitudes drawn from the seed."""

    H = 1e-3
    T_END = 20.0
    LAM = 0.25
    # Largest |amplitude| drawn.  At omega = (2, 1) and lam = 0.25 these
    # trajectories stay bounded to t = 20 and conserve the interacting
    # energy within the 1e-8 drift bound.
    AMPLITUDE = 0.5
    POOL = 16

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng([seed, 2])
        self.amplitudes = rng.uniform(-self.AMPLITUDE, self.AMPLITUDE, (self.POOL, 4))
        self.out = os.path.join(out_dir, f"simulate-{seed}.csv")
        p = puosc.PuParams.from_frequencies(*OMEGA)
        self.alpha, self.beta = p.alpha, p.beta

    def run(self, i: int) -> int:
        a1, a2, b1, b2 = (repr(float(x)) for x in self.amplitudes[i % self.POOL])
        return puosc.cli.main([
            "simulate", "--omega1", str(OMEGA[0]), "--omega2", str(OMEGA[1]),
            "--potential", f"quartic:lam={self.LAM}", "--h", repr(self.H),
            "--t-end", repr(self.T_END), "--A1", a1, "--A2", a2, "--B1", b1, "--B2", b2,
            "--out", self.out])

    def output_bytes(self) -> int:
        return os.path.getsize(self.out)

    def check(self, i: int) -> None:
        with open(self.out) as fh:
            checks.check_simulate_csv(fh, self.alpha, self.beta, self.LAM, self.H, self.T_END)

    def finish(self) -> None:
        pass


@dataclass(frozen=True)
class StructurePoint:
    """One nondegenerate parameter point and the arguments drawn for it."""

    w1: float
    w2: float
    c1: float
    c2: float
    ax: float
    ay: float
    g: float
    bx: float
    by: float
    amplitudes: tuple
    t: float
    s: float


def structure_point(rng) -> StructurePoint:
    """Draw a point at which every catalog kind builds.

    w1 > w2 keeps the frequencies apart, so alpha^2 - 4 beta >= 1.56 exceeds
    the 4 g^2 / |ax ay| <= 1 that Ta2 subtracts under its square root; c2 and
    bx stay at least 0.2*|c1| and 0.2*|ax| from c1*w_i^2 and ax*w_i^2, the
    zeros of the combination and Tb1 denominators.
    """
    def signed(lo, hi):
        return float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))

    w1, w2 = float(rng.uniform(1.5, 2.5)), float(rng.uniform(0.4, 1.0))
    lo, hi = w2 * w2 + 0.2, w1 * w1 - 0.2
    ratios = (float(rng.uniform(lo, hi)), float(rng.uniform(hi + 0.4, hi + 2.0)))
    c1 = signed(0.5, 2.0)
    ax = signed(0.6, 1.5)
    return StructurePoint(
        w1=w1, w2=w2, c1=c1, c2=c1 * ratios[int(rng.integers(0, 2))],
        ax=ax, ay=signed(0.6, 1.5), g=signed(0.05, 0.3),
        bx=ax * float(rng.uniform(lo, hi)), by=signed(0.6, 1.5),
        amplitudes=tuple(float(a) for a in rng.uniform(-1.0, 1.0, 4)),
        t=float(rng.uniform(0.0, 10.0)), s=float(rng.uniform(0.0, 2.0)))


KINDS = checks.REFUSING_KINDS + checks.ADMITTING_KINDS
# structure_discovery runs at omega = (2, 1), not at the drawn point: at
# about one drawn point in 5000 it raises "Poisson tensor is not
# antisymmetric" (see CHANGES.md), which would make the failed share of a
# run depend on the seed.
DISCOVERY_PARAMS = puosc.PuParams.from_frequencies(*OMEGA)


def structure_operation(pt: StructurePoint) -> checks.StructureResult:
    """One pass of the exported structure API over a parameter point."""
    p = puosc.PuParams.from_frequencies(pt.w1, pt.w2)
    solved = puosc.solve_symmetries(p)
    standard = puosc.standard_basis(p)
    ladder = puosc.charge_ladder(p, 6)
    for charge in ladder.charges:
        puosc.coefficients_on_h1h2(p, charge)
    puosc.combine(p, pt.c1, pt.c2)
    puosc.pd_window(p, pt.c1, pt.c2)
    puosc.pd_decompose(p, pt.c1, pt.c2)
    refused = {}
    for kind in KINDS:
        if kind.startswith("Ta"):
            spec = puosc.build(kind, p, ax=pt.ax, ay=pt.ay, g=pt.g)
        elif kind == "Tb1":
            spec = puosc.build(kind, p, ax=pt.ax, bx=pt.bx, g=pt.g)
        else:
            spec = puosc.build(kind, p, ax=pt.ax, by=pt.by, g=pt.g)
        c1, c2 = puosc.pullback_hamiltonian(spec, p)
        try:
            tensor = puosc.flow_preserving_tensor(p, c1, c2)
        except SingularStructureError:
            refused[kind] = True
            continue
        refused[kind] = False
        puosc.pushforward_brackets(spec, tensor)
    discovered = puosc.structure_discovery(DISCOVERY_PARAMS)
    sol = puosc.ClassicalSolution(p, pt.amplitudes, "nondegenerate")
    start = puosc.eval_solution(sol, pt.t)
    flows = [(puosc.closed_form_flow(name, "nondegenerate", pt.amplitudes, p, pt.t, pt.s).as_array(),
              puosc.group_flow(gen, pt.s, start).as_array())
             for name, gen in zip(("X2", "X3", "X4"), standard[1:])]
    return checks.StructureResult(
        alpha=p.alpha, beta=p.beta,
        solved=[g.matrix for g in solved], standard=[g.matrix for g in standard],
        ladder=[h.matrix for h in ladder.charges],
        pairs=[(j.matrix, h.matrix) for j, h in discovered.pairs],
        pairs_params=(DISCOVERY_PARAMS.alpha, DISCOVERY_PARAMS.beta),
        refused=refused, flows=flows)


class StructureScan:
    """The exported structure API over parameter points drawn from the seed."""

    POOL = 256

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng([seed, 3])
        self.points = [structure_point(rng) for _ in range(self.POOL)]
        self.result = None

    def run(self, i: int) -> int:
        self.result = structure_operation(self.points[i % self.POOL])
        return 0

    def output_bytes(self) -> int:
        return 0

    def check(self, i: int) -> None:
        checks.check_structure(self.result)

    def finish(self) -> None:
        pass


WORKLOADS = {"verify": Verify, "simulate": Simulate, "structure-scan": StructureScan}
