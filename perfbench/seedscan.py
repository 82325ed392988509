"""Scan verify seeds: which crash, which fail a check, which pass.

Rebuilds the ``verify`` workload's seed list and the evidence behind the
faults it leaves out:

    python3 perfbench/seedscan.py --first 0 --count 40

Each seed runs ``puosc.verify.run_verification`` once in this process, at
the workload's ``workloads.OMEGA``.  The last line is the list of passing
seeds, ready to paste into ``workloads.VERIFY_SEEDS``.
"""
from __future__ import annotations

import argparse
import sys

from common import SetupError, use_checkout_src


def scan(seeds) -> dict[int, tuple[str, str]]:
    """Map each seed to ("pass" | "fail" | "crash", detail) at ``workloads.OMEGA``."""
    import puosc
    from puosc.errors import PuError
    from puosc.verify import run_verification
    from workloads import OMEGA

    p = puosc.PuParams.from_frequencies(*OMEGA)
    outcome = {}
    for seed in seeds:
        try:
            report = run_verification(p, seed=seed)
        except PuError as exc:
            outcome[seed] = ("crash", f"{type(exc).__name__}: {exc}")
            continue
        failed = [f"{c['id']} ({c['residual']:.2e})" for c in report["checks"] if not c["pass"]]
        outcome[seed] = ("pass", "") if report["pass"] else ("fail", ", ".join(failed))
    return outcome


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--count", type=int, default=40)
    args = ap.parse_args(argv)
    try:
        use_checkout_src()
        outcome = scan(range(args.first, args.first + args.count))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for seed, (status, detail) in outcome.items():
        print(f"seed {seed:4d}  {status:5s}  {detail}".rstrip(), flush=True)
    counts = {s: sum(1 for st, _ in outcome.values() if st == s) for s in ("pass", "fail", "crash")}
    print(f"{counts['pass']} pass, {counts['fail']} fail, {counts['crash']} crash "
          f"of {len(outcome)} seeds")
    print(sorted(seed for seed, (st, _) in outcome.items() if st == "pass"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
