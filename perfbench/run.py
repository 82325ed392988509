"""Benchmark of puosc: three closed-loop workloads timed against a reference kernel.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``verify`` (the 30-check certification report),
``simulate`` (RK4 with a quartic potential, CSV output) and
``structure-scan`` (the exported structure API at drawn parameter points).
One caller runs operations back to back for ``--seconds`` and checks every
output against computations made apart from the program.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics ``op_ms``, ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` the run spends half its time untraced and half with the
tracer installed, and reports the per-layer metrics instead.  Exit code 2
means the checkout cannot be benchmarked; no result is printed then.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from calib import (REFERENCE_STARTUP, SpeedSampler, calibrated_ms, calibrated_startup_s,
                   time_kernel, time_startup)
from checks import CheckFailed
from common import BENCH_DIR, OUT, SetupError, median, use_checkout_src

WORKLOADS = ("verify", "simulate", "structure-scan")
# Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 7


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Start SETUP_SAMPLES fresh benchmark processes one at a time, each
    between two reference start-ups, and time each from spawn to ready."""
    probe = (sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload, str(seed))
    ref_before, _ = time_startup(REFERENCE_STARTUP)
    samples = []
    for _ in range(SETUP_SAMPLES):
        wall, line = time_startup(probe)
        ref_after, _ = time_startup(REFERENCE_STARTUP)
        reference = (ref_before + ref_after) / 2
        ref_before = ref_after
        imports = json.loads(line)
        samples.append({
            "setup_s": calibrated_startup_s(wall, reference),
            "import_numpy_ms": 1000.0 * calibrated_startup_s(imports["import_numpy_s"], reference),
            "import_puosc_ms": 1000.0 * calibrated_startup_s(imports["import_puosc_s"], reference)})
    return samples


class Phase:
    """What one timed loop saw: per-operation wall and kernel times, outcomes."""

    def __init__(self):
        self.walls = {}          # operation -> wall seconds less kernel slices (successful ones)
        self.kernels = {}        # operation -> kernel estimate around and during it
        self.slices = {}         # operation -> (start, seconds) of the kernel slices inside it
        self.attempted = 0
        self.failed = 0
        self.wrong = []          # check failures
        self.output_bytes = 0    # size of operation 0's output

    def op_ms(self) -> float:
        return median(calibrated_ms(self.walls[i], self.kernels[i]) for i in self.walls)

    def raw_op_ms(self) -> float:
        return median(w * 1000.0 for w in self.walls.values())


def run_phase(wl, seconds: float, tracer=None) -> Phase:
    """Operations 0, 1, ... back to back until ``seconds`` have passed.

    A reference kernel runs between operations and slices of it run during
    them; each operation is calibrated by the mean of the kernels on either
    side of it and the slices inside it, whose time is not counted.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    before = time_kernel()
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = i
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            try:
                status = wl.run(i)
            except SystemExit as exc:        # argparse rejected the arguments
                status = f"exit {exc.code}"
            except Exception:                # the operation failed; keep measuring
                status = traceback.format_exc()
            wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        after = time_kernel()
        phase.attempted += 1
        if status == 0:
            phase.walls[i] = wall - sampler.busy()
            phase.kernels[i] = sampler.kernel_estimate(before, after)
            phase.slices[i] = sampler.slices
            if i == 0:
                phase.output_bytes = wl.output_bytes()
            try:
                wl.check(i)
            except CheckFailed as exc:
                phase.wrong.append(f"operation {i}: {exc}")
        else:
            phase.failed += 1
            log(f"operation {i} failed: {status}")
        before = after
        i += 1
    return phase


def per_layer(wl, workload: str, seed: int, seconds: float,
              setup: list[dict]) -> tuple[dict, list[Phase]]:
    """Untraced half, traced half, then (on verify) the check replay."""
    import tracing

    base = run_phase(wl, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_phase(wl, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    if not traced.walls or not base.walls:
        raise SetupError("no operation succeeded")
    values = tracing.layer_metrics(tracer, traced.kernels, traced.slices)
    values["cli.output_bytes"] = traced.output_bytes
    values["trace.overhead_ms"] = traced.op_ms() - base.op_ms()
    values["setup.import_numpy_ms"] = median(s["import_numpy_ms"] for s in setup)
    values["setup.import_puosc_ms"] = median(s["import_puosc_ms"] for s in setup)
    check_ms = verify_check_ms(wl) if workload == "verify" else None
    for check_id in tracing.VERIFY_CHECK_IDS:
        values[f"verify.check_ms.{check_id}"] = (
            0.0 if workload != "verify" else (check_ms or {}).get(check_id, tracing.UNMEASURED))
    unmeasured = sorted(k for k, v in values.items() if v == tracing.UNMEASURED)
    if unmeasured:
        log(f"unmeasured, reported as {tracing.UNMEASURED}: {', '.join(unmeasured)}")
    path = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    tracer.write(path)
    log(f"op_ms traced {traced.op_ms():.4f}, untraced {base.op_ms():.4f}; spans in {path}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.metric_units().items()}
    return metrics, [base, traced]


def verify_check_ms(wl) -> dict | None:
    """Calibrated ms of each verify check, replayed at the first report's
    seed; None when the replay cannot stand for the report."""
    import tracing
    import workloads

    if wl.first_bytes is None:
        return None
    before = time_kernel()
    try:
        walls = tracing.replay_verify_checks(
            workloads.puosc.PuParams.from_frequencies(*workloads.OMEGA), wl.seeds[0],
            json.loads(wl.first_bytes)["checks"])
    except ValueError as exc:
        log(str(exc))
        return None
    kernel = (before + time_kernel()) / 2
    return None if walls is None else {c: calibrated_ms(w, kernel) for c, w in walls.items()}


def end_to_end(wl, seconds: float, setup: list[dict]) -> tuple[dict, list[Phase]]:
    phase = run_phase(wl, seconds)
    if not phase.walls:
        raise SetupError("no operation succeeded")
    log(f"{len(phase.walls)} operations, raw median {phase.raw_op_ms():.3f} ms, "
        f"kernel median {median(phase.kernels.values()) * 1000:.3f} ms")
    metrics = {
        "op_ms": {"value": phase.op_ms(), "unit": "ms"},
        "setup_s": {"value": median(s["setup_s"] for s in setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    return metrics, [phase]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="puosc benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        use_checkout_src()
        setup = measure_setup(args.workload, args.seed)
        import workloads

        os.makedirs(OUT, exist_ok=True)
        wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
        if args.trace:
            metrics, phases = per_layer(wl, args.workload, args.seed, args.seconds, setup)
        else:
            metrics, phases = end_to_end(wl, args.seconds, setup)
        wrong = [w for p in phases for w in p.wrong]
        try:
            wl.finish()
        except CheckFailed as exc:
            wrong.append(str(exc))
    except SetupError as exc:
        log(f"error: {exc}")
        return 2
    for message in wrong:
        log(f"wrong output: {message}")
    print(json.dumps({"correct": not wrong,
                      "attempted": sum(p.attempted for p in phases),
                      "failed": sum(p.failed for p in phases),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
