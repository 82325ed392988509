"""Reference kernel and the calibration of wall times against it.

The machine this benchmark was built on changes speed in phases: the same
operation can take twice as long in one process as in the next, with CPU
time equal to wall time.  Each timed operation is therefore bracketed by a
reference kernel, a fixed loop of 4x4 numpy matvecs and Python float
arithmetic with the same mix of interpreter and small-array work as puosc,
and sampled by slices of that kernel while it runs (``SpeedSampler``); its
wall time, less the slices, is reported in units of the kernel:

    calibrated_ms = op_wall_s / kernel_wall_s * NOMINAL_KERNEL_MS

The kernel imports nothing from puosc, so a change to the program cannot
change the yardstick.

Set-up time is calibrated the same way against a different yardstick, a
reference start-up: a fresh interpreter that imports numpy.  Process start
and imports slow down in the machine's slow phases by a different factor
than the kernel loop, so the kernel does not cancel their phases; the
reference start-up does the same kind of work and does.
"""
from __future__ import annotations

import math
import signal
import subprocess
import sys
import time

import numpy as np

from common import ROOT, SetupError

KERNEL_STEPS = 1000
# Median wall time of reference_kernel() in the fast phase of the machine
# the benchmark was calibrated on (2 vCPU Xeon, Python 3.11.7, numpy 2.4.6;
# its slow phase reads about 14 ms).  It only fixes the unit: a calibrated
# time reads as "ms on that machine in its fast phase".
NOMINAL_KERNEL_MS = 7.0

_ROT = np.array([
    [math.cos(0.3), -math.sin(0.3), 0.0, 0.0],
    [math.sin(0.3), math.cos(0.3), 0.0, 0.0],
    [0.0, 0.0, math.cos(0.7), -math.sin(0.7)],
    [0.0, 0.0, math.sin(0.7), math.cos(0.7)],
])
_V0 = np.array([1.0, 0.5, -0.25, 0.125])


def reference_kernel(steps: int = KERNEL_STEPS) -> float:
    """Fixed work: ``steps`` rotations of a 4-vector plus scalar arithmetic."""
    v = _V0.copy()
    acc = 0.0
    for i in range(steps):
        k1 = _ROT @ v
        k2 = _ROT @ (v + 0.5 * k1)
        v = 0.5 * (k1 + k2) / math.sqrt(float(k2 @ k2) + 1.0) + 0.5 * v
        acc = 0.999 * acc + float(v[0]) * 0.25 - float(v[3]) * 1e-3 + i * 1e-9
    return acc


class SpeedSampler:
    """Samples the machine's speed during an operation.

    While active, a SIGALRM handler runs a slice of the reference kernel
    (SLICE_STEPS steps) every INTERVAL_S of wall time.  The handler runs in
    the main thread between bytecodes of the operation, so its time is
    recorded and later subtracted from the operation's wall time.  Kernels
    timed only between operations miss the speed changes inside a
    multi-second operation.
    """

    INTERVAL_S = 0.05
    SLICE_STEPS = 200

    def __init__(self):
        self.slices = []        # (start, wall seconds) of each slice, in order
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel(self.SLICE_STEPS)
        self.slices.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def busy(self) -> float:
        """Wall seconds the slices took away from the operation."""
        return sum(seconds for _, seconds in self.slices)

    def kernel_estimate(self, before: float, after: float) -> float:
        """Mean full-kernel wall time over the kernels on either side of the
        operation and the slices inside it, each scaled to KERNEL_STEPS."""
        scale = KERNEL_STEPS / self.SLICE_STEPS
        samples = [before, after] + [seconds * scale for _, seconds in self.slices]
        return sum(samples) / len(samples)


def time_kernel() -> float:
    """Wall seconds of one reference_kernel() call."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def calibrated_ms(op_wall_s: float, kernel_wall_s: float) -> float:
    """Operation time in nominal-kernel milliseconds."""
    if op_wall_s < 0.0 or kernel_wall_s <= 0.0:
        raise ValueError("wall times must be non-negative and the kernel's positive")
    return op_wall_s / kernel_wall_s * NOMINAL_KERNEL_MS


REFERENCE_STARTUP = (sys.executable, "-c", "import numpy; print('ready', flush=True)")
# Median wall time of the reference start-up, same machine and phase.
NOMINAL_STARTUP_S = 0.095


def time_startup(argv) -> tuple[float, str]:
    """Wall seconds from spawning ``argv`` until it prints its first line,
    and that line.  Waits for the process to end before returning."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or not line:
        raise SetupError(f"{argv[1]} exited {proc.returncode}: {err.strip()[-400:]}")
    return wall, line


def calibrated_startup_s(wall_s: float, reference_s: float) -> float:
    """Start-up time in nominal reference start-ups, expressed in seconds."""
    if wall_s < 0.0 or reference_s <= 0.0:
        raise ValueError("wall times must be non-negative and the reference's positive")
    return wall_s / reference_s * NOMINAL_STARTUP_S
