import os
import signal
import subprocess
import sys
import time

import pytest

import calib
from common import BENCH_DIR


def test_calibrated_ms_is_op_time_in_kernel_units():
    assert calib.calibrated_ms(0.02, 0.01) == pytest.approx(2 * calib.NOMINAL_KERNEL_MS)
    assert calib.calibrated_ms(0.0, 0.01) == 0.0


def test_calibration_cancels_a_uniform_slowdown():
    fast = calib.calibrated_ms(0.150, 0.012)
    slow = calib.calibrated_ms(0.150 * 1.9, 0.012 * 1.9)
    assert slow == pytest.approx(fast)


@pytest.mark.parametrize("op, kernel", [(-0.1, 0.01), (0.1, 0.0), (0.1, -0.01)])
def test_calibrated_ms_rejects_impossible_times(op, kernel):
    with pytest.raises(ValueError):
        calib.calibrated_ms(op, kernel)


def test_reference_kernel_does_fixed_work():
    assert calib.reference_kernel(200) == calib.reference_kernel(200)
    assert calib.time_kernel() > 0.0


def test_reference_kernel_imports_no_puosc():
    code = "import calib, sys; print(sorted(m for m in sys.modules if m.startswith('puosc')))"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR, capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": ""})
    assert out.stdout.strip() == "[]"


def test_speed_sampler_slices_a_long_operation_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with calib.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            calib.reference_kernel(50)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.slices) >= 3
    assert 0.0 < sampler.busy() < 0.4
    slice_kernel = sampler.slices[0][1] * calib.KERNEL_STEPS / calib.SpeedSampler.SLICE_STEPS
    assert min(0.01, slice_kernel) <= sampler.kernel_estimate(0.01, 0.01) <= max(0.01, max(
        s * calib.KERNEL_STEPS / calib.SpeedSampler.SLICE_STEPS for _, s in sampler.slices))
