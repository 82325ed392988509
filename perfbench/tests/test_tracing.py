import json
import os
import shutil
import subprocess
import sys

import pytest

import calib
import tracing
import workloads
from common import BENCH_DIR, ROOT

puosc = workloads.puosc


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original = puosc.linalg.nullspace
    assert puosc.dynamics.nullspace is original and puosc.symmetry.nullspace is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert puosc.dynamics.nullspace is not original
        assert puosc.symmetry.nullspace is puosc.dynamics.nullspace
        tracer.op = 0
        puosc.solve_symmetries(puosc.PuParams.from_frequencies(2.0, 1.0))
    finally:
        tracer.uninstall()
    assert puosc.dynamics.nullspace is original and puosc.symmetry.nullspace is original
    names = [span[0] for span in tracer.spans]
    assert names == ["symmetry.solve_symmetries", "linalg.nullspace"]
    assert tracer.spans[1][3] == 0, "nullspace span's parent is solve_symmetries"
    assert not tracer.missing


def test_counters_count_constructions_per_operation():
    original = puosc.PhaseState.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        puosc.hamiltonian_h1(puosc.PuParams.from_frequencies(2.0, 1.0))
        puosc.PhaseState(0.0, 1.0, 0.0, 0.0)
        puosc.PhaseState(1.0, 1.0, 0.0, 0.0)
    finally:
        tracer.uninstall()
    assert tracer.counts[(0, "core.quad_hamiltonians_built")] == 1
    assert tracer.counts[(0, "core.phase_states_built")] == 2
    assert puosc.PhaseState.__init__ is original


def test_missing_name_is_reported_unmeasured(monkeypatch):
    monkeypatch.setitem(tracing.TIMED, "linalg.expm", ("puosc.linalg", "expm_removed"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"linalg.expm"}
    values = tracing.layer_metrics(tracer, {0: 0.01}, {})
    assert values["linalg.expm_us"] == tracing.UNMEASURED
    assert values["linalg.expm.calls"] == tracing.UNMEASURED
    assert values["linalg.nullspace_us"] == 0.0


def test_layer_metrics_arithmetic():
    """cli self time excludes child spans; RK4 time is per step; kernel slices
    are charged to no span; all calibrated."""
    tracer = tracing.Tracer()
    kernel = calib.NOMINAL_KERNEL_MS / 1000.0  # calibrated ms then equal wall ms
    tracer.spans = [
        ["cli.main", 0.0, 0.100, None, 0, None],
        ["dynamics.integrate", 0.010, 0.050, 0, 0, ("PotentialField", 2000)],
        ["dynamics.charge_values", 0.050, 0.060, 0, 0, None],
        ["linalg.nullspace", 0.061, 0.062, 0, 0, None],
        ["dynamics.integrate", 0.200, 0.210, None, None, ("LinearField", 10)],  # outside any op
    ]
    slices = {0: [(0.020, 0.002), (0.090, 0.001)]}  # one inside integrate, one in cli.main's own time
    values = tracing.layer_metrics(tracer, {0: kernel}, slices)
    assert values["cli.self_ms"] == pytest.approx(100.0 - 3.0 - (40.0 - 2.0) - 10.0 - 1.0)
    assert values["dynamics.rk4_potential_us_per_step"] == pytest.approx(38_000.0 / 2000)
    assert values["dynamics.rk4_linear_us_per_step"] == 0.0
    assert values["dynamics.rk4_steps"] == 2000
    assert values["dynamics.charge_values_ms"] == pytest.approx(10.0)
    assert values["linalg.nullspace.calls"] == 1


def test_replay_reproduces_the_verify_report(tmp_path):
    out = tmp_path / "r.json"
    assert puosc.cli.main(["verify", "--omega1", "2", "--omega2", "1",
                           "--seed", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["checks"]
    params = puosc.PuParams.from_frequencies(2.0, 1.0)
    walls = tracing.replay_verify_checks(params, 5, report)
    assert list(walls) == [c["id"] for c in report]
    with pytest.raises(ValueError, match="does not reproduce"):
        tracing.replay_verify_checks(params, 6, report)


def test_replay_refuses_a_registry_of_another_shape(monkeypatch):
    monkeypatch.setattr(puosc.verify, "CHECKS", [("kernels.identities", lambda p, rng, tol: 0.0)])
    with pytest.raises(ValueError, match="changed shape"):
        tracing.replay_verify_checks(puosc.PuParams.from_frequencies(2.0, 1.0), 5, [])
    monkeypatch.delattr(puosc.verify, "CHECKS")
    assert tracing.replay_verify_checks(puosc.PuParams.from_frequencies(2.0, 1.0), 5, []) is None


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["op_ms", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_without_program_source_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
