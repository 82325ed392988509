import dataclasses
import io
import json

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed


# --------------------------------------------------------------------------
# verify reports
# --------------------------------------------------------------------------

def report(seed=5, **overrides):
    body = {"seed": seed, "pass": True, "params": {}, "resolved": {},
            "checks": [{"id": cid, "anchor": "", "pass": True, "residual": 0.0, "samples": 1}
                       for cid in checks.VERIFY_CHECK_IDS]}
    body.update(overrides)
    return json.dumps(body).encode()


def test_passing_report_is_accepted():
    checks.check_verify_report(report(), 5)


def corrupt_checks(edit):
    body = json.loads(report())
    edit(body["checks"])
    return json.dumps(body).encode()


@pytest.mark.parametrize("data, why", [
    (b"{not json", "not JSON"),
    (report(**{"pass": False}), "does not pass"),
    (report(seed=6), "seed"),
    (corrupt_checks(lambda cs: cs.pop(3)), "missing"),
    (corrupt_checks(lambda cs: cs.append(dict(cs[0]))), "repeated"),
    (corrupt_checks(lambda cs: cs[0].update(id="lie.unknown")), "unexpected"),
    (corrupt_checks(lambda cs: cs[7].update({"pass": False})), "although"),
])
def test_corrupted_report_is_rejected(data, why):
    with pytest.raises(CheckFailed, match=why):
        checks.check_verify_report(data, 5)


def test_reports_must_be_byte_identical():
    checks.check_same_bytes(report(), report(), "report")
    with pytest.raises(CheckFailed):
        checks.check_same_bytes(report(), report() + b" ", "report")


# --------------------------------------------------------------------------
# simulate CSVs
# --------------------------------------------------------------------------

H, T_END, LAM = 1e-3, 0.5, 0.25


@pytest.fixture(scope="module")
def csv_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "traj.csv"
    rc = workloads.puosc.cli.main([
        "simulate", "--omega1", "2", "--omega2", "1", "--potential", f"quartic:lam={LAM}",
        "--h", repr(H), "--t-end", repr(T_END), "--A1", "0.3", "--B2", "-0.4", "--out", str(out)])
    assert rc == 0
    return out.read_text()


def check_csv(text):
    checks.check_simulate_csv(io.StringIO(text), 5.0, 4.0, LAM, H, T_END)


def edit_cell(text, row, column, delta):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_program_csv_is_accepted(csv_text):
    check_csv(csv_text)


@pytest.mark.parametrize("edit, why", [
    (lambda t: t.replace("Hint", "Hx", 1), "header"),
    (lambda t: t.rsplit("\n", 2)[0] + "\n", "shape"),
    (lambda t: edit_cell(t, 300, 1, 1e-4), "drifts"),
    (lambda t: edit_cell(t, 300, 9, 1e-9), "Hint"),
    (lambda t: edit_cell(t, 300, 5, 1e-9), "H1"),
    (lambda t: edit_cell(t, 300, 6, 1e-9), "H2"),
    (lambda t: edit_cell(t, 300, 0, 1e-6), "time column"),
    (lambda t: t.replace("\n0,", "\nzero,", 1), "parse"),
])
def test_corrupted_csv_is_rejected(csv_text, edit, why):
    with pytest.raises(CheckFailed, match=why):
        check_csv(edit(csv_text))


# --------------------------------------------------------------------------
# structure-scan results
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def structure():
    point = workloads.structure_point(np.random.default_rng(7))
    return workloads.structure_operation(point)


def test_program_structure_is_accepted(structure):
    checks.check_structure(structure)


def nudged(matrices, k, eps=1e-6):
    out = [np.array(m, dtype=float) for m in matrices]
    out[k][0, 1] += eps
    return out


@pytest.mark.parametrize("edit, why", [
    (lambda r: {"solved": nudged(r.solved, 2)}, "commute"),
    (lambda r: {"standard": nudged(r.standard, 0)}, "commute"),
    (lambda r: {"solved": r.solved[:3]}, "dimensions"),
    (lambda r: {"solved": [r.solved[0]] * 4}, "dimensions"),
    (lambda r: {"ladder": nudged(r.ladder, 4)}, "not conserved"),
    (lambda r: {"ladder": r.ladder[:5]}, "6"),
    (lambda r: {"pairs": [(r.pairs[0][0] * (1 + 1e-6), r.pairs[0][1])]}, "J S = M"),
    (lambda r: {"pairs": []}, "no \\(J, H\\) pair"),
    (lambda r: {"refused": {**r.refused, "Tb2+": False}}, "Tb2\\+ .* accepted"),
    (lambda r: {"refused": {**r.refused, "Ta2-": True}}, "Ta2- .* refused"),
    (lambda r: {"flows": [(r.flows[0][0] + 1e-6, r.flows[0][1])]}, "closed-form"),
])
def test_corrupted_structure_is_rejected(structure, edit, why):
    with pytest.raises(CheckFailed, match=why):
        checks.check_structure(dataclasses.replace(structure, **edit(structure)))
