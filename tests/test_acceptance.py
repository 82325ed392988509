"""Acceptance suite: one test per criterion.

Criteria 1-9 are read off the report of
`puosc verify --omega1 2 --omega2 1 --seed 42`: each passes when every
registry check (`puosc.verify.CHECKS`) mapped to it in CRITERIA passes.  The
unit tests certify the same identities at their own draws.  Criterion 10 is
byte-level determinism of that report and the CLI exit-code contract.

Every test prints a single '[criterion N] PASS/FAIL' line (visible with
pytest -s or in failure output), so the suite doubles as a checklist.
"""
import json

from conftest import run_cli

CHECK_KEYS = {"id", "anchor", "pass", "residual", "samples"}

CRITERIA = {
    1: ("lie.commutant-dimension", "lie.abelian-algebra"),
    2: ("structure.flow-pairs", "structure.ostrogradsky"),
    3: ("hierarchy.involution", "hierarchy.recursion-coefficients", "hierarchy.ladder-routes"),
    4: ("combined.flow-residual", "combined.pd-window"),
    5: ("flows.closed-forms",),
    6: ("catalog.defining-relations", "catalog.pullback-coefficients",
        "catalog.flow-tensor", "catalog.tensor-reductions"),
    7: ("positivity.windows", "sm.embedding"),
    8: ("dynamics.rk4", "dynamics.conservation", "dynamics.degenerate-growth"),
    9: ("interaction.unique-tensor", "interaction.two-route"),
}


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def check_criterion(criterion: int, verify_runs):
    checks = {c["id"]: c for c in json.loads(verify_runs[0][1])["checks"]}
    ok, details = True, []
    for check_id in CRITERIA[criterion]:
        c = checks.get(check_id)
        if c is None:
            ok = False
            details.append(f"{check_id} missing")
            continue
        ok = ok and c["pass"]
        details.append(f"{check_id} {'pass' if c['pass'] else 'FAIL'} "
                       f"(residual {c['residual']:.2e}, {c['samples']} samples)")
    report(criterion, ok, ", ".join(details))


def test_criterion_1_symmetry_discovery(verify_runs):
    check_criterion(1, verify_runs)


def test_criterion_2_bi_hamiltonian_flow(verify_runs):
    check_criterion(2, verify_runs)


def test_criterion_3_hierarchy(verify_runs):
    check_criterion(3, verify_runs)


def test_criterion_4_combined_structures(verify_runs):
    check_criterion(4, verify_runs)


def test_criterion_5_flows(verify_runs):
    check_criterion(5, verify_runs)


def test_criterion_6_transform_catalog(verify_runs):
    check_criterion(6, verify_runs)


def test_criterion_7_positivity(verify_runs):
    check_criterion(7, verify_runs)


def test_criterion_8_dynamics(verify_runs):
    check_criterion(8, verify_runs)


def test_criterion_9_interaction(verify_runs):
    check_criterion(9, verify_runs)


def test_criterion_10_cli_determinism(verify_runs):
    (code1, data1), (code2, data2) = verify_runs
    rep = json.loads(data1)
    identical = data1 == data2
    schema_ok = (rep["seed"] == 42 and rep["params"]["alpha"] == 5.0
                 and bool(rep["resolved"])
                 and all(set(c) == CHECK_KEYS for c in rep["checks"]))
    usage = run_cli("verify").returncode
    domain = run_cli("hierarchy", "--n", "3", "--alpha", "5", "--beta", "0").returncode
    ok = (code1 == 0 and code2 == 0 and identical and rep["pass"] is True
          and schema_ok and usage == 2 and domain == 1)
    report(10, ok, f"byte-identical reports: {identical}, verify exit 0: "
                   f"{code1 == 0 and code2 == 0}, report schema: {schema_ok}, "
                   f"usage exit 2: {usage == 2}, domain exit 1: {domain == 1}")
