"""Acceptance suite: one test per criterion.

Criteria 1-9 are read off the report of
`puosc verify --omega1 2 --omega2 1 --seed 42`: each passes when every
registry check (`puosc.verify.CHECKS`) mapped to it in CRITERIA passes.
Criterion 10 is byte-level determinism of that report, every check of it
passing, and the CLI exit-code contract.

Every test prints a single '[criterion N] PASS/FAIL' line (visible with
pytest -s or in failure output), so the suite doubles as a checklist.
"""
import json

import pytest
from conftest import run_cli

CHECK_KEYS = {"id", "anchor", "pass", "residual", "samples"}

CRITERIA = {
    (1, "symmetry_discovery"): ("lie.commutant-dimension", "lie.abelian-algebra"),
    (2, "bi_hamiltonian_flow"): ("structure.flow-pairs", "structure.ostrogradsky"),
    (3, "hierarchy"): ("hierarchy.involution", "hierarchy.recursion-coefficients",
                       "hierarchy.ladder-routes"),
    (4, "combined_structures"): ("combined.flow-residual", "combined.pd-window"),
    (5, "flows"): ("flows.closed-forms",),
    (6, "transform_catalog"): ("catalog.defining-relations", "catalog.pullback-coefficients",
                               "catalog.flow-tensor", "catalog.tensor-reductions"),
    (7, "positivity"): ("positivity.windows", "sm.embedding"),
    (8, "dynamics"): ("dynamics.rk4", "dynamics.conservation", "dynamics.degenerate-growth"),
    (9, "interaction"): ("interaction.unique-tensor", "interaction.two-route"),
}


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.mark.parametrize("criterion, check_ids", [(n, ids) for (n, _), ids in CRITERIA.items()],
                         ids=[f"{n}_{name}" for n, name in CRITERIA])
def test_criterion(criterion, check_ids, verify_runs):
    checks = {c["id"]: c for c in json.loads(verify_runs[0][1])["checks"]}
    ok, details = True, []
    for check_id in check_ids:
        c = checks.get(check_id)
        if c is None:
            ok = False
            details.append(f"{check_id} missing")
            continue
        ok = ok and c["pass"]
        details.append(f"{check_id} {'pass' if c['pass'] else 'FAIL'} "
                       f"(residual {c['residual']:.2e}, {c['samples']} samples)")
    report(criterion, ok, ", ".join(details))


def test_criterion_10_cli_determinism(verify_runs):
    (code1, data1), (code2, data2) = verify_runs
    rep = json.loads(data1)
    identical = data1 == data2
    schema_ok = (rep["seed"] == 42 and rep["params"]["alpha"] == 5.0
                 and bool(rep["resolved"])
                 and all(set(c) == CHECK_KEYS for c in rep["checks"]))
    usage = run_cli("verify").returncode
    domain = run_cli("hierarchy", "--n", "3", "--alpha", "5", "--beta", "0").returncode
    green = rep["pass"] is True and all(c["pass"] is True for c in rep["checks"])
    ok = (code1 == 0 and code2 == 0 and identical and green
          and schema_ok and usage == 2 and domain == 1)
    report(10, ok, f"byte-identical reports: {identical}, verify exit 0: "
                   f"{code1 == 0 and code2 == 0}, every check passes: {green}, "
                   f"report schema: {schema_ok}, "
                   f"usage exit 2: {usage == 2}, domain exit 1: {domain == 1}")
