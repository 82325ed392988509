"""Output checks computed apart from the program.

Each check takes plain data (report bytes, CSV text, numpy matrices) and
raises ``CheckFailed`` with a reason when the output is wrong.  The
quantities are rebuilt here from their definitions, so a fault in puosc
cannot hide itself by also being in the check.  Nothing here imports puosc.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

# The 30 check ids that `puosc verify` documents, in report order.
VERIFY_CHECK_IDS = (
    "kernels.identities", "lie.commutant-dimension", "lie.abelian-algebra",
    "structure.flow-pairs", "structure.ostrogradsky", "hierarchy.involution",
    "hierarchy.recursion-coefficients", "hierarchy.ladder-routes", "hierarchy.x4-pair",
    "combined.flow-residual", "combined.pd-window", "combined.pd-decomposition",
    "flows.closed-forms", "solutions.ode-residual", "catalog.defining-relations",
    "catalog.pullback-coefficients", "catalog.inverse-map", "catalog.flow-tensor",
    "catalog.tensor-reductions", "catalog.pushforward-brackets", "ghost.variants",
    "positivity.windows", "positivity.square-pieces", "sm.embedding", "dynamics.rk4",
    "dynamics.conservation", "dynamics.degenerate-growth", "interaction.unique-tensor",
    "interaction.two-route", "discovery.structures",
)

SIMULATE_HEADER = ["t", "q", "qd", "qdd", "qddd", "H1", "H2", "H3", "H4", "Hint"]
# Relative drift bound of the `dynamics.conservation` check.
DRIFT_BOUND = 1e-8
# Columns are printed with 17 significant digits, so recomputed forms agree
# to rounding; this leaves three orders of magnitude of headroom.
FORM_TOL = 1e-12
# Bounds of the verify checks that certify the same identities.
COMMUTE_TOL = 1e-10
FLOW_TOL = 1e-9
CLOSED_FORM_TOL = 1e-8


class CheckFailed(AssertionError):
    """An operation's output disagrees with the independent computation."""


def companion(alpha: float, beta: float) -> np.ndarray:
    """M of dv/dt = M v for q'''' + alpha q'' + beta q = 0, v = (q, qd, qdd, qddd)."""
    return np.array([[0.0, 1.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0],
                     [-beta, 0.0, -alpha, 0.0]])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def check_verify_report(data: bytes, seed: int) -> None:
    """The report passes, is for ``seed`` and lists each documented check once."""
    try:
        report = json.loads(data)
    except ValueError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    if report.get("pass") is not True:
        failing = [c.get("id") for c in report.get("checks", []) if not c.get("pass")]
        raise CheckFailed(f"report does not pass (failing: {failing})")
    if report.get("seed") != seed:
        raise CheckFailed(f"report seed {report.get('seed')!r}, expected {seed}")
    ids = Counter(c.get("id") for c in report.get("checks", []))
    missing = sorted(set(VERIFY_CHECK_IDS) - set(ids))
    wrong = sorted(str(i) for i, n in ids.items() if n != 1 or i not in VERIFY_CHECK_IDS)
    if missing or wrong:
        raise CheckFailed(f"check ids differ: missing {missing}, unexpected or repeated {wrong}")
    if not all(c.get("pass") is True for c in report["checks"]):
        raise CheckFailed("report passes although a check does not")


def check_same_bytes(first: bytes, second: bytes, what: str) -> None:
    if first != second:
        raise CheckFailed(f"{what}: two runs at the same seed wrote different bytes")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def quadratic_h1(s: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """H1 = qdd^2/2 - alpha qd^2/2 - beta q^2/2 - qd qddd, row-wise."""
    q, qd, qdd, qddd = s.T
    return 0.5 * qdd ** 2 - 0.5 * alpha * qd ** 2 - 0.5 * beta * q ** 2 - qd * qddd


def quadratic_h2(s: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """H2 = beta qd^2/2 - alpha qdd^2/2 - qddd^2/2 - beta q qdd, row-wise."""
    q, qd, qdd, qddd = s.T
    return 0.5 * beta * qd ** 2 - 0.5 * alpha * qdd ** 2 - 0.5 * qddd ** 2 - beta * q * qdd


def _close(got: np.ndarray, want: np.ndarray) -> float:
    """Largest |got - want| / (1 + |want|); inf when the shapes differ."""
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


def check_simulate_csv(fh, alpha: float, beta: float, lam: float,
                       h: float, t_end: float) -> None:
    """Trajectory CSV of ``simulate --potential quartic:lam=LAM``, read from
    the text file ``fh`` in chunks so the check adds little to peak memory.

    The interacting energy H1 + lam q^4/4, computed here from the state
    columns, is conserved within DRIFT_BOUND and equals the Hint column;
    the H1 and H2 columns equal the quadratic forms of the states.
    """
    head = fh.readline().rstrip("\n")
    if head.split(",") != SIMULATE_HEADER:
        raise CheckFailed(f"CSV header {head!r}, expected {','.join(SIMULATE_HEADER)}")
    try:
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"CSV body does not parse: {exc}") from None
    n_steps = int(round(t_end / h))
    if table.shape != (n_steps + 1, len(SIMULATE_HEADER)):
        raise CheckFailed(f"CSV has shape {table.shape}, expected {(n_steps + 1, len(SIMULATE_HEADER))}")
    if _close(table[:, 0], np.arange(n_steps + 1) * h) > 1e-12:
        raise CheckFailed("time column is not the grid k*h")
    states = table[:, 1:5]
    if not np.all(np.isfinite(table)):
        raise CheckFailed("CSV holds non-finite values")
    energy = quadratic_h1(states, alpha, beta) + lam * states[:, 0] ** 4 / 4.0
    drift = float(np.max(np.abs(energy - energy[0])) / (1.0 + abs(energy[0])))
    if drift > DRIFT_BOUND:
        raise CheckFailed(f"interacting energy drifts by {drift:.3e} > {DRIFT_BOUND:g}")
    for column, want in (("Hint", energy),
                         ("H1", quadratic_h1(states, alpha, beta)),
                         ("H2", quadratic_h2(states, alpha, beta))):
        err = _close(table[:, SIMULATE_HEADER.index(column)], want)
        if err > FORM_TOL:
            raise CheckFailed(f"{column} column differs from the recomputed form by {err:.3e}")


# ---------------------------------------------------------------------------
# structure-scan
# ---------------------------------------------------------------------------

@dataclass
class StructureResult:
    """Matrices one structure-scan operation produced, as plain arrays."""

    alpha: float
    beta: float
    solved: list          # solve_symmetries generator matrices
    standard: list        # standard_basis generator matrices X1..X4
    ladder: list          # charge_ladder(6) matrices S
    pairs: list           # structure_discovery (J, S) matrix pairs
    pairs_params: tuple   # (alpha, beta) the pairs were discovered at
    refused: dict         # catalog kind -> True when flow_preserving_tensor refused it
    flows: list           # (closed_form_flow state, group_flow state) per generator


REFUSING_KINDS = ("Ta1+", "Ta1-", "Tb2+", "Tb2-")
ADMITTING_KINDS = ("Ta2+", "Ta2-", "Tb1")


def _rank(vectors: list) -> int:
    stacked = np.array([np.ravel(v) for v in vectors])
    sigma = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sigma > 1e-8 * sigma[0]))


def check_structure(r: StructureResult) -> None:
    """Symmetries commute with M and span 4 dimensions; ladder charges are
    conserved (S M + M^T S = 0); discovered pairs satisfy J S = M; Ta1 and
    Tb2 are refused a flow-preserving tensor and Ta2, Tb1 are not; closed-form
    and matrix-exponential group flows agree."""
    m = companion(r.alpha, r.beta)
    scale = 1.0 + np.linalg.norm(m)
    for label, gens in (("solve_symmetries", r.solved), ("standard_basis", r.standard)):
        for a in gens:
            res = np.linalg.norm(m @ a - a @ m) / (scale * (1.0 + np.linalg.norm(a)))
            if res > COMMUTE_TOL:
                raise CheckFailed(f"{label} generator fails to commute with M ({res:.3e})")
        if len(gens) != 4 or _rank(gens) != 4:
            raise CheckFailed(f"{label} gives {len(gens)} generators spanning {_rank(gens)} dimensions, not 4")
    if _rank(list(r.solved) + list(r.standard)) != 4:
        raise CheckFailed("solve_symmetries and standard_basis span different spaces")
    if len(r.ladder) != 6:
        raise CheckFailed(f"charge ladder has {len(r.ladder)} charges, expected 6")
    for k, s in enumerate(r.ladder, start=1):
        res = np.linalg.norm(s @ m + m.T @ s) / (scale * (1.0 + np.linalg.norm(s)))
        if res > COMMUTE_TOL:
            raise CheckFailed(f"ladder charge H{k} is not conserved (|SM + M^T S| = {res:.3e})")
    if not r.pairs:
        raise CheckFailed("structure_discovery found no (J, H) pair")
    m_pairs = companion(*r.pairs_params)
    for j, s in r.pairs:
        res = np.linalg.norm(j @ s - m_pairs) / (1.0 + np.linalg.norm(m_pairs))
        if res > FLOW_TOL:
            raise CheckFailed(f"discovered pair violates J S = M ({res:.3e})")
    for kind in REFUSING_KINDS + ADMITTING_KINDS:
        want = kind in REFUSING_KINDS
        if r.refused.get(kind) is not want:
            verb = "accepted" if want else "refused"
            raise CheckFailed(f"{kind} flow-preserving tensor was {verb}")
    for closed, flowed in r.flows:
        err = float(np.max(np.abs(np.asarray(closed) - np.asarray(flowed))))
        if err > CLOSED_FORM_TOL:
            raise CheckFailed(f"closed-form and group flow differ by {err:.3e}")
