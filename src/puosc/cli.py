"""Command-line front end.

Subcommands: verify (identity suites -> JSON report), hierarchy (charge
table), transform (catalog report), flow (group-flow curves), simulate
(trajectory with monitored charges), discover (structure solver).  Exit
codes: 0 success, 1 domain error, 2 usage error.  Only verify, which draws
from it, takes --seed; no option is accepted and ignored.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import uuid

import numpy as np

from . import dynamics, hierarchy, symmetry, transform, verify
from .core import PuParams, flow_residual, hamiltonian_h1, hamiltonian_h2
from .errors import DivergenceError, InvalidInputError, PuError


def _atomic_write(path: str, data: str) -> None:
    """Write through a new file renamed over path, created as ``open(path,
    "w")`` creates one: mode 0o666 less the umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".puosc-{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(data: str, out: str | None) -> None:
    if out:
        _atomic_write(out, data)
    else:
        sys.stdout.write(data)


def _csv(header: list[str], rows: list[list[float]]) -> str:
    row_fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(row_fmt % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _argument_type(convert, valid, expected: str):
    """An argparse type that converts the text and requires valid(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_finite_float = _argument_type(float, math.isfinite, "a finite number")
_nonnegative_int = _argument_type(int, lambda v: v >= 0, "a non-negative integer")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=_finite_float, default=None)
    sub.add_argument("--beta", type=_finite_float, default=None)
    sub.add_argument("--omega1", type=_finite_float, default=None)
    sub.add_argument("--omega2", type=_finite_float, default=None)
    sub.add_argument("--out", type=str, default=None)
    # post-parse usage errors are reported against the subcommand's parser
    sub.set_defaults(subparser=sub)


def _params_from_args(parser: argparse.ArgumentParser, args) -> PuParams:
    ab = (args.alpha is not None, args.beta is not None)
    ww = (args.omega1 is not None, args.omega2 is not None)
    if any(ab) and any(ww):
        parser.error("give either --alpha/--beta or --omega1/--omega2, not both")
    if not (all(ww) or all(ab)):
        parser.error("parameters required: --alpha with --beta, or --omega1 with --omega2")
    try:
        if all(ww):
            return PuParams.from_frequencies(args.omega1, args.omega2)
        return PuParams(args.alpha, args.beta)
    except InvalidInputError as exc:
        parser.error(str(exc))


def _classical_solution(p: PuParams, args) -> dynamics.ClassicalSolution:
    regime = "degenerate" if p.degenerate else "nondegenerate"
    return dynamics.ClassicalSolution(p, (args.A1, args.A2, args.B1, args.B2), regime)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number with an exponent, such
    as ``-5e-05``, as a value rather than as an option; the subcommand
    parsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="puosc", description="Pais-Uhlenbeck oscillator toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="run the identity suites")
    _add_common(p_verify)
    p_verify.add_argument("--seed", type=_nonnegative_int, default=0)

    p_hier = subs.add_parser("hierarchy", help="charge coefficients and polynomials")
    _add_common(p_hier)
    p_hier.add_argument("--n", type=int, default=4, help="ladder depth")
    p_hier.add_argument("--format", choices=("csv", "json"), default="csv")

    p_tr = subs.add_parser("transform", help="catalog transformation report")
    _add_common(p_tr)
    p_tr.add_argument("--kind", choices=transform.KINDS, required=True)
    p_tr.add_argument("--ax", type=_finite_float, default=1.0)
    p_tr.add_argument("--ay", type=_finite_float, default=None)
    p_tr.add_argument("--bx", type=_finite_float, default=None)
    p_tr.add_argument("--by", type=_finite_float, default=None)
    p_tr.add_argument("--g", type=_finite_float, default=0.0)

    p_flow = subs.add_parser("flow", help="sample a symmetry-group flow")
    _add_common(p_flow)
    p_flow.add_argument("--generator", choices=("X1", "X2", "X3", "X4"), default="X3")
    p_flow.add_argument("--s", type=_finite_float, default=1.0)
    p_flow.add_argument("--t-end", dest="t_end", type=_finite_float, default=10.0)
    p_flow.add_argument("--steps", type=_nonnegative_int, default=200)
    for amp in ("A1", "A2", "B1", "B2"):
        p_flow.add_argument(f"--{amp}", type=_finite_float, default=0.0)

    p_sim = subs.add_parser("simulate", help="integrate and monitor charges")
    _add_common(p_sim)
    p_sim.add_argument("--h", type=_finite_float, default=1e-3)
    p_sim.add_argument("--t-end", dest="t_end", type=_finite_float, default=10.0)
    p_sim.add_argument("--potential", type=str, default=None,
                       help="interaction 'name[:lam=VALUE]' (quartic, cubic, cosine)")
    p_sim.add_argument("--potential-kind", choices=("on_q", "on_qdd"), default="on_q")
    for amp in ("A1", "A2", "B1", "B2"):
        p_sim.add_argument(f"--{amp}", type=_finite_float, default=0.0)

    p_disc = subs.add_parser("discover", help="solve for compatible (J, H) pairs")
    _add_common(p_disc)
    return parser


def _cmd_verify(parser, args, p: PuParams) -> int:
    report = verify.run_verification(p, seed=args.seed)
    _emit(_json_dump(report), args.out)
    return 0 if report["pass"] else 1


def _cmd_hierarchy(parser, args, p: PuParams) -> int:
    if args.n < 1 or args.n > hierarchy.MAX_LADDER_DEPTH:
        parser.error(f"--n must be in 1..{hierarchy.MAX_LADDER_DEPTH}")
    ladder = hierarchy.charge_ladder(p, args.n)
    rows = []
    for k, charge in enumerate(ladder.charges, start=1):
        c1, c2 = hierarchy.coefficients_on_h1h2(p, charge)
        rows.append([float(k), c1, c2, hierarchy.pu_polynomial(k, p)])
    if args.format == "json":
        payload = {"params": {"alpha": p.alpha, "beta": p.beta},
                   "charges": [{"n": int(r[0]), "c_h1": r[1], "c_h2": r[2],
                                "p_n": r[3]} for r in rows]}
        _emit(_json_dump(payload), args.out)
    else:
        _emit(_csv(["n", "c_h1", "c_h2", "p_n"], rows), args.out)
    return 0


def _cmd_transform(parser, args, p: PuParams) -> int:
    kind = args.kind
    kwargs = {"ax": args.ax, "g": args.g}
    if kind.startswith("Ta"):
        kwargs["ay"] = args.ay if args.ay is not None else 1.0
    elif kind == "Tb1":
        if args.bx is None:
            parser.error("Tb1 requires --bx")
        kwargs["bx"] = args.bx
    else:
        if args.by is None:
            parser.error("Tb2 requires --by")
        kwargs["by"] = args.by
    spec = transform.build(kind, p, **kwargs)
    c1, c2 = transform.pullback_hamiltonian(spec, p)
    payload = {
        "params": {"alpha": p.alpha, "beta": p.beta},
        "kind": kind,
        "mu": list(spec.mu),
        "nu": list(spec.nu),
        "lagrangian": {"ax": spec.ax, "ay": spec.ay, "bx": spec.bx,
                       "by": spec.by, "g": spec.g},
        "pullback": {"c_h1": c1, "c_h2": c2},
        "defining_residual": transform.defining_residual(spec, p),
    }
    try:
        jt = transform.flow_preserving_tensor(p, c1, c2)
        table = transform.pushforward_brackets(spec, jt)
        payload["flow_preserving_tensor"] = jt.matrix.tolist()
        payload["bracket_table"] = table.tolist()
        payload["canonical"] = bool(np.max(np.abs(table - transform.CANONICAL_XY)) <= 1e-10)
    except PuError as exc:
        payload["flow_preserving_tensor"] = None
        payload["bracket_table"] = None
        payload["canonical"] = False
        payload["tensor_error"] = str(exc)
    _emit(_json_dump(payload), args.out)
    return 0


def _cmd_flow(parser, args, p: PuParams) -> int:
    sol = _classical_solution(p, args)
    gens = dict(zip(("X1", "X2", "X3", "X4"), symmetry.standard_basis(p)))
    try:
        times = np.linspace(0.0, args.t_end, args.steps + 1)
    except (ValueError, MemoryError):  # more samples than numpy or memory can hold
        raise InvalidInputError(f"cannot hold {args.steps:.6g} steps: lower --steps") from None
    states = [(t, dynamics.eval_solution(sol, t)) for t in times]
    curve = symmetry.flow_curve(gens[args.generator], args.s, states)
    rows = [[t, st.q, st.qd, st.qdd, st.qddd] for t, st in curve.samples]
    _emit(_csv(["t", "q", "qd", "qdd", "qddd"], rows), args.out)
    return 0


def _cmd_simulate(parser, args, p: PuParams) -> int:
    sol = _classical_solution(p, args)
    v0 = dynamics.eval_solution(sol, 0.0)
    pot = None
    if args.potential:
        try:
            pot = dynamics.parse_potential(args.potential, kind=args.potential_kind)
        except InvalidInputError as exc:
            parser.error(f"argument --potential: {exc}")
        field = dynamics.PotentialField(p, pot)
    else:
        field = dynamics.LinearField(p)
    diverged = None
    try:
        traj = dynamics.integrate(field, v0, args.h, args.t_end)
    except DivergenceError as exc:
        # write the finite rows before it, then fail as any domain error does
        diverged = exc
        traj = dynamics.Trajectory(times=np.arange(len(exc.states)) * args.h,
                                   states=exc.states)
    charges = list(hierarchy.charge_ladder(p, 4).charges)
    header = ["t", "q", "qd", "qdd", "qddd", "H1", "H2", "H3", "H4"]
    columns = [traj.times] + [traj.states[:, i] for i in range(4)]
    columns += [dynamics.charge_values(traj, c) for c in charges]
    if pot is not None:
        base = hamiltonian_h1(p) if pot.kind == "on_q" else hamiltonian_h2(p)
        header.append("Hint")
        columns.append(dynamics.charge_values(traj, base, augment=pot))
    rows = np.column_stack(columns).tolist()
    _emit(_csv(header, rows), args.out)
    if diverged is not None:
        print(f"error: {diverged}", file=sys.stderr)
        return 1
    return 0


def _cmd_discover(parser, args, p: PuParams) -> int:
    result = dynamics.structure_discovery(p)
    payload = {
        "params": {"alpha": p.alpha, "beta": p.beta},
        "pairs": [{"j": j.matrix.tolist(), "s": h.matrix.tolist(),
                   "residual": flow_residual(j, h, p)} for j, h in result.pairs],
        "kernel_dimension": len(result.kernels),
        "skipped": [k.tolist() for k in result.skipped],
    }
    _emit(_json_dump(payload), args.out)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "hierarchy": _cmd_hierarchy,
    "transform": _cmd_transform,
    "flow": _cmd_flow,
    "simulate": _cmd_simulate,
    "discover": _cmd_discover,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = args.subparser
    p = _params_from_args(sub, args)
    try:
        return _COMMANDS[args.command](sub, args, p)
    except PuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
