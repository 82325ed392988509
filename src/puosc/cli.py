"""Command-line front end.

Subcommands: verify (identity suites -> JSON report), hierarchy (charge
table), transform (catalog report), flow (group-flow curves), simulate
(trajectory with monitored charges), discover (structure solver).  Exit
codes: 0 success, 1 domain error, 2 usage error.  Only verify, which draws
from it, takes --seed; no option is accepted and ignored.  CSV goes out in
blocks of rows, so no copy of its whole text is held, and an --out file is
written through a temp file renamed into place, so a failed run leaves none.

Each CSV number is ``'%.17g' % v``, byte for byte, made for a whole block at
once in numpy.  A nonzero cell x is ±N * 10**(E - 16), where N is |x| *
10**(16 - E) rounded half-even to 17 digits.  Where 10**(16 - E) is a double,
which holds for every cell that %.17g writes without an exponent, Dekker's
error-free product gives that rounding from exact values, ties included.
Elsewhere the scale is a double-double, which leaves the product within about
1e-14 of exact, so the rounding is certain unless the product lies within
2**-20 of a tie.  The digits of N, a sign, a "0.000" lead, a dot and an
"e+XX" suffix then fill a NUL-padded byte row per cell, and dropping the NUL
bytes gives the text.  A cell whose exponent or rounding is not certain, a
non-finite or subnormal value and an exponent outside the table are
formatted by %.17g itself, in one batch per block.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import uuid
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

from . import dynamics, hierarchy, symmetry, transform, verify
from .core import PuParams, flow_residual, require_finite_states
from .errors import DivergenceError, InvalidInputError, PuError
from .linalg import expm


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks through a new file renamed over path, created as
    ``open(path, "w")`` creates one: mode 0o666 less the umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".puosc-{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks to the file out, or to stdout when out is None."""
    if out:
        _atomic_write(out, chunks)
    else:
        sys.stdout.writelines(chunks)


# rows per chunk of CSV text: a block's text, not the whole file's, is in memory
_CSV_BLOCK_ROWS = 512

# Cells whose decimal exponent E lies in this range take the vectorized
# path: its scale 10**(16 - E) is a normal double-double, and |x| times
# 2**27 + 1 stays finite for the split.
_E_MIN, _E_MAX = -292, 299
# byte slots of one cell: sign, "0.000" lead, 17 digits with the dot among
# them, "e+XXX", separator; the NUL bytes left over are dropped
_LEAD, _BODY, _EXP, _SEP = slice(1, 6), slice(6, 24), slice(24, 29), 29
_CELL = 30


def _split(x):
    """Veltkamp's split of x into halves of at most 26 significant bits, whose
    products with the halves of another split are exact."""
    hi = x * 134217729.0  # 2**27 + 1
    lo = hi - x
    hi -= lo
    return hi, np.subtract(x, hi, out=lo)


def _byte_rows(texts, width):
    """ASCII texts as the NUL-padded rows of a uint8 matrix."""
    return np.array(texts, f"S{width}").view(np.uint8).reshape(len(texts), width)


class _Tables(NamedTuple):
    """The lookup tables of the CSV formatter, indexed by E - _E_MIN or by a
    group q of four digits."""

    hi: np.ndarray  # 10**(16 - E) correctly rounded
    lo: np.ndarray  # the rest of 10**(16 - E), correctly rounded
    h1: np.ndarray  # hi's split
    h2: np.ndarray
    exact: np.ndarray  # lo == 0
    leads: np.ndarray  # "0." and -E - 1 zeros before a fixed cell below 1
    exps: np.ndarray  # "e+XX" of a scientific cell
    whole: np.ndarray  # digits before the dot
    quads: np.ndarray  # the four ASCII digits of q as one little-endian uint32
    quad_kept: np.ndarray  # how many of them run up to the last that is not "0"; -99 for 0000
    keep: np.ndarray  # [w, k]: byte mask of digit word w that keeps the first k digits


@functools.cache
def _tables() -> _Tables:
    """The formatter's tables, built read-only on first use, since only CSV
    output reads them.  %.17g writes E in -4..16 in fixed notation with
    E + 1 digits before the dot (none below 1), else one and an exponent."""
    his, los = [], []
    for s in range(16 - _E_MIN, 15 - _E_MAX, -1):
        if s >= 0:
            power = 10 ** s
            hi = float(power)
            lo = float(power - int(hi))
        else:
            den = 10 ** -s
            hi = 1 / den
            num, pow2 = hi.as_integer_ratio()
            lo = (pow2 - num * den) / (den * pow2)
        his.append(hi)
        los.append(lo)
    hi, lo = np.array(his), np.array(los)
    shrink = np.where(hi > 1e290, 2.0 ** -64, 1.0)  # keeps 10**308 * (2**27 + 1) finite
    h1, h2 = _split(hi * shrink)
    exponents = range(_E_MIN, _E_MAX + 1)
    fixed = [-4 <= e <= 16 for e in exponents]
    q = np.arange(10000, dtype=np.int32)
    quads = np.empty((10000, 4), np.uint8)
    for k, power in enumerate((1000, 100, 10, 1)):
        quads[:, k] = q // power % 10 + 48
    quad_kept = (4 - (q % 10 == 0) - (q % 100 == 0) - (q % 1000 == 0)).astype(np.int8)
    quad_kept[0] = -99
    tables = _Tables(
        hi, lo, h1 / shrink, h2 / shrink, lo == 0.0,
        leads=_byte_rows([b"0." + b"0" * (-e - 1) if f and e < 0 else b""
                          for e, f in zip(exponents, fixed)], 5),
        exps=_byte_rows([b"" if f else b"e%+03d" % e for e, f in zip(exponents, fixed)], 5),
        whole=np.array([max(e + 1, 0) if f else 1 for e, f in zip(exponents, fixed)], np.int8),
        quads=quads.view("<u4").ravel(), quad_kept=quad_kept,
        keep=np.array([[(1 << 8 * min(max(k - 4 * w, 0), 4)) - 1 for k in range(18)]
                       for w in range(5)], "<u4"))
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled_digits(a, i):
    """The 17-digit integer round-half-even(a * 10**(16 - E)), E = i + _E_MIN,
    and whether it is certain to be that with E the exponent of a.  p = a *
    hi is an even integer when E is right (p >= 10**16 > 2**53), and
    Dekker's t = a * hi - p is exact, so p + rint(t) is the half-even
    rounding wherever lo is zero (16 - E <= 22).  Elsewhere t + a * lo is
    within about 1e-14 of exact, and a result within 2**-20 of a tie, or of
    10**16 from below, is not certain."""
    tables = _tables()
    p = np.take(tables.hi, i)
    p *= a
    a1, a2 = _split(a)
    # the error of p, in Dekker's order with the factors swapped, plus a * lo
    f = np.take(tables.h1, i)
    t = a1 * f
    t -= p
    f *= a2
    t += f
    np.take(tables.h2, i, out=f)
    a1 *= f
    t += a1
    f *= a2
    t += f
    np.take(tables.lo, i, out=f)
    f *= a
    t += f
    del a1, a2, f
    exact = np.take(tables.exact, i)
    # a * 10**(16 - E) = p + t below 10**16 means E is one too big, even
    # where it rounds to the 17 digits of 10**16
    below = p - 1e16
    below += t
    below = (below < 0.0) | (~exact & (below < 2.0 ** -20))
    r = np.rint(t)
    t -= r
    sure = (exact | (np.abs(t, out=t) < 0.5 - 2.0 ** -20)) & ~below
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    return n, sure


def _digit_words(x):
    """The digits of each cell of the 1-D float array x as five little-endian
    uint32 words of ASCII (17 digits and 3 NULs), with the zeros after the
    dot made NUL; E - _E_MIN per cell; how many digits run up to the last
    that is not "0" (negative for a zero); and which cells must fall back."""
    a = np.abs(x)
    usable = (a >= 1e-290) & (a < 1e299)  # not zero, subnormal, huge, nan or inf
    a[~usable] = 1.0
    i = np.floor(np.log10(a)).astype(np.int16)
    i -= _E_MIN
    n, sure = _scaled_digits(a, i)
    del a
    # log10 is one off next to a power of ten, and the rounding may carry to
    # 10**17; such cells fall back
    usable &= sure & (n >= 10 ** 16) & (n < 10 ** 17)
    del sure
    fallback = ~usable & (x != 0.0)
    n[~usable] = 0  # zeros, and the fallback cells, are laid out as "0"
    i[~usable] = -_E_MIN

    tables = _tables()
    words = np.empty((x.size, 5), "<u4")
    kept = np.full(x.size, -99, np.int8)
    for w, power in enumerate((10 ** 13, 10 ** 9, 10 ** 5, 10)):
        q = n // power
        n -= q * power
        np.take(tables.quads, q, out=words[:, w])
        np.maximum(kept, np.take(tables.quad_kept, q) + np.int8(4 * w), out=kept)
    words[:, 4] = n + 48
    kept[n != 0] = 17
    del n
    shown = np.maximum(kept, np.take(tables.whole, i))
    for w in range(5):
        words[:, w] &= np.take(tables.keep[w], shown)
    return words, i, kept, fallback


def _cells(x):
    """The NUL-padded byte rows (sign, lead, digits and dot, exponent) of the
    cells of the 1-D float array x; the separator slot is left NUL."""
    words, i, kept, fallback = _digit_words(x)
    tables = _tables()
    digits = words.view(np.uint8)[:, :17]
    whole = np.take(tables.whole, i)
    out = np.zeros((x.size, _CELL), np.uint8)
    out[:, 0] = np.signbit(x)
    out[:, 0] *= 45  # "-"
    np.take(tables.leads, i, axis=0, out=out[:, _LEAD])
    # the digits, moved one right past the whole ones to make room for the dot
    body = out[:, _BODY]
    body[:, 1:] = digits
    for j in range(whole.max()):
        np.copyto(body[:, j], digits[:, j], where=whole > j)
    del words, digits
    dot = (kept > whole) & (whole > 0)
    out.ravel()[np.arange(_BODY.start, out.size, _CELL) + whole] = dot * np.uint8(46)  # "."
    np.take(tables.exps, i, axis=0, out=out[:, _EXP])
    slow = np.flatnonzero(fallback)
    if slow.size:
        out[slow] = 0
        out[slow, :24] = _byte_rows(["%.17g" % v for v in x[slow].tolist()], 24)
    return out


def _csv_text(block: np.ndarray) -> str:
    """The CSV lines of a 2-D float block, each cell ``'%.17g' % v`` (see
    the module docstring)."""
    rows, cols = block.shape
    cells = _cells(block.ravel()).reshape(rows, cols, _CELL)
    cells[:, :-1, _SEP] = 44  # ","
    cells[:, -1, _SEP] = 10  # "\n"
    text = cells.tobytes()
    del cells  # each copy of the block is let go as soon as the next exists
    text = text.translate(None, b"\0")
    return text.decode("ascii")


def _csv(header: list[str], tables: Iterable[np.ndarray]) -> Iterator[str]:
    """The header line, then the rows of each 2-D table in turn, in blocks of
    lines; a table is read to its end before the next one is asked for."""
    yield ",".join(header) + "\n"
    for table in tables:
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            yield _csv_text(table[start:start + _CSV_BLOCK_ROWS])


def _json_dump(obj) -> list[str]:
    """The JSON text of obj as the one chunk that _emit writes."""
    return [json.dumps(obj, indent=2, sort_keys=True) + "\n"]


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
        _emit(_csv(["n", "c_h1", "c_h2", "p_n"], [np.array(rows)]), args.out)
    return 0


def _cmd_transform(parser, args, p: PuParams) -> int:
    kind = args.kind
    name = transform.free_keyword(kind)  # Ta defaults ay to 1
    for other in ("ay", "bx", "by"):
        if other != name and getattr(args, other) is not None:
            parser.error(f"{kind} takes no --{other}")
    value = getattr(args, name)
    if value is None and name != "ay":
        parser.error(f"{kind[:3]} requires --{name}")
    spec = transform.build(kind, p, ax=args.ax, g=args.g, **{name: 1.0 if value is None else value})
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
    if args.steps > dynamics.MAX_STEPS:
        raise InvalidInputError(f"cannot take {args.steps:.12g} steps, "
                                f"at most {dynamics.MAX_STEPS}: lower --steps")
    times = np.linspace(0.0, args.t_end, args.steps + 1)
    states = dynamics.eval_solution(sol, times)
    # phi_s(v) = exp(sX) v for each state, as a stack of matvecs: the
    # product states @ exp(sX).T rounds differently
    flowed = np.matmul(expm(args.s * gens[args.generator].matrix), states[:, :, None])
    table = np.column_stack([times, require_finite_states(flowed[:, :, 0])])
    _emit(_csv(["t", "q", "qd", "qdd", "qddd"], [table]), args.out)
    return 0


def _simulate_tables(traj: dynamics.Trajectory, charges, pot) -> Iterator[np.ndarray]:
    """simulate's rows (t, the state, H1..H4 and, with a potential, Hint),
    one block of the trajectory at a time, each written over the last in one
    table.  Hint is the base charge's column (H1 for an on_q potential, H2
    for on_qdd) plus the potential: ``charge_values`` with ``augment`` makes
    the same two operations."""
    table = np.empty((min(len(traj.times), dynamics.BLOCK_ROWS), 9 + (pot is not None)))
    for part in traj.blocks():
        rows = table[:len(part.times)]
        rows[:, 0] = part.times
        rows[:, 1:5] = part.states
        for i, charge in enumerate(charges, start=5):
            rows[:, i] = dynamics.charge_values(part, charge)
        if pot is not None:
            base = rows[:, 5 if pot.kind == "on_q" else 6]
            np.add(base, dynamics.potential_values(part, pot), out=rows[:, 9])
        yield rows


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
    header = ["t", "q", "qd", "qdd", "qddd", "H1", "H2", "H3", "H4"] + ["Hint"] * (pot is not None)
    tables = _simulate_tables(traj, hierarchy.charge_ladder(p, 4).charges, pot)
    _emit(_csv(header, tables), args.out)
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
        # an overflow the library handles leaves no numpy warning on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](sub, args, p)
    except PuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
