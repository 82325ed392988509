import argparse
import csv
import json
import math
import os
import stat
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from puosc import cli, dynamics, verify
from puosc.cli import build_parser

_AMPLITUDES = {"--A1": ("1", "0"), "--A2": ("0", "1"), "--B1": ("0", "1"), "--B2": ("1", "0")}
_RUNS = [  # (argv, {option: (value, other value)}) of quick runs; None leaves it out
    (["verify"], {"--seed": ("0", "1")}),
    (["hierarchy"], {"--n": ("3", "4"), "--format": ("csv", "json")}),
    (["transform"], {"--kind": ("Tb1", "Ta2+"), "--ax": ("1", "2"), "--bx": ("0.5", "1.5"),
                     "--g": ("1", "0.5")}),
    (["transform", "--kind", "Ta2+"], {"--ay": ("1", "2")}),
    (["transform", "--kind", "Tb2+"], {"--by": ("1", "2")}),
    (["flow"], {"--generator": ("X2", "X3"), "--s": ("0.5", "1"), "--t-end": ("1", "2"),
                "--steps": ("2", "3"), **_AMPLITUDES}),
    (["simulate"], {"--h": ("0.1", "0.25"), "--t-end": ("0.5", "1"), "--potential": ("quartic", None),
                    "--potential-kind": ("on_q", "on_qdd"), **_AMPLITUDES}),
    (["discover"], {}),
]
_STYLES = ({"--alpha": ("5", "6"), "--beta": ("4", "3")},
           {"--omega1": ("2", "2.5"), "--omega2": ("1", "1.5")})
# (fixed argv, option, value, other value): each option of each run, with
# the others at their first value, under both parameter styles
_OPTION_CASES = [
    ((*argv, *(x for o, (v, _) in options.items() if o != option and v is not None for x in (o, v))),
     option, value, other)
    for argv, run in _RUNS for style in _STYLES
    for options in [{**style, **run, "--out": (None, "OUT")}]
    for option, (value, other) in options.items()]
# a quick run of each subcommand that exits 0
_QUICK = {argv[0]: argv for argv, option, _, _ in _OPTION_CASES if option == "--out"}
# the one of --ay, --bx and --by that a transform kind reads, with a value
_TRANSFORM_READS = {"Ta2+": ("--ay", "1"), "Tb1": ("--bx", "0.5"), "Tb2+": ("--by", "1")}


@pytest.mark.parametrize("argv, option, value, other", _OPTION_CASES,
                         ids=lambda x: x[0] if isinstance(x, tuple) else None)
def test_every_option_changes_the_output(argv, option, value, other, monkeypatch, tmp_path):
    """An option that is accepted and ignored gives the same output and exit
    code for every value."""
    # two cheap checks that read the parameters and the seed stand in for all 30
    monkeypatch.setattr(verify, "CHECKS", [row for row in verify.CHECKS
                                           if row[0] in ("kernels.identities", "ghost.variants")])
    results = []
    for v in (value, other):
        extra = () if v is None else (option, str(tmp_path / v) if option == "--out" else v)
        r = run_cli(*argv, *extra)
        results.append((r.returncode, r.stdout, r.stderr))
    assert results[0] != results[1]


def test_option_cases_cover_every_option():
    """A new option must join _RUNS, so it cannot be one that is ignored."""
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {(name, option) for name, sub in commands.items() for action in sub._actions
               for option in action.option_strings if option not in ("-h", "--help")}
    assert {(argv[0], option) for argv, option, _, _ in _OPTION_CASES} == options


def test_failed_streamed_write_keeps_the_old_file(tmp_path):
    """A chunk that fails partway leaves --out as it was and no temp file."""
    out = tmp_path / "old.csv"
    out.write_text("old bytes\n")

    def chunks():
        yield "a,b\n"
        yield "1,2\n" * 5000
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._emit(chunks(), str(out))
    assert out.read_text() == "old bytes\n"
    assert [f.name for f in tmp_path.iterdir()] == ["old.csv"]


class TestUsageErrors:
    def test_both_parameter_styles_rejected(self):
        r = run_cli("simulate", "--alpha", "1", "--omega1", "1", "--omega2", "1", "--B1", "1")
        assert r.returncode == 2

    def test_missing_parameters_rejected(self):
        r = run_cli("hierarchy", "--n", "3")
        assert r.returncode == 2

    def test_partial_pair_rejected(self):
        r = run_cli("hierarchy", "--n", "3", "--alpha", "5")
        assert r.returncode == 2

    def test_unknown_flag_rejected(self):
        r = run_cli("verify", "--omega1", "2", "--omega2", "1", "--frobnicate")
        assert r.returncode == 2

    def test_verify_csv_rejected(self):
        r = run_cli("verify", "--omega1", "2", "--omega2", "1", "--format", "csv")
        assert r.returncode == 2

    @pytest.mark.parametrize("command", ["transform", "discover", "flow", "simulate"])
    def test_format_only_on_hierarchy(self, command):
        r = run_cli(*_QUICK[command], "--format", "csv")
        assert r.returncode == 2
        assert "unrecognized arguments: --format csv" in r.stderr

    @pytest.mark.parametrize("command, option", [
        *(pytest.param(c, "--seed 3", id=c) for c in ("flow", "simulate", "hierarchy",
                                                      "transform", "discover")),
        *(pytest.param(c, "--tol 1e-9", id=f"{c}-tol") for c in _QUICK),
    ])
    def test_seed_only_where_read_or_echoed(self, command, option):
        r = run_cli(*_QUICK[command], *option.split())
        assert r.returncode == 2
        assert f"unrecognized arguments: {option}" in r.stderr

    @pytest.mark.parametrize("kind, option", [
        (kind, option) for kind in ("Ta2+", "Tb1", "Tb2+")
        for option in ("--ay", "--bx", "--by") if option != _TRANSFORM_READS[kind][0]])
    def test_transform_rejects_an_option_its_kind_does_not_read(self, kind, option):
        r = run_cli("transform", "--kind", kind, "--omega1", "2", "--omega2", "1",
                    *_TRANSFORM_READS[kind], option, "1")
        assert r.returncode == 2
        assert f"{kind} takes no {option}" in r.stderr

    @pytest.mark.parametrize("command", ["verify"])
    def test_negative_seed_rejected(self, command):
        r = run_cli(command, "--omega1", "2", "--omega2", "1", "--seed", "-1")
        assert r.returncode == 2
        assert "expected a non-negative integer" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv", [
        ["simulate", "--omega1", "2", "--omega2", "1", "--h", "nan"],
        ["simulate", "--omega1", "2", "--omega2", "1", "--t-end", "inf"],
        ["simulate", "--omega1", "2", "--omega2", "1", "--t-end", "nan"],
        ["hierarchy", "--alpha", "nan", "--beta", "4"],
        ["transform", "--kind", "Tb1", "--omega1", "2", "--omega2", "1", "--bx=-inf"],
        ["flow", "--omega1", "2", "--omega2", "1", "--s", "nan"],
        ["simulate", "--omega1", "2", "--omega2", "1", "--potential", "quartic:lam=nan"],
        ["simulate", "--omega1", "2", "--omega2", "1", "--potential", "quartic:lam=inf"],
    ])
    def test_non_finite_option_rejected(self, argv):
        r = run_cli(*argv)
        assert r.returncode == 2
        assert "expected a finite number" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv", [
        ["hierarchy", "--alpha", "5", "--omega1", "2", "--omega2", "1"],
        ["hierarchy", "--omega1", "1e200", "--omega2", "1"],
        ["hierarchy", "--omega1=-2", "--omega2", "1"],
    ], ids=["both-styles", "overflowing-frequency", "negative-frequency"])
    def test_post_parse_error_names_subcommand(self, argv):
        r = run_cli(*argv)
        assert r.returncode == 2
        assert r.stderr.startswith("usage: puosc hierarchy")


class TestDomainErrors:
    @pytest.mark.parametrize("argv, code, stderr", [
        (("hierarchy", "--alpha", "1e160", "--beta", "1"), 1,
         "error: recursion step asymmetric by nan (relative)\n"),
        (("discover", "--alpha", "1e200", "--beta", "1"), 0, ""),
    ], ids=["hierarchy", "discover"])
    def test_overflow_leaves_no_numpy_warning(self, argv, code, stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be printed on stderr
            r = run_cli(*argv)
        assert (r.returncode, r.stderr) == (code, stderr)

    def test_beta_zero_hierarchy(self):
        r = run_cli("hierarchy", "--n", "3", "--alpha", "5", "--beta", "0")
        assert r.returncode == 1
        assert "beta" in r.stderr

    def test_transform_complex_branch(self):
        r = run_cli("transform", "--kind", "Ta2+", "--omega1", "2", "--omega2", "1",
                    "--ax", "1", "--ay", "1", "--g", "5")
        assert r.returncode == 1


class TestHierarchyCommand:
    def test_h3_row(self):
        r = run_cli("hierarchy", "--n", "3", "--alpha", "5", "--beta", "4")
        assert r.returncode == 0
        rows = list(csv.DictReader(r.stdout.splitlines()))
        h3 = rows[2]
        assert float(h3["c_h1"]) == pytest.approx(-4.0, abs=1e-10)
        assert float(h3["c_h2"]) == pytest.approx(-5.0, abs=1e-10)
        assert float(h3["p_n"]) == -21.0

    def test_json_format(self):
        r = run_cli("hierarchy", "--n", "2", "--alpha", "5", "--beta", "4",
                    "--format", "json")
        data = json.loads(r.stdout)
        assert data["charges"][0]["c_h1"] == pytest.approx(1.0, abs=1e-12)
        assert data["charges"][1]["c_h2"] == pytest.approx(1.0, abs=1e-12)

    def test_out_file_mode_follows_the_umask(self, tmp_path):
        plain, out = tmp_path / "plain.csv", tmp_path / "h.csv"
        saved = os.umask(0o022)
        try:
            plain.touch()
            modes = []
            for _ in range(2):  # a new report, then one written over it
                r = run_cli("hierarchy", "--alpha", "5", "--beta", "4", "--out", str(out))
                assert r.returncode == 0
                modes.append(stat.S_IMODE(out.stat().st_mode))
        finally:
            os.umask(saved)
        assert modes == [stat.S_IMODE(plain.stat().st_mode)] * 2 == [0o644] * 2
        assert sorted(f.name for f in tmp_path.iterdir()) == ["h.csv", "plain.csv"]


class TestTransformCommand:
    def test_tb1_report(self):
        r = run_cli("transform", "--kind", "Tb1", "--omega1", "2", "--omega2", "1",
                    "--ax", "1", "--bx", "0", "--g", "1")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["pullback"]["c_h1"] == pytest.approx(-5.0, abs=1e-9)
        assert data["pullback"]["c_h2"] == pytest.approx(-1.0, abs=1e-9)
        assert data["canonical"] is True
        table = np.array(data["bracket_table"])
        want = np.zeros((4, 4))
        want[0, 2] = want[1, 3] = 1.0
        want[2, 0] = want[3, 1] = -1.0
        assert np.max(np.abs(table - want)) <= 1e-10

    def test_ta1_reports_singular_tensor(self):
        r = run_cli("transform", "--kind", "Ta1+", "--omega1", "2", "--omega2", "1",
                    "--ax", "1", "--ay", "1", "--g", "0.2")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["flow_preserving_tensor"] is None
        assert data["canonical"] is False
        assert "tensor_error" in data


class TestFlowCommand:
    def test_curve_shape_and_header(self):
        r = run_cli("flow", "--omega1", "2", "--omega2", "1", "--generator", "X2",
                    "--s", "1", "--A1", "1", "--steps", "10", "--t-end", "5")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "t,q,qd,qdd,qddd"
        assert len(lines) == 12
        # X2 flow rescales the classical solution by e^(s/2)
        import math
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(0.0, abs=1e-12)
        assert float(row[2]) == pytest.approx(2.0 * math.exp(0.5), rel=1e-12)

    def test_negative_steps_rejected(self):
        r = run_cli("flow", "--omega1", "2", "--omega2", "1", "--steps", "-3")
        assert r.returncode == 2
        assert "--steps" in r.stderr and "Traceback" not in r.stderr

    def test_unshapeable_step_count_is_a_domain_error(self):
        # more samples than numpy can shape: refused before anything is allocated
        r = run_cli("flow", "--omega1", "2", "--omega2", "1", "--steps", str(10 ** 30))
        assert r.returncode == 1 and r.stderr.startswith("error: ") and "Traceback" not in r.stderr

    def test_steps_above_the_cap_are_refused_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the step cap")

        monkeypatch.setattr(np, "linspace", refuse)
        steps = dynamics.MAX_STEPS + 1
        r = run_cli("flow", "--omega1", "2", "--omega2", "1", "--steps", str(steps))
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == (f"error: cannot take {steps} steps, "
                            f"at most {dynamics.MAX_STEPS}: lower --steps\n")

    @pytest.mark.parametrize("s, message", [
        ("1e200", "phase state has non-finite entries"),
        ("1e308", "matrix 1-norm 5e+307 is too large for expm"),
    ], ids=["non-finite-state", "overflowing-norm"])
    def test_overflowing_flow_is_one_error_line_and_no_file(self, s, message, tmp_path):
        out = tmp_path / "curve.csv"
        r = run_cli("flow", "--omega1", "2", "--omega2", "1", "--A1", "1", "--s", s,
                    "--generator", "X2", "--steps", "5", "--out", str(out))
        assert (r.returncode, r.stdout, r.stderr) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_traced_peak_below_twice_the_csv(self, tmp_path):
        """The curve is evaluated as arrays over its time grid, with no
        object per sample."""
        out = tmp_path / "curve.csv"
        tracemalloc.start()
        try:
            code = cli.main(["flow", "--omega1", "2", "--omega2", "1", "--A1", "1",
                             "--steps", "20000", "--t-end", "20", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * out.stat().st_size

    def test_zero_steps_gives_one_row(self):
        r = run_cli("flow", "--omega1", "2", "--omega2", "1", "--A1", "1", "--steps", "0")
        assert r.returncode == 0
        assert len(r.stdout.strip().splitlines()) == 2

    def test_negative_exponent_value_parsed_as_value(self):
        spaced = run_cli("flow", "--omega1", "2", "--omega2", "1", "--A1", "-5e-05")
        joined = run_cli("flow", "--omega1", "2", "--omega2", "1", "--A1=-5e-05")
        assert spaced.returncode == joined.returncode == 0
        assert spaced.stdout == joined.stdout


@settings(derandomize=True, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_float_repr_parses_to_itself(x):
    parser = build_parser()
    base = ["flow", "--omega1", "2", "--omega2", "1"]
    for argv in ([*base, "--A1", repr(x)], [*base, f"--A1={x!r}"]):
        assert repr(parser.parse_args(argv).A1) == repr(x)


# the two simulate examples of the README, without their --out
_README_QUARTIC = ("simulate", "--omega1", "2", "--omega2", "1", "--A1", "0.3", "--h", "1e-3",
                   "--t-end", "20", "--potential", "quartic:lam=0.25")
_README_BLOW_UP = ("simulate", "--omega1", "1", "--omega2", "1", "--B1", "1", "--h", "1e-3",
                   "--t-end", "20", "--potential", "quartic:lam=0.25")


class TestSimulateCommand:
    def test_quartic_blow_up_reports_time(self):
        # the degenerate secular mode plus the quartic coupling diverges
        r = run_cli("simulate", "--omega1", "1", "--omega2", "1", "--B1", "1", "--h", "1e-3",
                    "--t-end", "20", "--potential", "quartic:lam=0.25")
        assert r.returncode == 1
        assert "integration diverged at t = 11.81" in r.stderr

    def test_blow_up_writes_the_finite_rows(self, tmp_path):
        out = tmp_path / "traj.csv"
        r = run_cli("simulate", "--omega1", "1", "--omega2", "1", "--B1", "1", "--h", "1e-3",
                    "--t-end", "20", "--potential", "quartic:lam=0.25", "--out", str(out))
        assert r.returncode == 1
        assert r.stderr == "error: integration diverged at t = 11.81\n"
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 11810
        assert float(rows[0]["t"]) == 0.0 and float(rows[-1]["t"]) < 11.81
        assert list(rows[0]) == ["t", "q", "qd", "qdd", "qddd", "H1", "H2", "H3", "H4", "Hint"]
        assert all(math.isfinite(float(row["q"])) for row in rows)

    def test_degenerate_growth_visible_in_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        r = run_cli("simulate", "--omega1", "1", "--omega2", "1", "--B1", "1",
                    "--h", "1e-3", "--t-end", "20", "--out", str(out))
        assert r.returncode == 0
        rows = list(csv.DictReader(out.open()))
        early = max(abs(float(row["q"])) for row in rows if float(row["t"]) <= 2.0)
        late = max(abs(float(row["q"])) for row in rows if float(row["t"]) >= 18.0)
        assert late > early

    def test_interaction_column(self):
        r = run_cli("simulate", "--omega1", "2", "--omega2", "1", "--A1", "0.3",
                    "--h", "1e-2", "--t-end", "1", "--potential", "quartic:lam=0.25")
        lines = r.stdout.strip().splitlines()
        assert lines[0].split(",")[-1] == "Hint"
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        last = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert float(first["Hint"]) == pytest.approx(float(last["Hint"]), abs=1e-8)

    @pytest.mark.parametrize("h, times", [("0.6", [0.0, 0.6, 1.2]), ("0.4", [0.0, 0.4, 0.8])])
    def test_grid_is_rounded_steps_of_h(self, h, times):
        # round(1 / 0.6) = 2 steps end past t_end, round(2.5) = 2 before it
        r = run_cli("simulate", "--omega1", "2", "--omega2", "1", "--A1", "0.3",
                    "--h", h, "--t-end", "1")
        assert r.returncode == 0
        assert [float(line.split(",")[0]) for line in r.stdout.splitlines()[1:]] == times

    @pytest.mark.parametrize("t_end", ["1", "1e10"])
    def test_unholdable_step_count_is_a_domain_error(self, t_end):
        # 1e300 steps are more than numpy can shape; 1e310 overflows to inf
        r = run_cli("simulate", "--omega1", "2", "--omega2", "1", "--h", "1e-300", "--t-end", t_end)
        assert r.returncode == 1
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv, code, stderr, rows", [
        (_README_QUARTIC, 0, "", 20001),
        (_README_BLOW_UP, 1, "error: integration diverged at t = 11.81\n", 11810),
    ], ids=["quartic", "blow-up"])
    def test_stdout_has_the_bytes_of_the_out_file(self, argv, code, stderr, rows, tmp_path):
        out = tmp_path / "traj.csv"
        to_file = run_cli(*argv, "--out", str(out))
        to_stdout = run_cli(*argv)
        assert (to_file.returncode, to_file.stderr, to_file.stdout) == (code, stderr, "")
        assert (to_stdout.returncode, to_stdout.stderr) == (code, stderr)
        assert to_stdout.stdout == out.read_text()
        values = np.loadtxt(out, delimiter=",", skiprows=1)
        assert values.shape[0] == rows and np.isfinite(values[:, :5]).all()

    def test_traced_peak_below_twice_the_csv(self, tmp_path):
        """The CSV is written in blocks of rows, so no copy of the whole text
        is held: the traced peak is the run's arrays, not its output."""
        out = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            code = cli.main([*_README_QUARTIC, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * out.stat().st_size

    def test_traced_peak_grows_by_the_trajectory_alone(self, tmp_path):
        """The charge columns are built one block of the trajectory at a
        time, so 18,000 more steps add to the traced peak little more than
        the trajectory's 40 bytes (time and state) per step."""
        argv = ["simulate", "--omega1", "2", "--omega2", "1", "--A1", "0.3", "--h", "1e-2",
                "--potential", "quartic:lam=0.25"]
        peaks = []
        for t_end in ("20", "200"):
            tracemalloc.start()
            try:
                code = cli.main([*argv, "--t-end", t_end, "--out", str(tmp_path / "traj.csv")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] - peaks[0] <= 80 * 18000

    def test_csv_round_trip_exact(self, tmp_path):
        out = tmp_path / "traj.csv"
        r = run_cli("simulate", "--omega1", "2", "--omega2", "1", "--A2", "1",
                    "--h", "1e-2", "--t-end", "1", "--out", str(out))
        assert r.returncode == 0
        text = out.read_text()
        lines = text.strip().splitlines()
        rebuilt = [lines[0]]
        for line in lines[1:]:
            rebuilt.append(",".join(format(float(tok), ".17g") for tok in line.split(",")))
        assert "\n".join(rebuilt) + "\n" == text


def _percent_g_csv(header, table):
    """The CSV text by its definition: every cell is ``'%.17g' % v``."""
    rows = [",".join("%.17g" % v for v in row) + "\n" for row in table.tolist()]
    return ",".join(header) + "\n" + "".join(rows)


# the edges of the %.17g layout: signed zeros, the subnormal and normal
# limits, the switches between fixed and scientific notation and their
# neighbours, the ends of the vectorized exponent range, integers around
# 2**53, non-finite values, and ties at the 17th digit (2**-25 is one whose
# scale 10**24 is not a double)
_EDGE_FLOATS = [
    0.0, 5e-324, 2.2250738585072014e-308, 9999999999999998.0, 2.0 ** 53 - 1, 2.0 ** 53,
    2.0 ** 53 + 2, math.nan, math.inf, 12345678.0009765625, 12345678.0029296875, 2.0 ** -25,
    *(float(np.nextafter(v, to)) for v in (1e-4, 1e16, 1e17, 1e-290, 1e299)
      for to in (0.0, v, 2 * v)),
]
_EDGE_FLOATS += [-v for v in _EDGE_FLOATS]
_BIT_PATTERNS = st.integers(0, 2 ** 64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
# 8 digits before the dot and 10 after it, the last a 5: a tie at the 17th
_TIES = st.builds(lambda whole, odd: whole + (2 * odd + 1) / 1024,
                  st.integers(10 ** 7, 10 ** 8 - 1), st.integers(0, 511))
_CELL_VALUES = _BIT_PATTERNS | st.floats() | st.sampled_from(_EDGE_FLOATS) | _TIES


class TestCsvNumbers:
    """CSV cells are the text of ``'%.17g' % v``, byte for byte."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(1, 6).flatmap(lambda cols: st.lists(
        st.lists(_CELL_VALUES, min_size=cols, max_size=cols), min_size=1, max_size=12)))
    def test_every_cell_is_percent_17g(self, rows):
        table = np.array(rows, dtype=float).reshape(len(rows), -1)
        header = [f"c{k}" for k in range(table.shape[1])]
        assert "".join(cli._csv(header, [table])) == _percent_g_csv(header, table)

    @pytest.mark.parametrize("rows", [0, 1, 511, 512, 513, 1023, 1024, 1025])
    def test_block_edges(self, rows):
        rng = np.random.default_rng(rows)
        bits = rng.integers(0, 2 ** 64, (rows, 3), dtype=np.uint64, endpoint=False)
        table = np.where(rng.random((rows, 3)) < 0.5, bits.view(np.float64),
                         rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-6, 18, (rows, 3)))
        header = ["a", "b", "c"]
        assert "".join(cli._csv(header, [table])) == _percent_g_csv(header, table)

    def test_every_edge_value(self):
        table = np.array(_EDGE_FLOATS).reshape(-1, 2)
        assert "".join(cli._csv(["x", "y"], [table])) == _percent_g_csv(["x", "y"], table)

    def test_powers_of_ten_and_their_neighbours(self):
        """The double nearest 10**k may lie below it by less than half a unit
        of the 17th digit (1e-07 is 9.9999999999999995e-08): log10 then
        names the exponent one too big, yet the product rounds to 10**16."""
        powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
        table = np.column_stack([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                                 -powers])
        header = ["p", "below", "above", "minus"]
        assert "".join(cli._csv(header, [table])) == _percent_g_csv(header, table)


class TestDiscoverCommand:
    def test_pairs_and_residuals(self):
        r = run_cli("discover", "--alpha", "5", "--beta", "4")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["kernel_dimension"] == 2
        assert len(data["pairs"]) == 2
        assert all(pair["residual"] <= 1e-10 for pair in data["pairs"])
        for pair in data["pairs"]:
            j = np.array(pair["j"])
            assert np.max(np.abs(j + j.T)) <= 1e-12


class TestVerifyCommand:
    def test_reports_to_stdout_without_out(self):
        r = run_cli("verify", "--omega1", "2", "--omega2", "1", "--seed", "7")
        assert r.returncode == 0
        assert json.loads(r.stdout)["pass"] is True
