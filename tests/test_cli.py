import argparse
import concurrent.futures
import json
import logging
import math
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

import wiretap_exponent as wx
from wiretap_exponent import (channels, cli, exponent, gaussian, security,
                              simulate)
from wiretap_exponent.cli import main
from wiretap_exponent.exponent import ExponentSolver

from conftest import ASYM_3X3_INPUT, ASYM_3X3_ROWS, SLOW_FIXED_POINT

LN2 = math.log(2.0)

BSC01_ARGS = ([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]])
# an input of mass 5e-324, the least subnormal, found by the CLI fuzz
TINY_MASS_ARGS = ([1.0, 5e-324],
                  [[1e-320, 0.0, 0.0, 1.0],
                   [0.9966777408637874, 0.0033222591362126247, 0.0,
                    3.322e-320]])


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def record_to_dict(text):
    rec = {}
    for line in text.strip().splitlines():
        key, value = line.split(" ", 1)
        rec[key] = value
    return rec


class TestExponentCommand:
    def test_record_fields(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, out, _ = run(capsys, ["exponent", path, "--r1", "0.6", "--r2", "0.1"])
        assert code == 0
        rec = record_to_dict(out)
        assert set(rec) == {"R1", "R2", "E", "E1", "E2", "E3", "branch",
                            "rep2", "lambda1", "lambda2", "rep_discrepancy"}
        assert abs(float(rec["rep_discrepancy"])) <= 1e-4
        assert float(rec["E"]) == pytest.approx(0.0534188, abs=1e-5)

    def test_tiny_input_mass(self, capsys, channel_file):
        # the true output marginal underflows to 0 at the second output,
        # and the table stack started from it unfloored: log 0 made the
        # s = 2 solve NaN, which exited 3
        path = channel_file(*TINY_MASS_ARGS)
        code, out, _ = run(capsys, ["exponent", path, "--r1", "0.1",
                                    "--r2", "0"])
        assert code == 0
        assert record_to_dict(out)["E"] == "0.1"

    def test_extrapolating_solves_keep_stderr_empty(self, capsys):
        # the solver's debug records stay off stderr by default
        code, out, err = run(capsys, ["exponent", SLOW_FIXED_POINT,
                                      "--r1", "1.15", "--r2", "0.5"])
        assert code == 0
        assert err == ""
        assert abs(float(record_to_dict(out)["rep_discrepancy"])) <= 1e-6

    def test_s_zero_cut_short_exits_3(self, capsys, monkeypatch):
        # the s = 0 vertex certifies at the first halving level, s = 2^-6;
        # a walk cut short, by that level's Newton solve stopping
        # uncertified or by finding no vertex down to the deepest level,
        # ends in the solver error
        argv = ["exponent", SLOW_FIXED_POINT, "--r1", "1.15", "--r2", "0.5"]
        assert run(capsys, argv)[0] == 0
        stack = exponent._newton_stack
        # one step for each stack of one; the table's stack keeps its cap
        monkeypatch.setattr(exponent, "_newton_stack", lambda *args: stack(
            *args[:-1], 1 if len(args[3]) == 1 else args[-1]))
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err.startswith("error: s=0 continuation did not certify down "
                              "to s=0.03125 ")
        monkeypatch.setattr(exponent, "_newton_stack", stack)
        monkeypatch.setattr(exponent, "_forest_vertex", lambda *args: None)
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err.startswith("error: s=0 continuation did not certify down "
                              "to s=6e-08 ")

    def test_equal_rates_zero(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, out, _ = run(capsys, ["exponent", path, "--r1", "0.4", "--r2", "0.4"])
        assert code == 0
        assert float(record_to_dict(out)["E"]) == 0.0

    def test_r2_above_r1_is_validation_error(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, _, err = run(capsys, ["exponent", path, "--r1", "0.1", "--r2", "0.2"])
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["exponent", "/nonexistent.json",
                                    "--r1", "0.5", "--r2", "0.1"])
        assert code == 2

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, ["exponent", str(path),
                                    "--r1", "0.5", "--r2", "0.1"])
        assert code == 2
        assert "line" in err

    def test_bits_conversion(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        _, out_nats, _ = run(capsys, ["exponent", path, "--r1", "0.6", "--r2", "0.1"])
        _, out_bits, _ = run(capsys, ["exponent", path, "--bits",
                                      "--r1", str(0.6 / LN2), "--r2", str(0.1 / LN2)])
        e_nats = float(record_to_dict(out_nats)["E"])
        e_bits = float(record_to_dict(out_bits)["E"])
        assert e_bits == pytest.approx(e_nats / LN2, abs=1e-9)


#: columns that hold rates or exponents, which --bits prints in bits
_RATE_COLUMNS = {"R1", "R2", "E", "E1", "E2", "E3", "lower", "upper",
                 "bracket_lower", "bracket_upper", "i_qstar", "d_qstar", "i_p",
                 "R1_req", "R2_req", "R1_real", "R2_real", "emp_exponent",
                 "E_asymptotic"}


def _columns(text):
    """Column name -> printed values, for CSV and key-value output alike."""
    lines = text.strip().splitlines()
    if "," not in lines[0]:
        return {key: [value] for key, value in
                (line.split(" ", 1) for line in lines)}
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {c: [row[k] for row in rows] for k, c in enumerate(header)}


# Rates in bits: a float is one rate, a list a comma-separated list of them
# and a tuple (lo, hi) a two-point grid, whose points are its ends.  The
# nats run gets each rate b as repr(b ln 2), the value the bits run turns
# it into, so both runs solve the same problems.
_BITS_CASES = {
    "sweep": ["sweep", "asym", "--r1-grid", (0.4, 1.6),
              "--r2-fractions", "0:1:3"],
    "region": ["region", "bsc", "--r1-list", [0.3, 0.7, 1.2]],
    "gaussian-record": ["gaussian", "--power", "1", "--noise", "1",
                        "--r1", 0.9, "--r2", 0.2],
    "gaussian-csv": ["gaussian", "--power", "1", "--noise", "1",
                     "--r1-grid", (0.4, 1.2), "--r2-grid", (0.0, 0.3)],
    "simulate": ["simulate", "bsc", "--n", "6", "--r1", 0.9, "--r2", 0.3,
                 "--trials", "4", "--seed", "5"],
}


@pytest.mark.parametrize("case", list(_BITS_CASES))
def test_bits_output(capsys, channel_file, case):
    paths = {"asym": channel_file(ASYM_3X3_INPUT, ASYM_3X3_ROWS, name="a"),
             "bsc": channel_file(*BSC01_ARGS, name="b")}

    def argv(scale):
        def rate(b):
            return repr(b * scale)
        out = []
        for arg in _BITS_CASES[case]:
            if isinstance(arg, float):
                out.append(rate(arg))
            elif isinstance(arg, list):
                out.append(",".join(rate(b) for b in arg))
            elif isinstance(arg, tuple):
                out.append(f"{rate(arg[0])}:{rate(arg[1])}:2")
            else:
                out.append(paths.get(arg, arg))
        return out

    code, nats, _ = run(capsys, argv(LN2))
    assert code == 0
    code, bits, _ = run(capsys, argv(1) + ["--bits"])
    assert code == 0
    nats, bits = _columns(nats), _columns(bits)
    assert list(bits) == list(nats) and all(nats.values())
    assert _RATE_COLUMNS & set(nats)
    for column, values in nats.items():
        if column in _RATE_COLUMNS:
            assert [float(v) for v in bits[column]] == pytest.approx(
                [float(v) / LN2 for v in values], abs=1e-9, nan_ok=True)
        else:
            assert bits[column] == values


class TestSweepCommand:
    def test_csv_structure_and_order(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, out, err = run(capsys, [
            "sweep", path, "--r1-grid", "0.2:0.8:4", "--r2-grid", "0.0:0.8:4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "R1,R2,E,E1,E2,E3,branch,class"
        rows = [line.split(",") for line in lines[1:]]
        r1s = [float(r[0]) for r in rows]
        assert r1s == sorted(r1s)
        for r in rows:
            assert float(r[1]) <= float(r[0]) + 1e-12
        # the skipped count is the only stderr line: every E is certified
        assert err == "skipped 6 grid points with R2 > R1\n"

    def test_zero_region_matches_classification(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        _, out, _ = run(capsys, [
            "sweep", path, "--r1-grid", "0.1:0.9:5", "--r2-fractions", "0:0.8:3"])
        spec = wx.load_channel_spec(path)
        i_p = wx.mutual_information(
            wx.ConditionalChannel(spec.wiretap, spec.input_dist))
        solver = ExponentSolver(spec)
        for line in out.strip().splitlines()[1:]:
            parts = line.split(",")
            r1, r2, e = float(parts[0]), float(parts[1]), float(parts[2])
            cls = parts[7]
            assert cls == wx.classify_rate_point(solver, wx.RatePair(r1, r2))
            if cls == "ZERO" and r1 > r2:
                assert r1 <= i_p + 1e-9 or e <= 1e-6

    def test_empty_grid_header_only(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, out, _ = run(capsys, [
            "sweep", path, "--r1-grid", "0:1:0", "--r2-grid", "0:1:4"])
        assert code == 0
        assert out.strip() == "R1,R2,E,E1,E2,E3,branch,class"

    def test_column_selection(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, out, _ = run(capsys, [
            "sweep", path, "--r1-grid", "0.5:0.5:1", "--r2-grid", "0.1:0.1:1",
            "--columns", "R1,E,class"])
        lines = out.strip().splitlines()
        assert lines[0] == "R1,E,class"
        assert len(lines[1].split(",")) == 3

    def test_unknown_column_rejected(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, _, _ = run(capsys, [
            "sweep", path, "--r1-grid", "0.5:0.5:1", "--r2-grid", "0.1:0.1:1",
            "--columns", "R1,bogus"])
        assert code == 2

    def test_byte_identical_rerun(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        args = ["sweep", path, "--r1-grid", "0.1:0.9:4", "--r2-fractions", "0:1:4"]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert out1 == out2

    def test_workers_match_sequential(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        base = ["sweep", path, "--r1-grid", "0.2:0.8:3", "--r2-grid", "0:0.4:3"]
        _, seq, _ = run(capsys, base)
        _, par, _ = run(capsys, base + ["--workers", "2"])
        assert seq == par

    def test_workers_match_sequential_asymmetric(self, capsys, channel_file):
        path = channel_file(ASYM_3X3_INPUT, ASYM_3X3_ROWS)
        base = ["sweep", path, "--r1-grid", "0:1.2:9",
                "--r2-fractions", "0:1:7"]
        _, seq, _ = run(capsys, base + ["--workers", "1"])
        _, par, _ = run(capsys, base + ["--workers", "2"])
        assert seq == par
        classes = {line.rsplit(",", 1)[1] for line in seq.splitlines()[1:]}
        assert classes == {"ZERO", "PARTIAL", "FULL"}

    def test_rows_independent_of_grid_extrapolating(self):
        # R1 near 1.15 puts phi's root-finding on the s ~ 0.51 solves,
        # where plain fixed-point jumps crawl; each row must not depend on
        # the rows that the same solver answered before it
        spec = wx.load_channel_spec(SLOW_FIXED_POINT)
        r1s = np.linspace(1.0, 1.16, 3)
        mode = ("fractions", np.linspace(0.0, 1.0, 3))
        cfg = cli._settings(argparse.Namespace())
        whole = cli._sweep_rows(spec, r1s, mode, cfg)[0]
        assert len(whole) == 9
        for i in range(3):
            one = cli._sweep_rows(spec, r1s[i:i + 1], mode, cfg)[0]
            assert one == whole[3 * i:3 * i + 3]

    def test_rows_match_exponent_of_loaded_spec(self, capsys, channel_file):
        # the rows solve the channel as loaded; renormalizing its rows a
        # second time moved E2 at R1 0.216, R2 0 in the last digit
        path = channel_file(ASYM_3X3_INPUT, ASYM_3X3_ROWS)
        code, out, _ = run(capsys, ["sweep", path, "--r1-grid", "0:1.2:101",
                                    "--r2-grid", "0:0:1"])
        assert code == 0
        solver = ExponentSolver(wx.load_channel_spec(path))
        rows = [line.split(",")[2:7] for line in out.splitlines()[1:]]
        expected = []
        for r1 in np.linspace(0.0, 1.2, 101):
            res = solver.exponent_rep1(wx.RatePair(float(r1), 0.0))
            expected.append([cli._fmt(v) for v in (res.e, res.e1, res.e2,
                                                   res.e3)]
                            + [res.active_branch])
        assert rows == expected

    def test_one_exponent_evaluation_per_row(self, capsys, channel_file,
                                             monkeypatch):
        # the sweep reads ExponentSolver._branches, the branch evaluation
        # that exponent_rep1 also wraps, without building an ExponentResult
        calls = {"branches": 0, "rep1": 0, "classify": 0}
        branches = ExponentSolver._branches
        rep1 = ExponentSolver.exponent_rep1
        classify = security.classify_rate_point

        def counted_branches(self, rates):
            calls["branches"] += 1
            return branches(self, rates)

        def counted_rep1(self, rates):
            calls["rep1"] += 1
            return rep1(self, rates)

        def counted_classify(*args, **kwargs):
            calls["classify"] += 1
            return classify(*args, **kwargs)

        monkeypatch.setattr(ExponentSolver, "_branches", counted_branches)
        monkeypatch.setattr(ExponentSolver, "exponent_rep1", counted_rep1)
        for module in (security, cli):
            monkeypatch.setattr(module, "classify_rate_point",
                                counted_classify, raising=False)
        path = channel_file(ASYM_3X3_INPUT, ASYM_3X3_ROWS)
        code, out, _ = run(capsys, ["sweep", path, "--r1-grid", "0.1:1.1:5",
                                    "--r2-fractions", "0:1:4"])
        assert code == 0
        assert calls == {"branches": len(out.splitlines()) - 1, "rep1": 0,
                         "classify": 0}

    @pytest.mark.parametrize("extra", [
        (), ("--bits",), ("--columns", "E3,branch,R2,class"),
        ("--columns", "E1"), ("--columns", "class,E2,R1", "--bits")],
        ids=["all", "bits", "reordered", "single", "reordered_bits"])
    def test_csv_bytes_match_per_field_reference(self, capsys, channel_file,
                                                 extra):
        # every field of the reference goes through _fmt on its own; each
        # selection holds a branch column that reads inf in some row: R2 = 0
        # lies below i_min (E1), R1 = 0 below it too (E2), and R1 = 1.2
        # nats above i_max (E3)
        path = channel_file(ASYM_3X3_INPUT, ASYM_3X3_ROWS)
        code, out, _ = run(capsys, ["sweep", path, "--r1-grid", "0:1.2:7",
                                    "--r2-fractions", "0:1:4", *extra])
        assert code == 0
        unit = LN2 if "--bits" in extra else 1.0
        columns = (extra[extra.index("--columns") + 1].split(",")
                   if "--columns" in extra else cli._SWEEP_COLUMNS)
        solver = ExponentSolver(wx.load_channel_spec(path))
        lines = [",".join(columns)]
        for r1 in np.linspace(0.0, 1.2, 7) * unit:
            for r2 in np.linspace(0.0, 1.0, 4) * r1:
                rates = wx.RatePair(float(r1), float(r2))
                res = solver.exponent_rep1(rates)
                rec = dict(zip(("R1", "R2", "E", "E1", "E2", "E3"),
                               (rates.r1, rates.r2, res.e, res.e1, res.e2,
                                res.e3)))
                rec = {c: v / unit for c, v in rec.items()}
                rec["branch"] = res.active_branch
                rec["class"] = wx.classify_exponent(res.e, rates)
                lines.append(",".join(cli._fmt(rec[c]) for c in columns))
        assert out == "\n".join(lines) + "\n"
        assert any("inf" in line.split(",") for line in lines[1:])

    def test_requires_exactly_one_r2_mode(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, _, _ = run(capsys, ["sweep", path, "--r1-grid", "0:1:3"])
        assert code == 2
        code, _, _ = run(capsys, ["sweep", path, "--r1-grid", "0:1:3",
                                  "--r2-grid", "0:1:3",
                                  "--r2-fractions", "0:1:3"])
        assert code == 2


def _wide_range_draw(k):
    """Draw k (from 0) of a channel family whose entries span many
    decades: sizes nx in [2, 12] and nz in [2, 24], entries e^u with u
    uniform on [-50, 0], rows normalized, a Dirichlet(1) input; numpy
    seed 7."""
    rng = np.random.default_rng(7)
    for _ in range(k + 1):
        nx, nz = rng.integers(2, 13), rng.integers(2, 25)
        rows = np.exp(rng.uniform(-50.0, 0.0, (nx, nz)))
        rows /= rows.sum(axis=1, keepdims=True)
        px = rng.dirichlet(np.ones(nx))
    return px.tolist(), rows.tolist()


class TestShortfallReport:
    """Draw 24 of the wide-range family, 3x24.  Near R1 = 0.9 the halving
    levels below the table do not certify, so the phi sandwich behind E
    stays about 2.4e-5 wide, far above 2 gap_tol.  E is printed as it is,
    with exit 0, and one stderr line reports the widest width.  The
    channel is not a tests/data fixture: the fixture tests assert widths
    of at most 2 gap_tol."""

    @pytest.fixture
    def draw24(self, channel_file):
        px, rows = _wide_range_draw(24)
        assert (len(px), len(rows[0])) == (3, 24)
        return channel_file(px, rows)

    @staticmethod
    def _width(line, pattern):
        return float(re.fullmatch(pattern, line).group(1))

    def test_exponent_reports_the_width(self, capsys, draw24):
        code, out, err = run(capsys, ["exponent", draw24, "--r1", "0.901888",
                                      "--r2", "0"])
        assert code == 0
        rec = record_to_dict(out)
        assert (rec["E"], rec["branch"]) == ("0.0537056013533", "E2")
        [line] = err.splitlines()
        width = self._width(line, r"warning: E rests on a sandwich (\S+) nats "
                            r"wide, wider than 2\*gap_tol = 2e-10")
        assert width == pytest.approx(2.4e-5, rel=0.01)

    def test_sweep_reports_the_widest(self, capsys, draw24):
        code, out, err = run(capsys, ["sweep", draw24, "--r1-grid",
                                      "0.895:0.91:7", "--r2-grid", "0:0:1"])
        assert code == 0
        assert len(out.splitlines()) == 8
        [line] = err.splitlines()
        width = self._width(line, r"warning: 4 of 7 rows rest on a sandwich "
                            r"wider than 2\*gap_tol = 2e-10; the widest is "
                            r"(\S+) nats")
        assert width == pytest.approx(2.41e-5, rel=0.01)

    def test_limit_follows_gap_tol(self, capsys, draw24):
        code, _, err = run(capsys, ["exponent", draw24, "--r1", "0.901888",
                                    "--r2", "0", "--gap-tol", "1e-4"])
        assert code == 0 and err == ""


class TestRegionCommand:
    def test_csv_and_bracket(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        spec = wx.load_channel_spec(path)
        an = wx.compute_qstar(ExponentSolver(spec))
        r1 = an.i_qstar + 0.05
        code, out, _ = run(capsys, ["region", path, "--r1-list", f"{r1},0.2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("R1,lower,upper,empty")
        first = lines[1].split(",")
        assert first[3] == "false"
        assert float(first[4]) <= float(first[5])
        second = lines[2].split(",")
        assert second[3] == "true"

    def test_r1_list(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, out, _ = run(capsys, ["region", path, "--r1-list", "0.2,0.9"])
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_tiny_input_mass(self, capsys, channel_file):
        # see TestExponentCommand.test_tiny_input_mass
        path = channel_file(*TINY_MASS_ARGS)
        code, out, _ = run(capsys, ["region", path, "--r1-list", "0.1,0.5"])
        assert code == 0
        assert len(out.splitlines()) == 3 and "nan" not in out

    def test_bracket_lower_not_negative(self, capsys, channel_file):
        # one effective input: the s = 2 solve leaves d_at_imax = 5.7e-31 of
        # rounding above i_max = 0, and bracket_lower printed -5.7e-31
        path = channel_file([1.0, 0.0], [[1 / 3, 2 / 3], [1 / 2, 1 / 2]])
        code, out, _ = run(capsys, ["region", path, "--r1-list", "0.1"])
        assert code == 0
        row = dict(zip(*(line.split(",") for line in out.splitlines())))
        assert row["bracket_lower"] == "0"
        assert row["bracket_valid"] == "true"

    def test_no_r1_given(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, _, _ = run(capsys, ["region", path])
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--r1-list"])
    def test_non_finite_r1(self, capsys, channel_file, flag, value):
        # nan reached the root-finder and exited 2 with a message about
        # the function value at x=-1
        path = channel_file(*BSC01_ARGS)
        code, out, err = run(capsys, ["region", path, flag, value])
        assert code == 2 and out == ""
        assert err == f"error: r1 must be positive and finite, got {value}\n"


@pytest.mark.parametrize("command", ["check", "exponent"])
@pytest.mark.parametrize("doc,field", [
    ({"input_dist": {"a": 1}, "wiretap": [[1.0], [1.0]]}, "'input_dist'"),
    ({"input_dist": [0.5, 0.5], "wiretap": [[{"a": 1}, 0], [0.5, 0.5]]},
     "'wiretap' row 0"),
], ids=["input-object", "wiretap-row-object"])
def test_non_numeric_channel_entries(capsys, tmp_path, command, doc, field):
    # objects where numbers belong ended in a TypeError traceback; the
    # messages for every vector are pinned in test_channels.py
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, str(path)]
    if command == "exponent":
        argv += ["--r1", "0.6", "--r2", "0.1"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {path}: {field} must be an array of numbers\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "exponent"])
@pytest.mark.parametrize("doc,field", [
    ({"input_dist": [True, False], "wiretap": [[True, False], [False, True]]},
     "'input_dist'"),
    ({"input_dist": [0.5, 0.5], "wiretap": [[True, False], [0.5, 0.5]]},
     "'wiretap' row 0"),
], ids=["input-bool", "wiretap-row-bool"])
def test_boolean_channel_entries(capsys, tmp_path, command, doc, field):
    # JSON booleans converted to 1.0 and 0.0: the first document passed
    # check and printed E 0.1 with exit 0
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, str(path)]
    if command == "exponent":
        argv += ["--r1", "0.1", "--r2", "0"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {path}: {field} must be an array of numbers\n"


@pytest.mark.parametrize("command", ["sweep", "gaussian"])
def test_grid_too_large_to_allocate(capsys, channel_file, command):
    # numpy refuses 10^15 steps (8 PB) without touching memory; the
    # allocation error ended in a traceback with exit 1
    argv = (["sweep", channel_file(*BSC01_ARGS), "--r2-fractions", "0:1:2"]
            if command == "sweep" else
            ["gaussian", "--power", "1", "--noise", "1", "--r2-grid", "0:1:2"])
    grid = "0:1:1000000000000000"
    code, out, err = run(capsys, argv + ["--r1-grid", grid])
    assert code == 2 and out == ""
    assert err == f"error: --r1-grid: too many steps in {grid!r}\n"


_NON_FINITE_GRIDS = [
    (command, flag, grid)
    for command in ("sweep", "gaussian")
    for flag, grid in (("--r1-grid", "0:inf:3"),
                       ("--r1-grid", "-1e308:1e308:3"),
                       ("--r2-grid", "nan:0.5:3"), ("--r2-grid", "-inf:0:2"))
] + [("sweep", "--r2-fractions", "-inf:1:2"),
     ("sweep", "--r2-fractions", "0:nan:2")]


@pytest.mark.parametrize("command,flag,grid", _NON_FINITE_GRIDS,
                         ids=[f"{c}{f}={g}" for c, f, g in _NON_FINITE_GRIDS])
def test_non_finite_grid_bound_rejected(capsys, channel_file, command, flag,
                                        grid):
    # a NaN bound passed the inverted-grid check, and gaussian counted its
    # points as "R2 > R1" and exited 0; an infinite bound or span made
    # np.linspace warn (an exception here)
    grids = {"--r1-grid": "1:1:1", "--r2-grid": "0:0.5:2", flag: grid}
    if command == "sweep":
        argv = ["sweep", channel_file(*BSC01_ARGS)]
        if flag == "--r2-fractions":
            del grids["--r2-grid"]
    else:
        argv = ["gaussian", "--power", "1", "--noise", "1"]
    argv += [f"{f}={g}" for f, g in grids.items()]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == (f"error: {flag}: MIN, MAX and MAX - MIN must be finite, "
                   f"got {grid!r}\n")


_NEGATIVE_GRIDS = [
    (command, flags)
    for command in ("sweep", "gaussian")
    for flags in ((("--r1-grid", "-2:-1:2"), ("--r2-grid", "0:1:2")),
                  (("--r1-grid", "0:1:2"), ("--r2-grid", "-1:1:2")),
                  (("--r1-grid", "1:1:1"), ("--r2-grid", "-1:-1:0")))
] + [("sweep", (("--r1-grid", "0:1:2"), ("--r2-fractions", "-0.5:1:2")))]


@pytest.mark.parametrize(
    "command,flags", _NEGATIVE_GRIDS,
    ids=[c + "".join(f"{f}={g}" for f, g in fl) for c, fl in _NEGATIVE_GRIDS])
def test_negative_grid_min_rejected(capsys, channel_file, command, flags):
    # with no pair evaluated (each skipped as R2 > R1, or an empty grid),
    # both commands printed the header and exited 0; with a negative pair
    # evaluated, they exited 2 on it
    argv = (["sweep", channel_file(*BSC01_ARGS)] if command == "sweep"
            else ["gaussian", "--power", "1", "--noise", "1"])
    code, out, err = run(capsys, argv + [f"{f}={g}" for f, g in flags])
    flag, grid = next((f, g) for f, g in flags if g.startswith("-"))
    assert code == 2 and out == ""
    assert err == f"error: {flag}: MIN must be nonnegative, got {grid!r}\n"


@pytest.mark.parametrize("case", ["z_samples", "codebook_budget"])
def test_size_too_large_to_allocate(capsys, channel_file, tmp_path, case):
    # numpy refuses 10^15 output samples (7 PiB) and a sub-code block of
    # 10^13 codewords (2.28 PiB) without touching memory; both ended in a
    # traceback with exit 1
    if case == "z_samples":
        argv = ["simulate", channel_file(ASYM_3X3_INPUT, ASYM_3X3_ROWS),
                "--n", "8", "--r1", "0.6", "--r2", "0.2", "--budget", "10",
                "--z-samples", str(10 ** 15)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"codebook_budget": 1e15}),
                       encoding="utf-8")
        argv = ["simulate", channel_file(*BSC01_ARGS), "--n", "30",
                "--r1", "1.0", "--r2", "0.5", "--config", str(cfg)]
    code, out, err = run(capsys, argv + ["--trials", "1", "--seed", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: Unable to allocate")
    assert err.count("\n") == 1 and "Traceback" not in err


class TestGaussianCommand:
    def test_record(self, capsys):
        code, out, _ = run(capsys, ["gaussian", "--power", "1.0",
                                    "--noise", "1.0",
                                    "--r1", "0.6", "--r2", "0.1"])
        assert code == 0
        rec = record_to_dict(out)
        assert float(rec["E"]) == pytest.approx(0.065613, abs=1e-5)
        assert rec["branch"] in ("E1", "E2", "E3")

    def test_sweep_columns(self, capsys):
        code, out, _ = run(capsys, [
            "gaussian", "--power", "1.0", "--noise", "1.0",
            "--r1-grid", "0.3:0.9:3", "--r2-grid", "0.0:0.3:2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "S,sigma2,R1,R2,E,E1,E2,E3,rho_star,sigma_z_star,branch"
        assert len(lines) > 1

    def test_one_objective_call_per_rate_value(self, capsys, monkeypatch):
        # every branch is a closed form: E1 evaluates the objective at R2
        # below C and E2 at R1, one scalar each, once per grid value and
        # not once per pair, and nothing searches
        calls = []
        objective = gaussian._objective

        def counted(rho, w, t):
            calls.append((rho, w, t))
            return objective(rho, w, t)

        monkeypatch.setattr(gaussian, "_objective", counted)
        cap = wx.GaussianSpec(1.0, 0.5).capacity
        grid = f"0:{1.5 * cap!r}:10"
        code, out, _ = run(capsys, ["gaussian", "--power", "1.0",
                                    "--noise", "0.5", "--r1-grid", grid,
                                    "--r2-grid", grid])
        assert code == 0
        assert len(out.splitlines()) - 1 == 55
        values = cli._parse_grid(grid, "").tolist()
        below = sum(r2 < cap for r2 in values)
        assert len(calls) == len(values) + below == 16
        assert not any(isinstance(v, np.ndarray) for c in calls for v in c)

    def test_retired_grid_flag_is_unknown(self, capsys):
        # --gaussian-grid was deprecated and ignored, the search's grid
        # being fixed; retired, it exits 2 like any unknown option
        argv = ["gaussian", "--power", "1", "--noise", "1",
                "--r1", "0.6", "--r2", "0.1"]
        assert run(capsys, argv)[0] == 0
        code, out, err = run(capsys, argv + ["--gaussian-grid", "7"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --gaussian-grid 7" in err

    def test_record_and_grid_flags_do_not_mix(self, capsys):
        # the grid ran and --r1 and --r2 were silently dropped
        argv = ["gaussian", "--power", "1", "--noise", "1",
                "--r1-grid", "0:1:2", "--r2-grid", "0:1:2"]
        assert run(capsys, argv)[0] == 0
        for rates in (["--r1", "0.5", "--r2", "0.1"], ["--r1", "0.5"],
                      ["--r2", "0.1"]):
            code, out, err = run(capsys, argv + rates)
            assert (code, out) == (2, "")
            assert err == ("error: sweep mode needs both --r1-grid and "
                           "--r2-grid, and neither --r1 nor --r2\n")

    def test_high_rate_e3_is_e2(self, capsys):
        # E3 was worked from the rounded rho1^2 and printed E = 12.6787192092
        # on branch E3; above C it is E2's value, and E1 = 15 is the least
        code, out, _ = run(capsys, ["gaussian", "--power", "1", "--noise", "1",
                                    "--r1", "20", "--r2", "5"])
        rec = record_to_dict(out)
        assert code == 0
        assert (rec["E"], rec["E1"], rec["branch"]) == ("15", "15", "E1")
        assert rec["E2"] == rec["E3"] == "19.2097711806"

    def test_scale_free(self, capsys):
        # S + 4 sigma^2 overflowed at S = sigma^2 = 1e308 (exit 2); every
        # column but sigma_z_star depends on S/sigma^2 alone
        grid = ["--r1-grid", "0:0.6:7", "--r2-grid", "0:0.6:7"]
        rows = []
        for v in ("1", "1e308"):
            code, out, _ = run(capsys, ["gaussian", "--power", v,
                                        "--noise", v] + grid)
            assert code == 0
            rows.append([line.split(",") for line in out.splitlines()[1:]])
        assert len(rows[0]) == len(rows[1]) == 28
        for a, b in zip(*rows):
            assert a[2:9] + a[10:] == b[2:9] + b[10:]
            assert float(b[9]) == pytest.approx(1e154 * float(a[9]), rel=1e-11)

    @pytest.mark.parametrize("r2", ("0", "0.5"))
    def test_huge_noise_is_finite(self, capsys, r2):
        # 4 sigma^2 overflowed here; S/sigma^2 = 5.9e-309 needs no sum
        code, out, _ = run(capsys, ["gaussian", "--power", "1", "--noise",
                                    "1.7e308", "--r1", "0.5", "--r2", r2])
        assert code == 0
        rec = record_to_dict(out)
        for name in ("E", "E1", "E2", "E3", "rho_star", "sigma_z_star"):
            assert math.isfinite(float(rec[name])), rec

    def test_validation(self, capsys):
        code, _, _ = run(capsys, ["gaussian", "--power", "-1", "--noise", "1",
                                  "--r1", "0.5", "--r2", "0.1"])
        assert code == 2
        code, _, _ = run(capsys, ["gaussian", "--power", "1", "--noise", "1"])
        assert code == 2
        # S/sigma^2 = inf made every branch NaN, and no branch was picked
        for rates in (["--r1", "1", "--r2", "0.5"],
                      ["--r1-grid", "0:1:3", "--r2-grid", "0:0.5:2"]):
            code, out, err = run(capsys, ["gaussian", "--power", "1e300",
                                          "--noise", "1e-300"] + rates)
            assert code == 2 and out == ""
            assert err == "error: S/sigma^2 = 1e+300/1e-300 overflows\n"


class TestSimulateCommand:
    def test_record(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, out, _ = run(capsys, [
            "simulate", path, "--n", "6", "--r1", "0.69", "--r2", "0.23",
            "--trials", "20", "--seed", "13"])
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        values = dict(zip(header, lines[1].split(",")))
        assert values["n"] == "6"
        assert 0.0 < float(values["pc_mean"]) <= 1.0
        assert float(values["emp_exponent"]) > 0.0
        assert values["seed"] == "13"
        assert float(values["E_asymptotic"]) > 0.0

    def test_byte_identical_rerun(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        args = ["simulate", path, "--n", "6", "--r1", "0.6", "--r2", "0.2",
                "--trials", "10", "--seed", "5"]
        _, a, _ = run(capsys, args)
        _, b, _ = run(capsys, args)
        assert a == b

    def test_workers_match_sequential(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        args = ["simulate", path, "--n", "6", "--r1", "0.6", "--r2", "0.2",
                "--trials", "8", "--seed", "5"]
        _, seq, _ = run(capsys, args)
        _, par, _ = run(capsys, args + ["--workers", "2"])
        assert seq == par

    @pytest.mark.parametrize("doc, argv, pc, emp", [
        # one sampled output that no sub-code decodes
        ((ASYM_3X3_INPUT, ASYM_3X3_ROWS),
         ["--n", "6", "--r1", "1.8", "--r2", "0", "--trials", "1",
          "--seed", "3", "--budget", "10", "--z-samples", "1"], "0", "inf"),
        # the noiseless channel: every codebook decodes
        (([0.5, 0.5], [[1, 0], [0, 1]]),
         ["--n", "4", "--r1", "0.3", "--r2", "0.1", "--trials", "3",
          "--seed", "1"], "1", "0"),
    ], ids=["pc_zero", "pc_one"])
    def test_extreme_pc(self, capsys, channel_file, doc, argv, pc, emp):
        path = channel_file(*doc)
        code, out, _ = run(capsys, ["simulate", path] + argv)
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert (values["pc_mean"], values["emp_exponent"]) == (pc, emp)

    @pytest.mark.parametrize("extra", [[], ["--budget", "10"]],
                             ids=["exact", "sampled"])
    def test_wide_channel_matches_its_narrow_form(self, capsys, channel_file,
                                                  extra):
        # all input mass on inputs 3 and 150 of 200; an int8 codebook
        # wrapped 150 to -106 and read row 94
        rows_a, rows_b = [0.9, 0.1], [0.2, 0.8]
        wide = [[0.5, 0.5]] * 200
        wide[3], wide[150] = rows_a, rows_b
        px = [0.0] * 200
        px[3] = px[150] = 0.5
        args = ["--n", "6", "--r1", "0.3", "--r2", "0.1", "--trials", "3",
                "--seed", "1"] + extra
        outs = []
        for doc, name in (((px, wide), "wide.json"),
                          (([0.5, 0.5], [rows_a, rows_b]), "narrow.json")):
            path = channel_file(*doc, name=name)
            code, out, _ = run(capsys, ["simulate", path] + args)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_budget_exceeded_exit_code(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, _, err = run(capsys, [
            "simulate", path, "--n", "40", "--r1", "0.9", "--r2", "0.1",
            "--trials", "1", "--seed", "1"])
        assert code == 4
        assert "budget" in err

    @pytest.mark.parametrize("r1, r2", [(100.0, 0.0), (100.0, 50.0),
                                        (1e308, 0.0)])
    def test_budget_message_names_the_whole_codebook(self, capsys,
                                                     channel_file, r1, r2):
        # M1 = round(e^{n R2}) round(e^{n (R1 - R2)}) at n = 4: far above
        # e^60, and beyond any float at R1 = 1e308
        code, out, err = run(capsys, [
            "simulate", channel_file(*BSC01_ARGS), "--n", "4",
            "--r1", str(r1), "--r2", str(r2), "--trials", "1",
            "--seed", "1"])
        assert code == 4 and out == ""
        named = re.fullmatch(
            r"error: M1 codewords = (\w+) exceeds the enumeration budget "
            r"4194304\n", err).group(1)
        if r1 == 1e308:
            assert named == "inf"
        else:
            assert int(named) == round(math.exp(4 * r2)) * round(
                math.exp(4 * (r1 - r2)))
            assert int(named) >= math.exp(4 * r1) * (1.0 - 1e-12)


class TestCheckCommand:
    def test_degraded_ok(self, capsys, channel_file):
        path = channel_file([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]],
                            main=[[0.9, 0.1], [0.1, 0.9]])
        code, out, err = run(capsys, ["check", path])
        assert code == 0
        assert "degraded: yes" in out
        assert err == ""

    def test_not_degraded_warns(self, capsys, channel_file):
        path = channel_file([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]],
                            main=[[0.8, 0.2], [0.2, 0.8]])
        code, out, err = run(capsys, ["check", path])
        assert code == 0
        assert "degraded: no" in out
        assert "warning" in err

    def test_no_main_channel(self, capsys, channel_file):
        path = channel_file(*BSC01_ARGS)
        code, out, _ = run(capsys, ["check", path])
        assert code == 0
        assert "skipped" in out

    @pytest.mark.parametrize("main_rows", [None, [[0.8, 0.2], [0.2, 0.8]]],
                             ids=["no-main", "not-degraded"])
    def test_output_file(self, capsys, channel_file, tmp_path, main_rows):
        # check printed its lines and ignored --output
        path = channel_file(*BSC01_ARGS, main=main_rows)
        code, ref, err = run(capsys, ["check", path])
        assert code == 0 and ref
        outfile = tmp_path / "check.txt"
        code, out, err_out = run(capsys, ["check", path,
                                          "--output", str(outfile)])
        assert (code, out, err_out) == (0, "", err)
        assert outfile.read_text(encoding="utf-8") == ref

    def test_lp_failure_exits_3(self, capsys, channel_file, monkeypatch):
        import scipy.optimize
        failed = scipy.optimize.OptimizeResult(
            success=False, status=4, nit=7, message="numerical difficulties")
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *args, **kwargs: failed)
        path = channel_file([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]],
                            main=[[0.9, 0.1], [0.1, 0.9]])
        code, out, err = run(capsys, ["check", path])
        assert code == 3
        assert "degraded" not in out
        assert err.startswith("error: degradedness LP failed: numerical "
                              "difficulties")
        assert "Traceback" not in err


def test_import_leaves_scipy_unloaded(channel_file):
    # importing scipy costs about 0.3 s of every CLI start, and no command
    # but `check` calls into it: the package and the CLI load no scipy
    # module, and `check` still runs its LP by importing scipy.optimize
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    path = channel_file([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]],
                        main=[[0.9, 0.1], [0.1, 0.9]])
    code = ("import sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "import wiretap_exponent\n"
            "print(loaded())\n"
            "import wiretap_exponent.cli\n"
            "print(loaded())\n"
            "code = wiretap_exponent.cli.main(['check', sys.argv[1]])\n"
            "print(code, 'scipy.optimize' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code, path], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    lines = done.stdout.strip().splitlines()
    assert lines[:2] == ["[]", "[]"]
    assert lines[-2:] == ["degraded: yes (residual 0)", "0 True"]


def test_import_leaves_process_pool_unloaded():
    # only simulate starts worker processes, and only with more than one
    # chunk: the CLI imports the process pool there, not at start-up
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys\n"
            "import wiretap_exponent.cli\n"
            "print('concurrent.futures.process' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "False\n"


class TestConfig:
    def test_readme_lists_every_setting(self):
        # the README names the config keys in one sentence; it must follow
        # _SETTINGS when a setting is added or removed
        readme = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = " ".join(fh.read().split())
        match = re.search(r"the config file may set (.*?)\. ", text)
        assert match, "README lost its 'the config file may set' sentence"
        names = re.findall(r"`(\w+)`", match.group(1))
        assert names == list(cli._SETTINGS)

    def test_config_file_and_flag_precedence(self, capsys, channel_file, tmp_path):
        path = channel_file(*BSC01_ARGS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gap_tol": 1e-8}), encoding="utf-8")
        code, out, _ = run(capsys, ["exponent", path, "--r1", "0.6",
                                    "--r2", "0.1", "--config", str(cfg)])
        assert code == 0
        code2, out2, _ = run(capsys, ["exponent", path, "--r1", "0.6",
                                      "--r2", "0.1", "--config", str(cfg),
                                      "--gap-tol", "1e-10"])
        assert code2 == 0
        ref_code, ref_out, _ = run(capsys, ["exponent", path, "--r1", "0.6",
                                            "--r2", "0.1"])
        assert out2 == ref_out

    def test_defaults_are_module_constants(self):
        assert cli._settings(argparse.Namespace()) == {
            "gap_tol": exponent.DEFAULT_GAP_TOL,
            "max_iter": exponent.DEFAULT_MAX_ITER,
            "classify_tol": security.DEFAULT_CLASSIFY_TOL,
            "z_budget": simulate.DEFAULT_Z_BUDGET,
            "codebook_budget": simulate.DEFAULT_CODEBOOK_BUDGET,
            "z_samples": simulate.DEFAULT_Z_SAMPLES,
            "workers": 1,
            "degraded_tol": channels.DEFAULT_DEGRADED_TOL,
        }

    @pytest.mark.parametrize("value", [None, "10", True, [1], 10 ** 400],
                             ids=["null", "string", "bool", "list", "huge"])
    @pytest.mark.parametrize("key", ["max_iter", "gap_tol", "table_points",
                                     "workers"])
    def test_non_numeric_setting_rejected(self, capsys, channel_file,
                                          tmp_path, key, value):
        # table_points is no setting (the multiplier table has a fixed 65
        # points): it is rejected as an unknown key whatever its value
        path = channel_file(*BSC01_ARGS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        code, out, err = run(capsys, ["exponent", path, "--r1", "0.5",
                                      "--r2", "0.1", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert key in err and "Traceback" not in err

    _OUT_OF_RANGE = [(key, value) for key in
                     ("workers", "max_iter", "z_samples", "z_budget",
                      "codebook_budget")
                     for value in (0, -3)] + \
        [("gap_tol", value) for value in (0.0, -1.0)] + \
        [(key, -1e-3) for key in ("classify_tol", "degraded_tol")]

    @pytest.mark.parametrize("key,value", _OUT_OF_RANGE,
                             ids=[f"{k}={v}" for k, v in _OUT_OF_RANGE])
    def test_setting_out_of_range_rejected(self, capsys, channel_file,
                                           tmp_path, key, value):
        path = channel_file(*BSC01_ARGS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        code, out, err = run(capsys, ["exponent", path, "--r1", "0.5",
                                      "--r2", "0.1", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert f"setting {key} must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("key,argv", [
        ("z_samples", ["simulate", "--n", "8", "--r1", "0.6", "--r2", "0.2",
                       "--trials", "4", "--seed", "1", "--budget", "1000",
                       "--z-samples", "0"]),
        ("gap_tol", ["exponent", "--r1", "0.5", "--r2", "0.1",
                     "--gap-tol", "-1"]),
        ("max_iter", ["exponent", "--r1", "0.5", "--r2", "0.1",
                      "--max-iter", "0"]),
        ("workers", ["simulate", "--n", "6", "--r1", "0.6", "--r2", "0.2",
                     "--trials", "2", "--seed", "1", "--workers", "0"]),
    ], ids=["z_samples", "gap_tol", "max_iter", "workers"])
    def test_flag_out_of_range_rejected(self, capsys, channel_file, key,
                                        argv):
        path = channel_file(*BSC01_ARGS)
        code, out, err = run(capsys, argv[:1] + [path] + argv[1:])
        assert code == 2
        assert out == ""
        assert f"setting {key} must be" in err

    def test_settings_at_their_limits_accepted(self, capsys, channel_file,
                                               tmp_path):
        path = channel_file(*BSC01_ARGS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 1, "classify_tol": 0,
                                   "degraded_tol": 0}), encoding="utf-8")
        code, _, err = run(capsys, ["exponent", path, "--r1", "0.5",
                                    "--r2", "0.1", "--config", str(cfg)])
        assert code == 0 and err == ""

    @pytest.mark.parametrize("key,value", [("z_samples", 2.9),
                                           ("max_iter", 100.7),
                                           ("workers", 1.5)])
    def test_non_integral_setting_rejected(self, capsys, channel_file,
                                           tmp_path, key, value):
        # an integer setting takes whole numbers only
        path = channel_file(*BSC01_ARGS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        code, out, err = run(capsys, ["exponent", path, "--r1", "0.6",
                                      "--r2", "0.1", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert f"setting {key} must be an integer, got {value!r}" in err

    def test_integral_float_setting_accepted(self, capsys, channel_file,
                                             tmp_path):
        path = channel_file(*BSC01_ARGS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "max_iter": 2e5,
            "codebook_budget": float(simulate.DEFAULT_CODEBOOK_BUDGET)}),
            encoding="utf-8")
        argv = ["exponent", path, "--r1", "0.6", "--r2", "0.1"]
        _, ref, _ = run(capsys, argv)
        code, out, err = run(capsys, argv + ["--config", str(cfg)])
        assert (code, out, err) == (0, ref, "")

    @pytest.mark.parametrize("key,value", [
        ("table_points", 0), ("table_points", 1),
        ("gaussian_grid", 100_000), ("refine_tol", 0.9)],
        ids=["0", "1", "gaussian_grid", "refine_tol"])
    def test_table_points_below_two_rejected(self, capsys, channel_file,
                                             tmp_path, key, value):
        # the multiplier table has a fixed 65 points, and the Gaussian
        # search a fixed grid and tolerance, so these are unknown keys,
        # whatever their value
        path = channel_file(*BSC01_ARGS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        code, out, err = run(capsys, ["exponent", path, "--r1", "0.5",
                                      "--r2", "0.1", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert f"unknown keys [{key!r}]" in err

    def test_unknown_config_key(self, capsys, channel_file, tmp_path):
        path = channel_file(*BSC01_ARGS)
        cfg = tmp_path / "cfg.json"
        # type_budget is no setting: no subcommand enumerates types
        cfg.write_text(json.dumps({"bogus": 1, "type_budget": 1}),
                       encoding="utf-8")
        code, _, err = run(capsys, ["exponent", path, "--r1", "0.6",
                                    "--r2", "0.1", "--config", str(cfg)])
        assert code == 2
        assert "unknown keys ['bogus', 'type_budget']" in err

    @pytest.mark.parametrize("text", ["null", "123", "[[1]]"])
    def test_config_top_level_not_object(self, capsys, channel_file,
                                         tmp_path, text):
        # set() of whatever json.load returned raised TypeError here
        path = channel_file(*BSC01_ARGS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["exponent", path, "--r1", "0.6",
                                      "--r2", "0.1", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert err == \
            f"error: config file {cfg}: top level must be an object\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "{\"gap_tol\": 1e-8,}"],
                             ids=["empty", "trailing-comma"])
    def test_malformed_config_names_the_file(self, capsys, channel_file,
                                             tmp_path, text):
        # printed only "error: Expecting value: line 1 column 1 (char 0)"
        path = channel_file(*BSC01_ARGS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["exponent", path, "--r1", "0.6",
                                      "--r2", "0.1", "--config", str(cfg)])
        exc = pytest.raises(json.JSONDecodeError, json.loads, text).value
        assert (code, out) == (2, "")
        assert err == (f"error: {cfg}: line {exc.lineno}, column "
                       f"{exc.colno}: {exc.msg}\n")

    def test_output_file(self, channel_file, tmp_path, capsys):
        path = channel_file(*BSC01_ARGS)
        outfile = tmp_path / "out.csv"
        code = main(["sweep", path, "--r1-grid", "0.5:0.5:1",
                     "--r2-grid", "0.1:0.1:1", "--output", str(outfile)])
        capsys.readouterr()
        assert code == 0
        assert outfile.read_text().startswith("R1,R2,E")


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size.

    The worker and each chunk go through a pickle round trip, as a process
    pool sends them.
    """

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return (pickle.loads(pickle.dumps(fn))(*pickle.loads(pickle.dumps(a)))
                for a in zip(*iterables))


class _PoolStarted(Exception):
    pass


def _no_pool(max_workers):
    raise _PoolStarted(max_workers)


class TestPoolSize:
    """Worker pools are sized by the chunks they get, not by --workers."""

    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        return _RecordingPool

    def test_chunks_capped_at_cpus(self, capsys, channel_file, pool,
                                   monkeypatch, tmp_path):
        # 5000 workers on 5000 items asked for 5000 processes
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        parts = cli._fan_out(range, 5000, 5000)
        assert pool.sizes == [3]
        assert parts == [range(0, 1666), range(1666, 3333), range(3333, 5000)]
        base = ["simulate", channel_file(*BSC01_ARGS), "--n", "6",
                "--r1", "0.6", "--r2", "0.2", "--trials", "5", "--seed", "5"]
        _, seq, _ = run(capsys, base)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 5000}), encoding="utf-8")
        code, par, _ = run(capsys, base + ["--config", str(cfg)])
        assert code == 0 and par == seq
        assert pool.sizes == [3, 3]

    def test_cpu_count_without_affinity(self, pool, monkeypatch):
        # where the platform has no affinity mask, os.cpu_count() caps
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        parts = cli._fan_out(range, 100, 100)
        assert pool.sizes == [7] and sum(map(len, parts)) == 100

    def test_simulate(self, capsys, channel_file, pool):
        path = channel_file(*BSC01_ARGS)
        base = ["simulate", path, "--n", "6", "--r1", "0.6", "--r2", "0.2",
                "--trials", "2", "--seed", "5"]
        _, seq, _ = run(capsys, base)
        code, par, _ = run(capsys, base + ["--workers", "64"])
        assert code == 0 and par == seq
        assert pool.sizes == [2]

    _IN_PROCESS = {
        "exponent": ["exponent", "CH", "--r1", "0.6", "--r2", "0.1"],
        "sweep": ["sweep", "CH", "--r1-grid", "0.2:0.8:3",
                  "--r2-fractions", "0:1:3"],
        "region": ["region", "CH", "--r1-list", "0.3,0.6"],
        "gaussian-record": ["gaussian", "--power", "1", "--noise", "1",
                            "--r1", "0.6", "--r2", "0.1"],
        "gaussian-grid": ["gaussian", "--power", "1", "--noise", "1",
                          "--r1-grid", "0:0.8:6", "--r2-grid", "0:0.8:6"],
        "check": ["check", "CH"],
    }

    @pytest.mark.parametrize("argv", list(_IN_PROCESS.values()),
                             ids=list(_IN_PROCESS))
    def test_only_simulate_starts_a_pool(self, capsys, channel_file,
                                         monkeypatch, tmp_path, argv):
        # only simulate reads workers, so no other subcommand may build a
        # pool at a config workers of 64, nor sweep at its ignored --workers
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _no_pool)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        path = channel_file(*BSC01_ARGS)
        argv = [path if a == "CH" else a for a in argv]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 64}), encoding="utf-8")
        code, ref, _ = run(capsys, argv)
        assert code == 0 and ref
        extras = [] if argv[0] == "gaussian" else [["--config", str(cfg)]]
        if argv[0] == "sweep":
            extras.append(["--workers", "2"])
        for extra in extras:
            assert run(capsys, argv + extra)[:2] == (0, ref)
        with pytest.raises(_PoolStarted):
            main(["simulate", path, "--n", "6", "--r1", "0.6", "--r2", "0.2",
                  "--trials", "2", "--seed", "5", "--workers", "2"])


_SUBCOMMANDS = {
    "exponent": ["exponent", "CH", "--r1", "0.6", "--r2", "0.1"],
    "sweep": ["sweep", "CH", "--r1-grid", "0.2:0.8:3",
              "--r2-fractions", "0:1:3"],
    "region": ["region", "CH", "--r1-list", "0.3,0.6"],
    "gaussian": ["gaussian", "--power", "1", "--noise", "1",
                 "--r1", "0.6", "--r2", "0.1"],
    "simulate": ["simulate", "CH", "--n", "6", "--r1", "0.6", "--r2", "0.2",
                 "--trials", "2", "--seed", "5", "--budget", "100"],
    "check": ["check", "CH"],
}


class TestFlagSurface:
    """Each subcommand takes only the flags it reads, spelled in full."""

    def _argv(self, channel_file, command, extra=()):
        path = channel_file(*BSC01_ARGS)
        return [path if a == "CH" else a
                for a in _SUBCOMMANDS[command]] + list(extra)

    # flags that were accepted and changed nothing, region's --r1, which
    # --r1-list silently overrode, and a flag no subcommand has; each is
    # reported under the subcommand's usage line, not the top-level one
    @pytest.mark.parametrize("command, extra", [
        *((command, ["--no-such-flag", "1"]) for command in _SUBCOMMANDS),
        ("exponent", ["--workers", "2"]),
        ("region", ["--workers", "2"]),
        ("gaussian", ["--workers", "2"]),
        ("check", ["--workers", "2"]),
        ("gaussian", ["--gap-tol", "1e-9"]),
        ("check", ["--gap-tol", "1e-9"]),
        ("gaussian", ["--max-iter", "50"]),
        ("check", ["--max-iter", "50"]),
        ("gaussian", ["--config", "CFG"]),
        ("check", ["--bits"]),
        ("region", ["--r1", "0.9"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_removed_flag_exits_2(self, capsys, channel_file, tmp_path,
                                  command, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}", encoding="utf-8")
        extra = [str(cfg) if a == "CFG" else a for a in extra]
        assert run(capsys, self._argv(channel_file, command))[0] == 0
        code, out, err = run(capsys, self._argv(channel_file, command, extra))
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: wiretap-exponent {command} ")
        assert f"unrecognized arguments: {' '.join(extra)}" in err

    # one prefix per subcommand: argparse read each as its full flag
    @pytest.mark.parametrize("command, flag, prefix", [
        ("exponent", "--output", "--out"),
        ("sweep", "--r1-grid", "--r1"),
        ("region", "--r1-list", "--r1-l"),
        ("gaussian", "--power", "--pow"),
        ("simulate", "--budget", "--bud"),
        ("check", "--output", "--out"),
    ], ids=lambda v: v)
    def test_prefix_exits_2(self, capsys, channel_file, tmp_path, command,
                            flag, prefix):
        outfile = tmp_path / "out.txt"
        argv = self._argv(channel_file, command, ["--output", str(outfile)])
        assert run(capsys, argv)[:2] == (0, "")
        outfile.unlink()
        code, out, _ = run(capsys, [prefix if a == flag else a for a in argv])
        assert (code, out) == (2, "")
        assert not outfile.exists()


class TestSampledSimulation:
    def test_switch_to_sampling_logged_not_printed(self, capsys, caplog,
                                                   channel_file):
        path = channel_file(*BSC01_ARGS)
        argv = ["simulate", path, "--n", "12", "--r1", "0.6", "--r2", "0.2",
                "--trials", "2", "--seed", "3", "--budget", "1000"]
        code, quiet, err = run(capsys, argv)
        assert code == 0 and err == ""
        with caplog.at_level(logging.DEBUG, logger="wiretap_exponent"):
            code, out, err = run(capsys, argv)
        assert code == 0 and out == quiet and err == ""
        assert any("|Z|^n = 4096 exceeds the budget 1000" in r.getMessage()
                   for r in caplog.records)
