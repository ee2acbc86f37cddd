"""Fuzz of all six subcommands through ``cli.main``, in-process.

Channel files mix entries of hostile sizes (subnormal, 1e-300, 1e-17, one
minus a tiny mass), inputs of zero mass and single outputs; rates run from
0 to 1e300 and Gaussian powers and noise variances up to the float range.
Every call must end with one of the documented exit codes (0, 2, 3 or 4),
never in a traceback, never print ``nan``, and print no negative exponent.
The examples are derandomized and sizes are capped (n, trials, grid steps
and budgets), so every run checks the same ones within a few seconds; no
call passes ``--workers``.  Grid bounds may be ``nan`` or ``inf``, passed
as ``--flag=MIN:MAX:STEPS`` so that argparse takes a leading minus, and a
``gaussian`` sweep must skip exactly its pairs with R2 > R1.
``test_inputs_that_once_failed`` keeps the inputs that ended in a
traceback, printed ``nan`` or miscounted skipped points before.
"""
import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wiretap_exponent import cli  # noqa: E402

#: entry sizes that have broken the solver before: subnormal, tiny, one ulp
#: above a near-zero row sum, and ordinary
SIZES = (0.0, 5e-324, 1e-320, 1e-300, 1e-17, 1e-9, 1e-3, 0.3, 1.0)
RATES = (0.0, 1e-300, 1e-17, 1e-9, 0.05, 0.1, 0.5, 0.69, 1.0, 2.0, 1e300)
#: simulate's rates stay low: e^(n R1) codewords are drawn and decoded
SIM_RATES = (0.0, 1e-9, 0.1, 0.3, 0.6, 1.0)
GAUSS = (5e-324, 1e-300, 1e-9, 0.5, 1.0, 3.0, 1e9, 1e300, 4e307, 1.7e308)
#: grid bounds the CLI must reject
NON_FINITE = (math.nan, math.inf, -math.inf)

#: the channel of one effective input: I is 0 on it, E = R1 - R2
ONE_INPUT = {"input_dist": [1.0, 0.0],
             "wiretap": [[0.3333333333333333, 0.6666666666666666],
                         [0.5, 0.5]]}

BSC = {"input_dist": [0.5, 0.5], "wiretap": [[0.9, 0.1], [0.1, 0.9]]}

#: stdout fields that hold an exponent, per subcommand
EXPONENT_FIELDS = {"exponent": ("E", "E1", "E2", "E3"),
                   "sweep": ("E", "E1", "E2", "E3"),
                   "gaussian": ("E", "E1", "E2", "E3"),
                   "simulate": ("emp_exponent", "E_asymptotic")}


@st.composite
def rows(draw, length):
    """A probability vector: hostile weights, normalized; or one entry at
    one minus a tiny mass."""
    if draw(st.booleans()):
        weights = draw(st.lists(st.sampled_from(SIZES), min_size=length,
                                max_size=length))
    else:
        weights = [0.0] * length
        weights[draw(st.integers(0, length - 1))] = 1.0
        if length > 1:
            eps = draw(st.sampled_from(SIZES[1:7]))
            weights[0 if weights[0] == 0.0 else -1] += eps
    total = sum(weights)
    if total == 0.0:
        weights[0], total = 1.0, 1.0
    return [w / total for w in weights]


@st.composite
def channels(draw):
    nx, nz = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    doc = {"input_dist": draw(rows(nx)),
           "wiretap": [draw(rows(nz)) for _ in range(nx)]}
    if draw(st.booleans()):
        ny = draw(st.integers(1, 3))
        doc["main"] = [draw(rows(ny)) for _ in range(nx)]
    return doc


def _rate(draw, values=RATES):
    return repr(draw(st.sampled_from(values)))


def _grid(draw, flag, values=RATES):
    """``flag=MIN:MAX:STEPS`` from values, or from values and NON_FINITE."""
    values = draw(st.sampled_from((values, values + NON_FINITE)))
    lo, hi = sorted(draw(st.lists(st.sampled_from(values), min_size=2,
                                  max_size=2)))
    return f"{flag}={lo!r}:{hi!r}:{draw(st.integers(0, 4))}"


@st.composite
def cases(draw, command):
    """(argv, files) for one call of ``command``: argv names the files CH
    and CFG, written from ``files`` before the call."""
    files = {"CH": draw(channels())}
    if command == "exponent":
        argv = ["exponent", "CH", "--r1", _rate(draw), "--r2", _rate(draw)]
    elif command == "sweep":
        argv = ["sweep", "CH", _grid(draw, "--r1-grid"),
                _grid(draw, "--r2-grid") if draw(st.booleans())
                else _grid(draw, "--r2-fractions", (0.0, 0.3, 1.0))]
    elif command == "region":
        argv = ["region", "CH", "--r1-list",
                ",".join(_rate(draw) for _ in range(draw(st.integers(1, 3))))]
    elif command == "gaussian":
        argv = ["gaussian", "--power", _rate(draw, GAUSS),
                "--noise", _rate(draw, GAUSS)]
        argv += ([_grid(draw, "--r1-grid"), _grid(draw, "--r2-grid")]
                 if draw(st.booleans())
                 else ["--r1", _rate(draw), "--r2", _rate(draw)])
    elif command == "simulate":
        argv = ["simulate", "CH", "--n", str(draw(st.integers(1, 6))),
                "--r1", _rate(draw, SIM_RATES), "--r2", _rate(draw, SIM_RATES),
                "--trials", str(draw(st.integers(1, 3))),
                "--seed", str(draw(st.integers(0, 9)))]
        if draw(st.booleans()):
            argv += ["--budget", str(draw(st.sampled_from((1, 10, 1000))))]
    else:
        argv = ["check", "CH"]
    # check takes no --bits and gaussian no --config: each would exit 2
    if command != "check" and draw(st.booleans()):
        argv.append("--bits")
    if command != "gaussian" and draw(st.booleans()):
        files["CFG"] = draw(st.fixed_dictionaries({}, optional={
            "classify_tol": st.sampled_from((0, 1e-300, 1e-3)),
            "z_samples": st.sampled_from((1, 7)),
            "codebook_budget": st.sampled_from((1, 50, 4096)),
            "max_iter": st.sampled_from((1, 3, 200)),
        }))
        argv += ["--config", "CFG"]
    return argv, files


def check_call(argv, files):
    """Run ``cli.main`` on argv, with the names in ``files`` replaced by
    paths of files holding their JSON documents, and check how it ends."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in files.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([paths.get(a, a) for a in argv])
    text = out.getvalue()
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "nan" not in text.lower()
    if code:
        assert err.getvalue().count("error:") == 1, err.getvalue()
    for name, value in _fields(argv[0], text):
        if name in EXPONENT_FIELDS.get(argv[0], ()):
            assert not value.startswith("-"), (name, value, text)
    if argv[0] == "gaussian" and code == 0 and "," in text:
        _check_skipped(argv, text, err.getvalue())


def _check_skipped(argv, text, err):
    """A gaussian sweep prints one row per pair with R2 <= R1 and counts
    the pairs with R2 > R1 as skipped, never a pair that is neither (one
    with a NaN rate)."""
    unit = math.log(2.0) if "--bits" in argv else 1.0
    grids = dict(a.split("=", 1) for a in argv if a.startswith("--r"))
    r1s, r2s = [np.linspace(float(lo), float(hi), int(steps)) * unit
                for lo, hi, steps in (grids[f].split(":")
                                      for f in ("--r1-grid", "--r2-grid"))]
    above = int((r2s[None, :] > r1s[:, None]).sum())
    found = re.search(r"skipped (\d+) grid points", err)
    assert (int(found.group(1)) if found else 0) == above, err
    assert len(text.splitlines()) - 1 + above == r1s.size * r2s.size


def _fields(command: str, text: str):
    """(name, value) of every field printed: key-value records or CSV."""
    lines = text.splitlines()
    if not lines:
        return []
    if command == "exponent" or (command == "gaussian" and "," not in text):
        return [tuple(line.split(" ", 1)) for line in lines]
    if command in ("sweep", "gaussian", "simulate", "region"):
        head = lines[0].split(",")
        return [pair for line in lines[1:]
                for pair in zip(head, line.split(","))]
    return []


@pytest.mark.parametrize("command", ["exponent", "sweep", "region",
                                     "gaussian", "simulate", "check"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exits_cleanly(command, data):
    check_call(*data.draw(cases(command)))


@pytest.mark.parametrize("argv, files", [
    # every branch of the one-point curve was empty: AttributeError
    (["exponent", "CH", "--r1", "0.1", "--r2", "0"], {"CH": ONE_INPUT}),
    (["region", "CH", "--r1-list", "0.1"], {"CH": ONE_INPUT}),
    (["sweep", "CH", "--r1-grid", "0:1:3", "--r2-fractions", "0:1:2"],
     {"CH": ONE_INPUT}),
    # 4 sigma^2 overflowed: TypeError, or nan and inf printed; the
    # branches now use S/sigma^2 alone, and these exit 0
    (["gaussian", "--power", "1", "--noise", "1.7e308", "--r1", "0.5",
      "--r2", "0"], {}),
    (["gaussian", "--power", "1", "--noise", "1.7e308", "--r1", "0.5",
      "--r2", "0.5"], {}),
    # a NaN bound passed as a grid: gaussian exited 0 and counted both NaN
    # points as "R2 > R1"
    (["gaussian", "--power", "1", "--noise", "1", "--r1-grid=1:1:1",
      "--r2-grid=nan:0.5:3"], {}),
    # an infinite bound or span: np.linspace's RuntimeWarning escaped
    (["gaussian", "--power", "1", "--noise", "1", "--r1-grid=0:inf:3",
      "--r2-grid=0:1:2"], {}),
    (["gaussian", "--power", "1", "--noise", "1",
      "--r1-grid=-1e308:1e308:3", "--r2-grid=0:1:2"], {}),
    (["sweep", "CH", "--r1-grid=0:inf:3", "--r2-grid=0:1:2"], {"CH": BSC}),
    (["sweep", "CH", "--r1-grid=-1e308:1e308:3", "--r2-grid=0:1:2"],
     {"CH": BSC}),
    (["sweep", "CH", "--r1-grid=0:1:3", "--r2-fractions=-inf:1:2"],
     {"CH": BSC}),
    # subnormal S and sigma^2: the divergence term's variance underflowed,
    # log(0) warned and E printed as 0 in place of 0.0264
    (["gaussian", "--power", "5e-324", "--noise", "5e-324", "--r1", "0.5",
      "--r2", "0"], {}),
])
def test_inputs_that_once_failed(argv, files):
    check_call(argv, files)
