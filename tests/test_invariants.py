"""Invariants of E(R1, R2) on channels drawn like the benchmark's.

Channels come from ``bench/workloads.generate_channel``, whose rows are
dense, sparse or near-deterministic, with inputs of zero mass; the rates
are drawn as fractions of the channel's range.  The examples are
derandomized, so every run checks the same ones.
"""
import json
import pathlib
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

from workloads import generate_channel  # noqa: E402

import wiretap_exponent as wx  # noqa: E402
from conftest import check_vertex_tries  # noqa: E402
from wiretap_exponent.channels import parse_channel_spec  # noqa: E402

TOL = 1e-9


@st.composite
def specs(draw):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    nx, nz = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    doc = generate_channel(np.random.default_rng(seed), nx, nz)
    return parse_channel_spec(json.dumps(doc))


@st.composite
def solvers(draw):
    return wx.ExponentSolver(draw(specs()))


fraction = st.floats(0.0, 1.0)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(solver=solvers(), a=fraction, b=fraction, c=fraction)
def test_exponent_bounds_and_monotonicity(solver, a, b, c):
    def e(r1, r2):
        return solver.exponent_rep1(wx.RatePair(r1, r2)).e

    top = 1.2 * solver.i_max + 0.05
    r1 = a * top
    r2 = b * r1
    value = e(r1, r2)
    # 0 <= E <= R1 - R2
    assert -TOL <= value <= r1 - r2 + TOL
    # nondecreasing in R1, nonincreasing in R2
    assert e(r1 + c * (top - r1), r2) >= value - TOL
    assert e(r1, r2 + c * (r1 - r2)) <= value + TOL
    # zero while R1 <= I(X;Z)
    low = a * solver.i_p
    assert abs(e(low, b * low)) <= TOL


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(spec=specs())
def test_forest_vertex_per_tree(spec):
    # every vertex the s = 0 walk tries is the whole-forest one
    check_vertex_tries(spec)
