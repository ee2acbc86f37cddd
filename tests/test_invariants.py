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


@st.composite
def twins(draw):
    """(a channel, its inputs and outputs relabelled, and the channel with
    one input's mass split over that input and a copy of its row)."""
    spec = draw(specs())
    w, rows = spec.input_dist.probs, spec.wiretap.rows
    nx, nz = rows.shape
    px, pz = draw(st.permutations(range(nx))), draw(st.permutations(range(nz)))
    relabelled = wx.ChannelSpec(wx.Distribution(w[px]),
                                wx.Dmc(rows[px][:, pz]))
    x = draw(st.sampled_from(np.flatnonzero(w).tolist()))
    part = draw(st.floats(0.1, 0.9))
    at = draw(st.integers(0, nx))       # where the copy goes
    split_w = np.insert(w, at, part * w[x])
    split_w[x + (at <= x)] -= part * w[x]
    split = wx.ChannelSpec(wx.Distribution(split_w),
                           wx.Dmc(np.insert(rows, at, rows[x], axis=0)))
    return spec, relabelled, split


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(channels=twins(), a=fraction, b=fraction)
def test_equivalent_channels_agree(channels, a, b):
    # relabelling symbols, or splitting an input over copies of its row,
    # describes the same experiment: E and its branches agree within the
    # certified widths
    spec, *others = channels
    solver = wx.ExponentSolver(spec)
    r1 = a * (1.2 * solver.i_max + 0.05)
    rates = wx.RatePair(r1, b * r1)
    base = solver.exponent_rep1(rates)
    for other in others:
        twin = wx.ExponentSolver(other).exponent_rep1(rates)
        tol = 2.0 * solver.gap_tol + base.gap_bound + twin.gap_bound
        for field in ("e", "e1", "e2", "e3"):
            x, y = getattr(base, field), getattr(twin, field)
            assert x == y or abs(x - y) <= tol, (field, x, y)
