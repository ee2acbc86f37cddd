"""An oracle for E(R1, R2) on 2x2 channels that shares no code with the
solver: nested dense grids over the two free parameters of the test
channel, each refined by zooming, with D and I written out in plain numpy.

E = R1 + min_Q [D(Q||P|P_X) - I_Q - Gamma(I_Q)] over test channels Q with
Q_X = P_X, Gamma(I) = [R2 - I]_+ - [I - R1]_+, which is the three-branch
minimum that ``exponent_rep1`` evaluates through the inner solves.  The
same grids minimize D - I, the s = 0 inner problem behind
``compute_qstar``.
"""
import math

import numpy as np
import pytest

import wiretap_exponent as wx

GRID = 401
ZOOM = np.linspace(-2.0, 2.0, 21)
ROUNDS = 16


def divergence_information(w, p, a, b):
    """(D, I) at the test channels [[1-a, a], [b, 1-b]]."""
    a, b = np.broadcast_arrays(a, b)
    q = np.stack([np.stack([1.0 - a, a], axis=-1),
                  np.stack([b, 1.0 - b], axis=-1)], axis=-2)
    qz = np.einsum("x,...xz->...z", w, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_terms = np.where(q > 0, q * np.log(q / p), 0.0)
        d_terms = np.where((q > 0) & (p == 0), np.inf, d_terms)
        i_terms = np.where(q > 0, q * np.log(q / qz[..., None, :]), 0.0)
    return (np.einsum("x,...xz->...", w, d_terms),
            np.einsum("x,...xz->...", w, i_terms))


def objective(w, p, r1, r2, a, b):
    """R1 + D - I - Gamma(I) at the test channels [[1-a, a], [b, 1-b]]."""
    d, i = divergence_information(w, p, a, b)
    gamma = np.maximum(r2 - i, 0.0) - np.maximum(i - r1, 0.0)
    return r1 + d - i - gamma


def _refine(f, x, fx):
    """Zooms each grid minimum x (value fx) of the 1-D functions f in on
    itself: a window of +-2 grid steps, resampled at 21 points, each round.
    The window holds the minimum of a function that is unimodal near it,
    kinked or not, so the step shrinks by 5 per round."""
    h = 1.0 / (GRID - 1)
    for _ in range(ROUNDS):
        zx = np.clip(x[:, None] + h * ZOOM, 0.0, 1.0)
        zv = f(zx)
        j = np.argmin(zv, axis=1)
        rows = np.arange(x.size)
        x, fx = zx[rows, j], np.minimum(fx, zv[rows, j])
        h /= 5.0
    return fx


def grid_min(f) -> float:
    """min over a of min over b of f(a, b), each a dense grid on [0, 1]
    refined by zooming, so that kinks (those of Gamma along I = R1 and
    I = R2) are met one dimension at a time."""
    grid = np.linspace(0.0, 1.0, GRID)

    def profile(a):
        # min over b for each a in the array a, of any shape
        a = a.ravel()[:, None]
        vals = f(a, grid[None, :])
        j = np.argmin(vals, axis=1)
        best = vals[np.arange(a.shape[0]), j]
        return _refine(lambda zb: f(a, zb), grid[j], best)

    outer = profile(grid)
    j = int(np.argmin(outer))
    return float(_refine(lambda za: profile(za).reshape(za.shape),
                         grid[j:j + 1], outer[j:j + 1])[0])


def oracle_exponent(w, p, r1, r2) -> float:
    w, p = np.asarray(w, float), np.asarray(p, float)
    return grid_min(lambda a, b: objective(w, p, r1, r2, a, b))


CHANNELS = {
    "asym-a": ([0.5, 0.5], [[0.9, 0.1], [0.3, 0.7]]),
    "asym-b": ([0.35, 0.65], [[0.8, 0.2], [0.15, 0.85]]),
    "z-channel": ([0.5, 0.5], [[1.0, 0.0], [0.25, 0.75]]),
    "skewed-input": ([0.9, 0.1], [[0.7, 0.3], [0.2, 0.8]]),
}
RATES = [(0.15, 0.0), (0.4, 0.1), (0.7, 0.3), (1.0, 0.6)]


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_rep1_matches_grid_oracle(name):
    w, rows = CHANNELS[name]
    spec = wx.ChannelSpec(wx.Distribution(w), wx.Dmc(rows))
    solver = wx.ExponentSolver(spec)
    for r1, r2 in RATES:
        e = solver.exponent_rep1(wx.RatePair(r1, r2)).e
        assert math.isfinite(e)
        assert abs(oracle_exponent(w, rows, r1, r2) - e) <= 1e-6, (r1, r2)


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_qstar_matches_grid_oracle(name):
    # the s = 0 end of the curve: d_qstar - i_qstar is min D - I
    w, rows = CHANNELS[name]
    spec = wx.ChannelSpec(wx.Distribution(w), wx.Dmc(rows))
    qstar = wx.compute_qstar(wx.ExponentSolver(spec))
    w, p = np.asarray(w, float), np.asarray(rows, float)
    oracle = grid_min(lambda a, b: np.subtract(
        *divergence_information(w, p, a, b)))
    assert abs(oracle - (qstar.d_qstar - qstar.i_qstar)) <= 1e-9
