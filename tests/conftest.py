import os

import numpy as np
import pytest

import wiretap_exponent as wx

ASYM_3X3_ROWS = [[0.70, 0.20, 0.10],
                 [0.10, 0.60, 0.30],
                 [0.20, 0.20, 0.60]]
ASYM_3X3_INPUT = [0.5, 0.3, 0.2]

# A random 16x16 channel (dense, sparse and near-deterministic rows, skewed
# input distribution) on which plain fixed-point jumps on the output
# marginal oscillate around s = 0.5: first-order iterations took about
# 40,000 steps for the table solve at s = 0.5, which Newton takes in 3.
SLOW_FIXED_POINT = os.path.join(os.path.dirname(__file__), "data",
                                "slow_fixed_point_16x16.json")


def make_bsc(p: float) -> wx.ChannelSpec:
    return wx.ChannelSpec(wx.Distribution([0.5, 0.5]),
                          wx.Dmc([[1 - p, p], [p, 1 - p]]))


def make_asym_3x3() -> wx.ChannelSpec:
    return wx.ChannelSpec(wx.Distribution(ASYM_3X3_INPUT),
                          wx.Dmc(ASYM_3X3_ROWS))


def random_channel(rng: np.random.Generator, nx: int, nz: int,
                   full_support: bool = True) -> wx.ChannelSpec:
    """Random channel with input mass bounded away from zero."""
    px = rng.dirichlet(np.full(nx, 3.0))
    px = 0.8 * px + 0.2 / nx
    px = px / px.sum()
    rows = rng.dirichlet(np.full(nz, 1.5), size=nx)
    if full_support:
        rows = 0.9 * rows + 0.1 / nz
    rows = rows / rows.sum(axis=1, keepdims=True)
    return wx.ChannelSpec(wx.Distribution(px), wx.Dmc(rows))


def random_test_channel(rng: np.random.Generator,
                        spec: wx.ChannelSpec) -> wx.ConditionalChannel:
    """Random conditional channel sharing the spec's input marginal."""
    nx = spec.input_dist.size
    nz = spec.wiretap.num_outputs
    rows = rng.dirichlet(np.ones(nz), size=nx)
    return wx.ConditionalChannel(rows, spec.input_dist)


@pytest.fixture
def bsc01() -> wx.ChannelSpec:
    return make_bsc(0.1)


@pytest.fixture
def channel_file(tmp_path):
    """Write a channel-spec JSON document and return its path."""

    def _write(input_dist, wiretap, main=None, name="channel.json"):
        import json
        doc = {"input_dist": input_dist, "wiretap": wiretap}
        if main is not None:
            doc["main"] = main
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write
