import math
import os

import numpy as np
import pytest

import wiretap_exponent as wx
from wiretap_exponent import exponent

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


# ---------------------------------------------------------------------------
# the s = 0 forest vertex solved over the whole forest at every try
# ---------------------------------------------------------------------------

def _forest_rows(w, log_p, support, adj):
    """Log rows of the s = 0 vertex on the forest adj (nodes are rows x,
    then outputs nx + z), or None when it needs a negative flow: every
    tree solved afresh, in the order of its least node."""
    nx = w.size
    level, demand = np.zeros(len(adj)), np.zeros(len(adj))
    rows = np.full(log_p.shape, exponent._LOGZERO)
    done = np.zeros(len(adj), dtype=bool)
    for start in range(len(adj)):
        if done[start]:
            continue
        order, parent = exponent._preorder(adj, start)
        for b in order[1:]:
            a = parent[b]
            lp = log_p[min(a, b), max(a, b) - nx]
            level[b] = level[a] + (lp if b >= nx else -lp)
        xs = [a for a in order if a < nx]
        zs = [a for a in order if a >= nx]
        u = level[zs]
        top = u.max()
        u += math.log(w[xs].sum()) - top - math.log(np.exp(u - top).sum())
        demand[xs], demand[zs] = w[xs], np.exp(u)
        order, parent = exponent._preorder(
            adj, max(order, key=demand.__getitem__))
        for b in reversed(order[1:]):
            a, flow = parent[b], demand[b]
            if flow < 0.0:
                return None
            demand[a] -= flow
            x, z = min(a, b), max(a, b) - nx
            rows[x, z] = math.log(max(flow / w[x], exponent._TINY))
        done[order] = True
    return exponent._normalize_log_rows(rows, support)


def whole_forest_vertex(w, log_p, support, ln_v, gap_tol, it):
    """exponent._forest_vertex with every try solving the whole forest
    (_forest_rows): the reference its per-tree tries must reproduce."""
    nx, nz = log_p.shape
    score = np.where(support, log_p - ln_v[None, :], -np.inf)
    xs, zs = np.nonzero(support)
    slack = (score.max(axis=1)[:, None] - score)[xs, zs]
    root = list(range(nx + nz))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    adj = [[] for _ in range(nx + nz)]
    bare = nx + nz
    for e in np.argsort(slack, kind="stable"):
        x, z = int(xs[e]), nx + int(zs[e])
        rx, rz = find(x), find(z)
        if rx == rz:
            continue
        root[rx] = rz
        bare -= (not adj[x]) + (not adj[z])
        adj[x].append(z)
        adj[z].append(x)
        if bare:
            continue
        rows = _forest_rows(w, log_p, support, adj)
        if rows is None:
            continue
        q, qz, d, i, f = exponent._evaluate(w, log_p, rows, 0.0)
        gap = f - exponent._dual_bound(w, log_p, support,
                                       np.log(np.maximum(qz, exponent._TINY)))
        if gap <= gap_tol:
            return exponent._InnerSolution(0.0, rows, q, d, i, f, gap, it)
    return None


def check_vertex_tries(spec: wx.ChannelSpec) -> list:
    """Builds an ExponentSolver of spec, which may fail, and checks every
    _forest_vertex call of its s = 0 walk against whole_forest_vertex on
    the same arguments: both None, or the same log_q bytes, f and gap.
    Returns the calls' results in order."""
    vertex, tried = exponent._forest_vertex, []

    def record(*args):
        tried.append((args, vertex(*args)))
        return tried[-1][1]

    exponent._forest_vertex = record
    try:
        wx.ExponentSolver(spec)
    except wx.SolverError:
        pass
    finally:
        exponent._forest_vertex = vertex
    for args, sol in tried:
        ref = whole_forest_vertex(*args)
        assert (sol is None) == (ref is None)
        if sol is not None:
            assert sol.log_q.tobytes() == ref.log_q.tobytes()
            assert (sol.f, sol.gap) == (ref.f, ref.gap)
    return [sol for _, sol in tried]
