import importlib.util
import json
import logging
import math
import os
import sys

import numpy as np
import pytest
from scipy.special import rel_entr, xlogy

import wiretap_exponent as wx
from wiretap_exponent import exponent
from wiretap_exponent.channels import parse_channel_spec
from wiretap_exponent.cli import main
from wiretap_exponent.exponent import ExponentSolver

from conftest import (SLOW_FIXED_POINT, check_vertex_tries, make_asym_3x3,
                      make_bsc, random_channel, random_test_channel)
from scan_generated import generated
from workloads import cold_pool  # on the path scan_generated sets

LN2 = math.log(2.0)


def bsc_brute_force(p, r1, r2, step=1e-5):
    """Grid oracle over BSC test channels: the three constrained minima
    evaluated directly on a dense crossover grid."""
    eps = np.arange(0.0, 0.5 + step / 2, step)
    d = rel_entr(eps, p) + rel_entr(1.0 - eps, 1.0 - p)
    i = LN2 + xlogy(eps, eps) + xlogy(1.0 - eps, 1.0 - eps)
    e1 = r1 - r2 + d[i <= r2].min() if np.any(i <= r2) else math.inf
    band = (i >= r2) & (i <= r1)
    e2 = r1 + (d - i)[band].min() if np.any(band) else math.inf
    e3 = d[i >= r1].min() if np.any(i >= r1) else math.inf
    return min(e1, e2, e3)


class TestRatePair:
    def test_rejects_r2_above_r1(self):
        with pytest.raises(ValueError):
            wx.RatePair(0.5, 0.6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            wx.RatePair(-0.1, 0.0)

    def test_message_rate(self):
        assert wx.RatePair(0.6, 0.1).r == pytest.approx(0.5)


def nearest_rung(ladder, key):
    """The rung of a filled ladder nearest to key, found by a linear scan:
    the first of two equally near, which has the larger s."""
    return min(ladder, key=lambda rung: abs(rung.s - key))


def solve_at(solver, s):
    """The inner solve at s in [0, 2], as phi's sandwich solves a key: the
    cached solve, or else, with the table filled and the levels built down
    to s, the Newton solve from the nearest rung."""
    key = exponent._key(s)
    if key not in solver._cache:
        ladder = _filled(solver)._ladder
        while ladder[-1].s > key and solver._extend():
            pass
        solver._solve([key], nearest_rung(ladder, key))
    return solver._cache[key]


def inner_min(solver, mu):
    """(rows, D, I) of the minimizer of D + mu I with Q_X = P_X: the inner
    solve at s = 1 + mu, on the solver's reduced channel."""
    sol = solve_at(solver, 1.0 + mu)
    return sol.q, sol.d, sol.i


class TestInnerLagrangianMin:
    def test_mu_zero_returns_true_channel(self, bsc01):
        q, d, i = inner_min(ExponentSolver(bsc01), 0.0)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert i == pytest.approx(LN2 - (-0.1 * math.log(0.1) - 0.9 * math.log(0.9)),
                                  abs=1e-10)
        assert np.allclose(q, bsc01.wiretap.rows, atol=1e-9)

    def test_bsc_tilted_crossover_s1(self, bsc01):
        # s = 1 keeps the true channel: crossover p
        q, _, _ = inner_min(ExponentSolver(bsc01), 0.0)
        assert q[0, 1] == pytest.approx(0.1, abs=1e-9)

    def test_bsc_tilted_crossover_s2(self, bsc01):
        # s = 2 gives p^{1/2} / (p^{1/2} + (1-p)^{1/2}) = 1/4 exactly for p = 0.1
        q, _, _ = inner_min(ExponentSolver(bsc01), 1.0)
        assert q[0, 1] == pytest.approx(0.25, abs=1e-9)

    def test_global_minimality_against_probes(self):
        rng = np.random.default_rng(4)
        spec = random_channel(rng, 3, 3)
        solver = ExponentSolver(spec)
        for mu in (-1.0, -0.6, -0.2, 0.3, 1.0):
            q, d, i = inner_min(solver, mu)
            value = d + mu * i
            for _ in range(1000):
                probe = random_test_channel(rng, spec)
                pv = wx.weighted_divergence(probe, spec.wiretap) \
                    + mu * wx.mutual_information(probe)
                assert pv >= value - 1e-9

    def test_reproducible_across_solvers(self, bsc01):
        a = inner_min(ExponentSolver(bsc01), -0.7)
        b = inner_min(ExponentSolver(bsc01), -0.7)
        assert a[1] == b[1] and a[2] == b[2]
        assert np.array_equal(a[0], b[0])

    def test_bsc_noiseless_endpoint(self, bsc01):
        solver = ExponentSolver(bsc01)
        _, d, i = inner_min(solver, -1.0)
        assert solver._cache[0.0] is solver._zero
        assert i == pytest.approx(LN2, abs=1e-7)
        assert d == pytest.approx(math.log(1 / 0.9), abs=1e-7)

    def test_monotone_and_convex(self):
        # along a decreasing mu grid the minimizers trace the trade-off
        # phi(I) = min{D : I_Q = I}: I is nondecreasing and D convex in I
        rng = np.random.default_rng(5)
        spec = random_channel(rng, 3, 4)
        solver = ExponentSolver(spec)
        dv, iv = np.array([inner_min(solver, float(mu))[1:]
                           for mu in np.linspace(1.0, -1.0, 101)]).T
        assert np.all(np.diff(iv) >= -1e-10)
        for k in range(1, len(iv) - 1):
            if iv[k + 1] - iv[k - 1] < 1e-9:
                continue
            t = (iv[k] - iv[k - 1]) / (iv[k + 1] - iv[k - 1])
            chord = (1 - t) * dv[k - 1] + t * dv[k + 1]
            assert dv[k] <= chord + 1e-8

    def test_zero_divergence_only_at_ip(self, bsc01):
        solver = ExponentSolver(bsc01)
        for mu in np.linspace(1.0, -1.0, 81):
            _, d, i = inner_min(solver, float(mu))
            if d <= 1e-10:
                assert abs(i - solver.i_p) <= 1e-4


class TestExponentRep1:
    def test_equal_rates_give_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            spec = random_channel(rng, int(rng.integers(2, 4)),
                                  int(rng.integers(2, 4)))
            solver = ExponentSolver(spec)
            for r in (0.0, 0.05, 0.4, 1.0):
                assert solver.exponent_rep1(wx.RatePair(r, r)).e == 0.0

    def test_zero_region_below_ip(self, bsc01):
        solver = ExponentSolver(bsc01)
        res = solver.exponent_rep1(wx.RatePair(0.3, 0.1))
        assert res.e == 0.0
        assert res.active_branch in ("E2", "E3")

    def test_bsc_against_grid_oracle(self, bsc01):
        solver = ExponentSolver(bsc01)
        res = solver.exponent_rep1(wx.RatePair(0.6, 0.1))
        brute = bsc_brute_force(0.1, 0.6, 0.1)
        assert res.e == pytest.approx(brute, abs=1e-4)
        v2 = solver.exponent_rep2(wx.RatePair(0.6, 0.1))[0]
        assert abs(res.e - v2) <= 1e-4

    def test_min_and_branch_reporting(self, bsc01):
        solver = ExponentSolver(bsc01)
        res = solver.exponent_rep1(wx.RatePair(0.8, 0.2))
        assert res.e == min(res.e1, res.e2, res.e3)
        assert res.e1 >= res.e - 1e-12
        values = {"E1": res.e1, "E2": res.e2, "E3": res.e3}
        assert values[res.active_branch] <= res.e + 1e-9

    def test_e1_lower_bound(self):
        rng = np.random.default_rng(7)
        spec = random_channel(rng, 2, 3)
        solver = ExponentSolver(spec)
        for _ in range(20):
            r1 = float(rng.uniform(0, 1.0))
            r2 = float(rng.uniform(0, r1)) if r1 else 0.0
            res = solver.exponent_rep1(wx.RatePair(r1, r2))
            assert res.e1 >= r1 - r2 - 1e-12

    def test_q_star_consistency(self, bsc01):
        # on bsc01 nothing is dropped, so the achiever's rows are a test
        # channel of the whole spec
        solver = ExponentSolver(bsc01)
        rates = wx.RatePair(0.6, 0.1)
        res = solver.exponent_rep1(rates)
        achiever = solver._branches(rates)[5]
        q = wx.ConditionalChannel(achiever.q, bsc01.input_dist)
        d = wx.weighted_divergence(q, bsc01.wiretap)
        i = wx.mutual_information(q)
        # active branch is E2/E3 at I = R1; the achiever sits there
        assert i == pytest.approx(0.6, abs=1e-5)
        assert res.e == pytest.approx(d, abs=1e-6)


class TestExponentRep2:
    def test_matches_rep1_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            spec = random_channel(rng, int(rng.integers(2, 4)),
                                  int(rng.integers(2, 4)))
            solver = ExponentSolver(spec)
            for _ in range(4):
                r1 = float(rng.uniform(0, 1.2))
                r2 = float(rng.uniform(0, r1)) if r1 else 0.0
                e1 = solver.exponent_rep1(wx.RatePair(r1, r2)).e
                e2 = solver.exponent_rep2(wx.RatePair(r1, r2))[0]
                assert abs(e1 - e2) <= 1e-4

    def test_r2_zero_lambda2_vanishes(self, bsc01):
        solver = ExponentSolver(bsc01)
        value, lam1, lam2 = solver.exponent_rep2(wx.RatePair(0.5, 0.0))
        assert lam2 == 0.0
        assert value == pytest.approx(
            solver.exponent_rep1(wx.RatePair(0.5, 0.0)).e, abs=1e-9)

    def test_bsc_against_closed_form(self, bsc01):
        solver = ExponentSolver(bsc01)
        for rates in (wx.RatePair(0.6, 0.1), wx.RatePair(0.9, 0.4),
                      wx.RatePair(0.4, 0.0)):
            generic = solver.exponent_rep2(rates)[0]
            closed = wx.bsc_exponent_closed_form(0.1, rates)
            assert generic == pytest.approx(closed, abs=1e-9)

    def test_solve_populates_all_fields(self, bsc01):
        res = ExponentSolver(bsc01).solve(wx.RatePair(0.6, 0.1))
        assert res.rep2_value is not None
        assert 0.0 <= res.lambda1 <= 1.0
        assert 0.0 <= res.lambda2 <= 1.0
        assert abs(res.e - res.rep2_value) <= 1e-4


class TestOnePointCurve:
    """Channels whose rows are all one-hot: P is the only test channel, so
    the trade-off curve is one point, i_min == i_max == H(X), and
    E(R, 0) = [R - H(X)]_+."""

    @pytest.fixture(params=[[0.5, 0.5], [0.2, 0.3, 0.5]],
                    ids=["identity2", "identity3"])
    def solver(self, request):
        px = np.array(request.param)
        return ExponentSolver(wx.ChannelSpec(wx.Distribution(px),
                                             wx.Dmc(np.eye(px.size))))

    def test_rep2_matches_rep1(self, solver):
        assert solver.i_min == solver.i_max
        for r1 in (0.0, 0.3, 0.6, solver.i_max, 1.0, 1.5):
            for r2 in (0.0, 0.5 * r1):
                res = solver.solve(wx.RatePair(r1, r2))
                assert res.rep2_value == pytest.approx(res.e, abs=1e-12)
                assert res.e >= 0.0
                if r2 == 0.0:
                    assert res.e == pytest.approx(
                        max(r1 - solver.i_max, 0.0), abs=1e-12)

    def test_r2_zero_nonnegative(self, solver):
        for r in np.linspace(0.0, 1.5, 31):
            res = solver.solve(wx.RatePair(float(r), 0.0))
            expected = max(r - solver.i_max, 0.0)
            assert res.e == pytest.approx(expected, abs=1e-12)
            assert res.rep2_value == pytest.approx(expected, abs=1e-12)

    def test_cli_rep_discrepancy_zero(self, capsys, tmp_path):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({"input_dist": [0.5, 0.5],
                                    "wiretap": [[1, 0], [0, 1]]}),
                        encoding="utf-8")
        assert main(["exponent", str(path), "--r1", "0.3", "--r2", "0.1"]) == 0
        out = dict(line.split(" ", 1)
                   for line in capsys.readouterr().out.splitlines())
        assert (out["E"], out["rep2"], out["lambda1"],
                out["rep_discrepancy"]) == ("0", "0", "1", "0")


class TestExponentR2Zero:
    """E(R, 0) through both representations."""

    def test_zero_rate(self, bsc01):
        res = ExponentSolver(bsc01).solve(wx.RatePair(0.0, 0.0))
        assert res.e == 0.0
        assert res.rep2_value == pytest.approx(0.0, abs=1e-12)

    def test_beyond_curve_matches_rep1(self, bsc01):
        solver = ExponentSolver(bsc01)
        rates = wx.RatePair(solver.i_max + 0.2, 0.0)
        assert solver.exponent_rep2(rates)[0] == pytest.approx(
            solver.exponent_rep1(rates).e, abs=1e-8)

    def test_bsc_r_half_scalar_oracle(self, bsc01):
        solver = ExponentSolver(bsc01)
        rates = wx.RatePair(0.5, 0.0)
        value = solver.exponent_rep1(rates).e
        value2 = solver.exponent_rep2(rates)[0]
        assert value == pytest.approx(value2, abs=1e-6)
        # dense scalar grid over (eps, lambda1): E(R, 0) is the max over
        # lambda1 of min_Q {D + lambda1 [R - I_Q]}
        eps = np.linspace(1e-9, 0.5, 4001)
        d = rel_entr(eps, 0.1) + rel_entr(1 - eps, 0.9)
        i = LN2 + xlogy(eps, eps) + xlogy(1 - eps, 1 - eps)
        lam = np.linspace(0.0, 1.0, 2001)
        inner = d[None, :] + lam[:, None] * (0.5 - i[None, :])
        oracle = inner.min(axis=1).max()
        assert value == pytest.approx(oracle, abs=1e-4)
        assert value2 == pytest.approx(oracle, abs=1e-4)


class TestBscClosedForm:
    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            wx.bsc_exponent_closed_form(0.0, wx.RatePair(0.5, 0.1))
        with pytest.raises(ValueError):
            wx.bsc_exponent_closed_form(0.6, wx.RatePair(0.5, 0.1))

    def test_useless_channel_p_half(self):
        solver = ExponentSolver(make_bsc(0.5))
        for rates in (wx.RatePair(0.5, 0.1), wx.RatePair(0.3, 0.0)):
            closed = wx.bsc_exponent_closed_form(0.5, rates)
            generic = solver.exponent_rep2(rates)[0]
            assert closed == pytest.approx(generic, abs=1e-9)
            assert closed == pytest.approx(rates.r, abs=1e-9)

    def test_near_noiseless_limit(self):
        # p -> 0 hands the eavesdropper the codeword: zero exponent below
        # ln 2, and min(R1 - R2, R1 - ln 2) above it
        p = 1e-6
        solver = ExponentSolver(make_bsc(p))
        rates = wx.RatePair(0.5, 0.2)
        closed = wx.bsc_exponent_closed_form(p, rates)
        generic = solver.exponent_rep2(rates)[0]
        assert abs(closed - generic) <= 1e-9
        assert closed == pytest.approx(0.0, abs=1e-3)
        rates = wx.RatePair(0.8, 0.2)
        closed = wx.bsc_exponent_closed_form(p, rates)
        generic = solver.exponent_rep2(rates)[0]
        assert abs(closed - generic) <= 1e-9
        assert closed == pytest.approx(min(rates.r, rates.r1 - LN2), abs=1e-3)

    @pytest.mark.parametrize("p", [0.5, 0.45, 0.3, 0.2, 0.1, 0.05, 1e-6])
    def test_whole_plane(self, p, capsys):
        # every row of the 41x41 plane, R1 in [0, 1] and R2 = fraction * R1;
        # at p = 0.1 through the CLI sweep of the bundled BSC channel
        r1_values = np.linspace(0.0, 1.0, 41)
        fractions = np.linspace(0.0, 1.0, 41)
        rates = [wx.RatePair(float(r1), float(r2))
                 for r1 in r1_values for r2 in fractions * r1]
        if p == 0.1:
            path = os.path.join(os.path.dirname(__file__), "..", "channels",
                                "bsc01.json")
            assert main(["sweep", path, "--r1-grid", "0:1:41",
                         "--r2-fractions", "0:1:41"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].split(",")[:3] == ["R1", "R2", "E"]
            values = [float(line.split(",")[2]) for line in lines[1:]]
        else:
            solver = ExponentSolver(make_bsc(p))
            values = [solver.exponent_rep1(r).e for r in rates]
        assert len(values) == len(rates) == 41 * 41
        for r, e in zip(rates, values):
            assert abs(e - wx.bsc_exponent_closed_form(p, r)) <= 1e-9, r

    def test_shares_no_code_with_the_solver(self, monkeypatch):
        solver = ExponentSolver(make_bsc(0.2))
        cases = [wx.RatePair(r1, r2) for r1, r2 in
                 ((0.0, 0.0), (0.1, 0.05), (0.3, 0.1), (0.6, 0.1),
                  (0.6, 0.6), (0.9, 0.4), (1.2, 0.8))]
        want = [solver.exponent_rep1(r).e for r in cases]

        def fail(*args, **kwargs):
            raise AssertionError("the closed form called the solver")

        monkeypatch.setattr(exponent, "_newton_stack", fail)
        monkeypatch.setattr(exponent, "_jump", fail)
        monkeypatch.setattr(ExponentSolver, "__init__", fail)
        for r, e in zip(cases, want):
            assert abs(wx.bsc_exponent_closed_form(0.2, r) - e) <= 1e-9, r


class TestShapeProperties:
    def test_monotone_and_concave_small_grid(self, bsc01):
        solver = ExponentSolver(bsc01)
        r1s = np.linspace(0.1, 0.9, 7)
        r2s = np.linspace(0.0, 0.9, 7)
        e = {}
        for r1 in r1s:
            for r2 in r2s[r2s <= r1 + 1e-12]:
                e[(round(float(r1), 9), round(float(r2), 9))] = \
                    solver.exponent_rep1(wx.RatePair(float(r1), min(float(r2), float(r1)))).e
        for r2 in r2s:
            col = [e[k] for k in sorted(e) if k[1] == round(float(r2), 9)]
            assert all(b >= a - 1e-6 for a, b in zip(col, col[1:]))
        for r1 in r1s:
            row = [e[k] for k in sorted(e) if k[0] == round(float(r1), 9)]
            assert all(b <= a + 1e-6 for a, b in zip(row, row[1:]))
            for a, b, c in zip(row, row[1:], row[2:]):
                assert a - 2 * b + c <= 1e-6

    def test_bounds_everywhere(self):
        rng = np.random.default_rng(9)
        spec = random_channel(rng, 3, 2)
        solver = ExponentSolver(spec)
        for _ in range(25):
            r1 = float(rng.uniform(0, 1.5))
            r2 = float(rng.uniform(0, r1)) if r1 else 0.0
            res = solver.exponent_rep1(wx.RatePair(r1, r2))
            assert -1e-12 <= res.e <= r1 - r2 + 1e-9

    @pytest.mark.parametrize("name", ["bsc01", "asym3x3"])
    def test_branch_structure_on_the_plane(self, name):
        """Two facts of the branches on a 41x41 plane, R2 = f * R1.

        Below I(P) in R2, E1 never undercuts a finite E2: with b = min(R1,
        i_max), e1 = R1 - R2 + phi(R2) >= R1 + phi(b) - b = e2, because
        phi' = 1 - s <= 1 makes phi(I) - I nonincreasing.  For I(P) < R1
        <= i_max, E2 and E3 both read phi(R1), so they agree to rounding.
        """
        path = os.path.join(os.path.dirname(__file__), "..", "channels",
                            f"{name}.json")
        solver = ExponentSolver(wx.load_channel_spec(path))
        for r1 in np.linspace(0.0, 1.2 * solver.i_max + 0.05, 41):
            for r2 in np.linspace(0.0, 1.0, 41) * r1:
                rates = wx.RatePair(float(r1), float(r2))
                _, e1, e2, e3, *_ = solver._branches(rates)
                if r2 < solver.i_p and math.isfinite(e2):
                    assert e1 >= e2 - 1e-15, rates
                if solver.i_p < r1 <= solver.i_max:
                    assert abs(e2 - e3) <= 1e-15, rates


class TestSparseSupport:
    def test_rep_equivalence_with_structural_zeros(self):
        rng = np.random.default_rng(31337)
        for _ in range(25):
            nx = int(rng.integers(2, 5))
            nz = int(rng.integers(2, 5))
            rows = rng.dirichlet(np.full(nz, 1.0), size=nx)
            mask = rng.random((nx, nz)) < 0.3
            for x in range(nx):
                mask[x, int(rng.integers(0, nz))] = False
            rows = np.where(mask, 0.0, rows)
            rows = rows / rows.sum(axis=1, keepdims=True)
            px = rng.dirichlet(np.full(nx, 2.0))
            px = 0.85 * px + 0.15 / nx
            spec = wx.ChannelSpec(wx.Distribution(px / px.sum()), wx.Dmc(rows))
            solver = ExponentSolver(spec)
            for _ in range(4):
                r1 = float(rng.uniform(0, 1.4))
                r2 = float(rng.uniform(0, r1)) if r1 else 0.0
                rates = wx.RatePair(r1, r2)
                a = solver.exponent_rep1(rates).e
                b = solver.exponent_rep2(rates)[0]
                assert abs(a - b) <= 1e-4
                assert -1e-10 <= a <= r1 - r2 + 1e-8

    def test_unreachable_output_column_dropped(self):
        spec = wx.ChannelSpec(wx.Distribution([0.6, 0.4]),
                              wx.Dmc([[0.9, 0.0, 0.1], [0.2, 0.0, 0.8]]))
        solver = ExponentSolver(spec)
        rates = wx.RatePair(0.5, 0.1)
        res = solver.solve(rates)
        assert abs(res.e - res.rep2_value) <= 1e-6
        assert solver._branches(rates)[5].q.shape == (2, 2)

    def test_near_deterministic_rows_and_skewed_input(self):
        # tiny equilibrium masses make the small-s landscape delicate;
        # both representations must still agree
        rng = np.random.default_rng(777)
        for _ in range(8):
            nx = int(rng.integers(2, 6))
            nz = int(rng.integers(2, 6))
            rows = np.full((nx, nz), 1e-7)
            for x in range(nx):
                rows[x, int(rng.integers(0, nz))] = 1.0
            rows = rows / rows.sum(axis=1, keepdims=True)
            px = rng.dirichlet(np.full(nx, 0.3))
            px = np.maximum(px, 1e-6)
            spec = wx.ChannelSpec(wx.Distribution(px / px.sum()), wx.Dmc(rows))
            solver = ExponentSolver(spec)
            for _ in range(3):
                r1 = float(rng.uniform(0, 2.0))
                r2 = float(rng.uniform(0, r1)) if r1 else 0.0
                rates = wx.RatePair(r1, r2)
                a = solver.exponent_rep1(rates).e
                b = solver.exponent_rep2(rates)[0]
                assert abs(a - b) <= 1e-4
                assert -1e-9 <= a <= r1 - r2 + 1e-7


class TestDeterminism:
    def test_bitwise_reproducible(self, bsc01):
        rates = wx.RatePair(0.6, 0.1)
        s1, s2 = ExponentSolver(bsc01), ExponentSolver(bsc01)
        a, b = s1.solve(rates), s2.solve(rates)
        assert a == b
        # the achiever behind e has the same bits on both solvers
        assert s1._branches(rates)[5].q.tobytes() == \
            s2._branches(rates)[5].q.tobytes()

    def test_query_order_independent(self, bsc01):
        s1 = ExponentSolver(bsc01)
        s2 = ExponentSolver(bsc01)
        pairs = [wx.RatePair(0.6, 0.1), wx.RatePair(0.8, 0.5),
                 wx.RatePair(0.2, 0.05)]
        res_fwd = [s1.exponent_rep1(r).e for r in pairs]
        res_rev = [s2.exponent_rep1(r).e for r in reversed(pairs)]
        assert res_fwd == list(reversed(res_rev))

    def test_memoized_queries_match_fresh_solver(self):
        spec = make_asym_3x3()
        warm = ExponentSolver(spec)
        # targets below I_min and above I_max exercise the clamped keys
        targets = [float(t) for t in np.linspace(0.0, 1.2, 7)]
        pairs = [wx.RatePair(r1, f * r1) for r1 in (0.2, 0.6, 1.0)
                 for f in (0.0, 0.5)]
        phi_fwd = [warm.phi(t)[0] for t in targets]
        res_fwd = [warm.exponent_rep1(p) for p in pairs]
        phi_rev = [warm.phi(t)[0] for t in reversed(targets)][::-1]
        res_rev = [warm.exponent_rep1(p) for p in reversed(pairs)][::-1]
        for t, a, b in zip(targets, phi_fwd, phi_rev):
            assert a == b == ExponentSolver(spec).phi(t)[0]
        for p, a, b in zip(pairs, res_fwd, res_rev):
            fresh = ExponentSolver(spec)
            assert a == b == fresh.exponent_rep1(p)
            # the achiever behind e, as the memoized and the fresh solver
            # give it
            assert warm._branches(p)[5].q.tobytes() == \
                fresh._branches(p)[5].q.tobytes()


class TestAndersonStep:
    """The slow 16x16 fixed point, on which plain jumps oscillate around
    s = 0.5.  The class is named for the Anderson mixing that first made
    its s < 1 solves certify; the Newton solve replaced it, and these tests
    pin what it protected."""

    @pytest.fixture(scope="class")
    def slow(self):
        return _filled(ExponentSolver(wx.load_channel_spec(SLOW_FIXED_POINT)))

    def test_plain_jumps_alone_crawl(self, slow):
        # from the neighbouring table entry's marginal, 500 plain jumps
        # V <- Q_Z(jump(V)) leave the dual gap far above gap_tol
        j = int(np.flatnonzero(exponent._TABLE_S == 0.5)[0])
        v = slow._w @ slow._ladder[j - 1].q
        for _ in range(500):
            rows, lse = exponent._jump(slow._log_p, slow._support, 0.5,
                                       np.log(v))
            v = slow._w @ np.exp(rows)
        f = exponent._evaluate(slow._w, slow._log_p, rows, 0.5)[4]
        assert f + 0.5 * float(np.dot(slow._w, lse)) > 1e3 * slow.gap_tol

    def test_extrapolation_certifies_quickly(self, slow):
        sol = slow._cache[0.5]
        assert sol.gap <= slow.gap_tol
        assert sol.iterations <= 5

    @pytest.mark.parametrize("spec", [make_asym_3x3(), make_bsc(0.1)],
                             ids=["asym3x3", "bsc01"])
    def test_short_solves_untouched(self, spec):
        # the s > 0 table solves of small channels take a few Newton steps,
        # and the s = 0 solve certifies at its first level
        solver = ExponentSolver(spec)
        assert all(sol.gap <= solver.gap_tol for sol in _entries(solver))
        assert max(sol.iterations for sol in solver._ladder[:64]) <= 4
        assert solver._zero.iterations == 0

    def test_query_order_independent(self, slow):
        spec = wx.load_channel_spec(SLOW_FIXED_POINT)
        j = int(np.flatnonzero(exponent._TABLE_S == 0.5)[0])
        # targets between the s = 0.53125 and s = 0.5 table entries
        targets = [float(t) for t in
                   np.linspace(slow._ladder[j - 1].i, slow._ladder[j].i,
                               5)[1:-1]]
        fwd, rev = ExponentSolver(spec), ExponentSolver(spec)
        a = [fwd.phi(t) for t in targets]
        b = [rev.phi(t) for t in reversed(targets)][::-1]
        assert all(sol.s not in exponent._TABLE_S for _, sol, _ in a)
        for (va, sa, wa), (vb, sb, wb) in zip(a, b):
            assert (va, wa) == (vb, wb)
            assert sa.log_q.tobytes() == sb.log_q.tobytes()

    def test_debug_records_for_stalled_runs(self, caplog, monkeypatch):
        # without a vertex the walk from the smallest positive table entry
        # reaches the deepest level, s = 6e-08, with its rows still
        # uncertified: the next level's Newton solve stops uncertified and
        # the walk leaves one record of its own and raises, whatever its
        # gap
        monkeypatch.setattr(exponent, "_forest_vertex", lambda *args: None)
        with caplog.at_level(logging.DEBUG, logger="wiretap_exponent"):
            with pytest.raises(wx.SolverError, match=r"continuation did not "
                               r"certify down to s=6e-08 ") as exc:
                ExponentSolver(wx.load_channel_spec(SLOW_FIXED_POINT))
        assert exc.value.residual > 1e-10
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert messages[0].startswith("Newton solve at s=3e-08 stopped "
                                      "uncertified")
        assert messages[1] == (
            "s=0 continuation stopped uncertified at s=6e-08 with "
            f"gap {exc.value.residual:.3g} after {exc.value.iterations} "
            "Newton steps")


def _filled(solver):
    """The solver, with every entry of its table solved."""
    solver._fill(range(64))
    return solver


def _entries(solver) -> list:
    """The 65 multiplier-table solves in table order, the table filled
    first: the ladder's first 64 rungs, s = 2 down to 1/32, then the s = 0
    solve."""
    return _filled(solver)._ladder[:64] + [solver._zero]


def _one_s(stack, counted):
    """_newton_stack that reports to counted the solves of each stack of
    one, the solves below the table."""
    def solve(*args):
        sols = stack(*args)
        if len(args[3]) == 1:
            counted(sols[0])
        return sols
    return solve


def _halvings(n: int) -> list[float]:
    """The keys of the first n halving levels below s = 1/32."""
    keys = [1 / 32]
    for _ in range(n):
        keys.append(exponent._key(keys[-1] / 2.0))
    return keys[1:]


class TestSolverRecords:
    """Iteration counts and debug records of the fallback exits."""

    def test_iterations_count_every_run(self, monkeypatch):
        # the s = 0 solve of scan23_094 walks down eleven halving levels
        # before a vertex certifies, and counts the Newton steps of every
        # level; so does the error of a walk that finds no vertex down to
        # the slow fixture's deepest level
        levels = []
        monkeypatch.setattr(exponent, "_newton_stack", _one_s(
            exponent._newton_stack,
            lambda sol: levels.append((sol.s, sol.iterations))))
        sol = ExponentSolver(wx.load_channel_spec(
            _scan_path("scan23_094_8x8")))._zero
        assert [s for s, _ in levels] == _halvings(11)
        assert sol.iterations == sum(n for _, n in levels) > 0
        levels.clear()
        monkeypatch.setattr(exponent, "_forest_vertex", lambda *args: None)
        with pytest.raises(wx.SolverError) as exc:
            ExponentSolver(wx.load_channel_spec(SLOW_FIXED_POINT))
        assert [s for s, _ in levels] == _halvings(19)
        assert exc.value.iterations == sum(n for _, n in levels)

    def test_debug_record_for_uncertified_newton_solve(self, caplog,
                                                       monkeypatch):
        # a gap stuck above gap_tol ends the solve once its steps fall to
        # float noise, well before max_iter, with a record and a
        # SolverError: an s > 0 solve has no stall acceptance
        solver = ExponentSolver(make_asym_3x3())
        # one gap per slice of the stack the certificate is given
        monkeypatch.setattr(exponent, "_linearization_gap",
                            lambda w, log_p, support, s, log_q, *rest:
                            np.full(len(log_q), 1e-9))
        with caplog.at_level(logging.DEBUG, logger="wiretap_exponent"):
            with pytest.raises(wx.SolverError,
                               match="did not certify at s=2 ") as exc:
                exponent._newton_stack(
                    solver._w, solver._log_p, solver._support, [2.0],
                    (solver._w @ solver._p)[None], solver.gap_tol,
                    solver.max_iter)
        assert exc.value.residual == 1e-9 and exc.value.iterations <= 10
        assert [r.getMessage() for r in caplog.records] == [
            "Newton solve at s=2 stopped uncertified with gap 1e-09 after "
            f"{exc.value.iterations} steps"]


def _g(solver, s, v):
    """g_s(V) = -s <w, lse>, the dual function of the Newton solve."""
    return -s * float(np.dot(solver._w, exponent._jump(
        solver._log_p, solver._support, s, np.log(v))[1]))


class TestNewtonSolve:
    """The dual Newton solve on the output marginal, for s > 0."""

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_scaled_hessian_matches_finite_differences(self, s):
        solver = ExponentSolver(make_asym_3x3())
        v = np.array([0.5, 0.2, 0.3])
        q = np.exp(exponent._jump(solver._log_p, solver._support, s,
                                  np.log(v))[0])
        qz = solver._w @ q
        h, n = 1e-4, v.size
        eye = np.eye(n) * h
        grad = np.array([(_g(solver, s, v + e) - _g(solver, s, v - e))
                         / (2 * h) for e in eye])
        hess = np.array([[(_g(solver, s, v + a + b) - _g(solver, s, v + a - b)
                           - _g(solver, s, v - a + b)
                           + _g(solver, s, v - a - b)) / (4 * h * h)
                          for b in eye] for a in eye])
        # the solver's KKT matrix holds D H D with row z divided by
        # (1 - s) Q_Z(z), and V in its constraint row and column
        kkt = exponent._newton_kkt(solver._w, q, qz, v, s)
        assert np.allclose(v * grad, (1.0 - s) * qz, atol=1e-9)
        assert np.allclose(v[:, None] * hess * v[None, :],
                           (1.0 - s) * qz[:, None] * kkt[:n, :n], atol=1e-6)
        assert np.array_equal(kkt[n, :n], v) and kkt[n, n] == 0.0
        assert np.allclose(kkt[:n, n], v / qz)

    @pytest.mark.parametrize("name", sorted(
        os.path.splitext(n)[0] for n in os.listdir(
            os.path.join(os.path.dirname(__file__), "data"))))
    def test_table_solves_certify_within_20_steps(self, name):
        solver = ExponentSolver(wx.load_channel_spec(_scan_path(name)))
        table = _entries(solver)
        newton = [sol for sol in table if sol.s not in (0.0, 1.0)]
        assert len(newton) == len(table) - 2
        for sol in newton:
            assert sol.gap <= solver.gap_tol and sol.iterations <= 20

    @pytest.mark.parametrize("s", [1e-3, 1e-4, 1e-5])
    def test_small_s_certifies(self, s):
        # near i_max the rows are nearly one-hot: a full Newton step from
        # the s = 1/32 marginal would underflow five outputs' Q_Z to 1e-293
        # and freeze the solve at gap 1.8e-6, so the line search keeps every
        # kept output above the floor
        solver = ExponentSolver(wx.load_channel_spec(
            _scan_path("scan7_077_2x6")))
        j = int(np.flatnonzero(exponent._TABLE_S == 1 / 32)[0])
        sol = solver._solve([s], solver._ladder[j])[0]
        assert sol.gap <= solver.gap_tol and sol.iterations <= 20
        assert np.isfinite([sol.f, sol.d, sol.i]).all()
        assert np.isfinite(sol.q).all()


# every channel under tests/data, slow_fixed_point_16x16 among them, and
# the 24 generated channels of TestLabelPermutation
PARITY_CHANNELS = sorted(
    os.path.splitext(n)[0] for n in os.listdir(
        os.path.join(os.path.dirname(__file__), "data"))) + \
    [f"seed7_{k:03d}" for k in range(24)]


def _parity_spec(name: str) -> wx.ChannelSpec:
    if name.startswith("seed7_"):
        doc = dict(generated(7))[int(name[6:])]
        return parse_channel_spec(json.dumps(doc))
    return wx.load_channel_spec(_scan_path(name))


class TestLockstepTable:
    """The table's entries with s not in {0, 1} are solved in Newton
    stacks, the spine's and then one per interval a bisection fills; each
    must be the one-s solve of its s from the true output marginal, bit
    for bit, and a failing stack must report as the one-s solves would
    have, taken in table order.  A one-s solve runs in _newton_one, so
    these tests hold the stack loop and the one-slice loop to each
    other."""

    @pytest.mark.parametrize("name", PARITY_CHANNELS)
    def test_entries_match_one_s_solves(self, name):
        solver = ExponentSolver(_parity_spec(name))
        w, log_p = solver._w, solver._log_p
        qz_p = exponent._evaluate(w, log_p, log_p, 1.0)[1]
        table = _entries(solver)
        stacked = [sol for sol in table if sol.s not in (0.0, 1.0)]
        assert len(stacked) == len(table) - 2
        for sol in stacked:
            one, = exponent._newton_stack(w, log_p, solver._support, [sol.s],
                                          qz_p[None], solver.gap_tol,
                                          solver.max_iter)
            assert one.log_q.tobytes() == sol.log_q.tobytes()
            assert (one.f, one.d, one.i, one.gap, one.iterations) == (
                sol.f, sol.d, sol.i, sol.gap, sol.iterations)
            assert sol.gap <= solver.gap_tol

    def test_first_stuck_slice_raises_as_the_one_s_solves(self, caplog,
                                                           monkeypatch):
        # certificates stuck above gap_tol at s = 1.5 and s = 1.25: the
        # one-s solves in table order stop at s = 1.5, and so does the stack
        spec = make_asym_3x3()
        solver = ExponentSolver(spec)
        args = (solver._w, solver._log_p, solver._support)
        qz_p = exponent._evaluate(solver._w, solver._log_p, solver._log_p,
                                  1.0)[1]
        real = exponent._linearization_gap

        def stuck(w, log_p, support, s, *rest):
            gap = real(w, log_p, support, s, *rest)
            return np.where(np.isin(np.ravel(s), (1.5, 1.25)), 1e-9, gap)

        monkeypatch.setattr(exponent, "_linearization_gap", stuck)
        with caplog.at_level(logging.DEBUG, logger="wiretap_exponent"):
            with pytest.raises(wx.SolverError) as one:
                for s in exponent._TABLE_S:
                    if s not in (0.0, 1.0):
                        exponent._newton_stack(*args, [float(s)],
                                               qz_p[None], solver.gap_tol,
                                               solver.max_iter)
        records = [r.getMessage() for r in caplog.records]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="wiretap_exponent"):
            with pytest.raises(wx.SolverError) as stack:
                ExponentSolver(spec)
        assert "did not certify at s=1.5 " in str(one.value)
        assert str(stack.value) == str(one.value)
        assert (stack.value.best_value, stack.value.residual,
                stack.value.iterations) == (one.value.best_value,
                                            one.value.residual,
                                            one.value.iterations)
        assert [r.getMessage() for r in caplog.records] == records
        assert len(records) == 1

    def test_held_outputs_get_an_identity_block(self):
        # a slice with a floored output solves the KKT system of its kept
        # outputs, with u = 0 on the floored one; its neighbour in the
        # stack is untouched
        solver = ExponentSolver(make_asym_3x3())
        w = solver._w
        s = [0.3, 1.6]
        v = np.random.default_rng(3).dirichlet(np.ones(3), size=2)
        s3 = exponent._stacked(s, 2)
        _, q, qz, _ = exponent._dual_point(w, solver._log_p,
                                           solver._support, s3, np.log(v))
        rhs = np.append(-np.ones((2, 3, 1)), np.zeros((2, 1, 1)), axis=1)
        floored = np.array([[False, True, False], [False, False, False]])
        u = exponent._newton_direction(w, q, qz, v, s3, rhs, floored, 1)
        kept = ~floored[0]
        kkt = exponent._newton_kkt(w, q[0][:, kept], qz[0][kept], v[0][kept],
                                   s[0])
        reduced = np.linalg.solve(kkt, np.append(-np.ones(2), 0.0))[:2]
        assert u[0, 1] == 0.0
        assert np.allclose(u[0, kept], reduced, rtol=1e-12, atol=1e-15)
        alone = exponent._newton_direction(
            w, q[1:], qz[1:], v[1:], s[1], rhs[1:], floored[1:], 0)
        assert np.array_equal(u[1], alone[0])

    @staticmethod
    def _stack(s, seed):
        """asym3x3's w, log P and support, and a stack of the list s at
        seeded marginals v: (args, s3, v, q, Q_Z, <w, lse>, rhs)."""
        solver = ExponentSolver(make_asym_3x3())
        args = (solver._w, solver._log_p, solver._support)
        v = np.random.default_rng(seed).dirichlet(np.ones(3), size=len(s))
        s3 = exponent._stacked(s, 2)
        _, q, qz, wlse = exponent._dual_point(*args, s3, np.log(v))
        rhs = np.append(-np.ones((len(s), 3, 1)), np.zeros((len(s), 1, 1)),
                        axis=1)
        return args, s3, v, q, qz, wlse, rhs

    def test_singular_slice_falls_back_alone(self):
        # V = 0 zeroes the constraint row and column of slice 1's KKT
        # matrix: the batched solve raises, slice 1 gets u = 0 and the
        # others the bits of their lone solves
        s = [0.3, 0.7, 1.6]
        (w, _, _), s3, v, q, qz, _, rhs = self._stack(s, 5)
        v[1] = 0.0
        floored = np.zeros(qz.shape, bool)
        with pytest.raises(np.linalg.LinAlgError):
            exponent._lapack_solve(exponent._newton_kkt(w, q, qz, v, s3), rhs)
        u = exponent._newton_direction(w, q, qz, v, s3, rhs, floored, 0)
        assert u.shape == (3, 3) and not u[1].any()
        for j in (0, 2):
            alone = exponent._newton_direction(
                w, q[j:j + 1], qz[j:j + 1], v[j:j + 1], s[j], rhs[:1],
                floored[:1], 0)
            assert u[j].tobytes() == alone[0].tobytes()

    def test_batched_solve_is_numpy_solve(self):
        s = [0.3, 0.7, 1.6]
        (w, _, _), s3, v, q, qz, _, rhs = self._stack(s, 5)
        kkt = exponent._newton_kkt(w, q, qz, v, s3)
        assert exponent._lapack_solve(kkt, rhs).tobytes() == \
            np.linalg.solve(kkt, rhs).tobytes()

    def test_solve_without_the_private_module(self, monkeypatch):
        # a numpy without numpy.linalg._umath_linalg: the module still
        # imports, and its solve falls back to np.linalg.solve, with the
        # same bits and the same LinAlgError on a singular slice
        s = [0.3, 0.7, 1.6]
        (w, _, _), s3, v, q, qz, _, rhs = self._stack(s, 5)
        kkt = exponent._newton_kkt(w, q, qz, v, s3)
        monkeypatch.delattr(np.linalg, "_umath_linalg")
        monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
        name = "wiretap_exponent._exponent_without_umath_linalg"
        spec = importlib.util.spec_from_file_location(name, exponent.__file__)
        fallback = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, fallback)
        spec.loader.exec_module(fallback)
        assert fallback._umath_linalg is None
        assert exponent._umath_linalg is not None
        assert fallback._lapack_solve(kkt, rhs).tobytes() == \
            exponent._lapack_solve(kkt, rhs).tobytes()
        v[1] = 0.0
        singular = exponent._newton_kkt(w, q, qz, v, s3)
        for solve in (exponent._lapack_solve, fallback._lapack_solve):
            with pytest.raises(np.linalg.LinAlgError, match="Singular"):
                solve(singular, rhs)

    def test_fallback_solve_keeps_every_table_entry(self, monkeypatch):
        # the whole table, and a phi target's sandwich solves, with the
        # fallback solve have the bits of the batched gufunc's
        spec = make_asym_3x3()
        fast = ExponentSolver(spec)
        monkeypatch.setattr(exponent, "_umath_linalg", None)
        slow = ExponentSolver(spec)
        for solver in (fast, slow):
            solver.phi(0.5 * (solver.i_min + solver.i_max))
        assert fast._cache.keys() == slow._cache.keys()
        for a, b in zip(_entries(fast), _entries(slow)):
            assert a.log_q.tobytes() == b.log_q.tobytes()
            assert (a.f, a.gap, a.iterations) == (b.f, b.gap, b.iterations)
        for key, sol in fast._cache.items():
            assert sol.log_q.tobytes() == slow._cache[key].log_q.tobytes()

    def test_line_search_without_a_searching_slice(self):
        # every step below the floor: no slice searches, nothing moves
        s = [0.3, 1.6]
        args, s3, v, _, qz, wlse, _ = self._stack(s, 5)
        floored = np.zeros(qz.shape, bool)
        assert exponent._line_search(*args, s, s3, v, np.zeros_like(v),
                                     wlse, qz, floored, 0) == ([], ())

    def test_split_line_search_matches_lone_searches(self, monkeypatch):
        # scaled directions make the slices accept at the first, second and
        # third trial, and slice 2 takes no step; each moved slice's state
        # has the bits of its lone search
        s = [0.05, 0.3, 0.7, 1.3, 1.9]
        args, s3, v, q, qz, wlse, rhs = self._stack(s, 2)
        floored = np.zeros(qz.shape, bool)
        u = exponent._newton_direction(args[0], q, qz, v, s3, rhs, floored,
                                       0)
        u *= np.array([4.0, 2.0, 0.0, 30.0, 100.0])[:, None]
        trials, dual_point = [], exponent._dual_point

        def counted(*a):
            trials.append(len(a[-1]))
            return dual_point(*a)

        monkeypatch.setattr(exponent, "_dual_point", counted)
        moved, state = exponent._line_search(*args, s, s3, v, u, wlse, qz,
                                             floored, 0)
        assert trials == [4, 3, 1] and moved == [0, 1, 3, 4]
        for m, j in enumerate(moved):
            (one,), alone = exponent._line_search(
                *args, [s[j]], s[j], v[j:j + 1], u[j:j + 1], wlse[j:j + 1],
                qz[j:j + 1], floored[:1], 0)
            assert one == 0
            for a, b in zip(state, alone):
                assert a[m].tobytes() == b[0].tobytes()


def _s0_channel(kind: str, seed: int) -> wx.ChannelSpec:
    """Seeded channel of one degenerate kind, built without solver code."""
    rng = np.random.default_rng(seed)
    nx, nz = (int(v) for v in rng.integers(3, 10, size=2))
    px = rng.dirichlet(np.ones(nx))
    rows = rng.dirichlet(np.full(nz, 0.7), size=nx)
    if kind == "sparse":
        mask = rng.random((nx, nz)) < 0.4
        mask[np.arange(nx), rng.integers(nz, size=nx)] = True
        rows = rows * mask
    elif kind == "near_deterministic":
        for x in rng.choice(nx, size=max(1, nx // 2), replace=False):
            rows[x] = 1e-9
            rows[x, rng.integers(nz)] = 1.0
    elif kind == "zero_mass":
        px[rng.choice(nx, size=nx // 3, replace=False)] = 0.0
    px = px / px.sum()
    rows = rows / rows.sum(axis=1, keepdims=True)
    return wx.ChannelSpec(wx.Distribution(px), wx.Dmc(rows))


_S0_CHANNELS = [(kind, 10 * k + j) for k, kind in
                enumerate(("dense", "sparse", "near_deterministic",
                           "zero_mass"))
                for j in range(3)]


class TestVertexAtSZero:
    """The s = 0 table entry is the Eisenberg-Gale vertex, checked with
    plain numpy against the optimality conditions of the inner problem."""

    @staticmethod
    def _check_vertex(spec, caplog):
        with caplog.at_level(logging.DEBUG, logger="wiretap_exponent"):
            solver = ExponentSolver(spec)
        sol = solver._zero
        assert sol.s == 0.0 and sol.gap <= solver.gap_tol
        w = spec.input_dist.probs
        p = spec.wiretap.rows[w > 0]
        w = w[w > 0]
        # the solver merges inputs with identical rows: each input of the
        # spec takes the solution's row of its first copy
        first = {}
        for row in p:
            first.setdefault(row.tobytes(), len(first))
        q = sol.q[[first[row.tobytes()] for row in p]]
        p = p[:, (p > 0).any(axis=0)]
        qz = w @ q
        score = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)) - np.log(qz),
                         -np.inf)
        top = score.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            f = float(np.dot(w, np.where(q > 0, -q * score, 0.0).sum(axis=1)))
        bound = -float(np.dot(w, top[:, 0]))
        # the objective is within gap_tol of the dual bound in any case
        assert abs(f - bound) <= solver.gap_tol
        if any(r.getMessage().startswith("s=0 forest vertex certifies")
               for r in caplog.records):
            # the solve reached the vertex rather than certifying its
            # iterate before trying it: every row's mass sits on its argmax
            # set of ln P - ln Q_Z, and the objective meets the bound
            assert (np.where(score < top - 1e-9, q, 0.0).sum(axis=1)
                    <= 1e-9).all()
            assert abs(f - bound) <= 1e-12
            assert abs(sol.f - bound) <= 1e-12
        return sol

    @pytest.mark.parametrize("kind,seed", _S0_CHANNELS,
                             ids=[f"{k}-{s}" for k, s in _S0_CHANNELS])
    def test_seeded_channels(self, kind, seed, caplog):
        self._check_vertex(_s0_channel(kind, seed), caplog)

    def test_slow_fixture_without_restart(self, caplog):
        sol = self._check_vertex(wx.load_channel_spec(SLOW_FIXED_POINT),
                                 caplog)
        text = "\n".join(r.getMessage() for r in caplog.records)
        assert "continuation stopped" not in text
        assert "s=0 forest vertex certifies" in text
        assert sol.iterations <= 8

    def test_bsc_closed_form(self, caplog):
        # the first level's iterate certifies itself before the vertex is
        # tried, so it agrees with the closed form -ln 2 - ln(1 - p) to
        # gap_tol
        sol = self._check_vertex(make_bsc(0.1), caplog)
        assert sol.iterations == 0 and not caplog.records
        assert abs(sol.f - (-LN2 - math.log1p(-0.1))) <= sol.gap <= 1e-10

    def test_fallback_is_the_continuation(self, monkeypatch):
        # a vertex that does not certify leaves the rung untouched: a walk
        # whose vertices are all solved and discarded ends where one that
        # never solves one does, uncertified at the deepest level, with the
        # vertex tried once per rung (s = 1/32 and 19 levels), after that
        # rung's steps
        spec = wx.load_channel_spec(SLOW_FIXED_POINT)
        vertex = exponent._forest_vertex
        ends = []
        for solve in (lambda *a: None, vertex):
            calls = []

            def tried(*a, solve=solve):
                calls.append(a[-1])
                solve(*a)

            monkeypatch.setattr(exponent, "_forest_vertex", tried)
            with pytest.raises(wx.SolverError) as exc:
                ExponentSolver(spec)
            assert len(calls) == 20 and calls[0] == 0
            assert calls == sorted(calls)
            assert calls[-1] == exc.value.iterations
            ends.append((exc.value.best_value, exc.value.residual,
                         exc.value.iterations))
        assert ends[0] == ends[1] and ends[0][1] > 1e-10
        monkeypatch.undo()
        sol = ExponentSolver(spec)._zero
        assert sol.gap <= 1e-10 and sol.iterations < ends[0][2]
        # the stalled iterate lies above the vertex optimum by at most its
        # own gap
        assert 0.0 < ends[0][0] - sol.f <= ends[0][1]

    @pytest.mark.parametrize("name", ["asym3x3", "scan7_046_6x2",
                                      "scan7_065_4x2"])
    def test_record_logs_the_clamped_gap(self, name, caplog):
        # on these channels f minus the dual bound at the vertex rounds
        # below 0 (down to -1.1e-16); the record gives the vertex's gap,
        # which no certificate reports below _NOISE
        with caplog.at_level(logging.DEBUG, logger="wiretap_exponent"):
            sol = ExponentSolver(_fixture_spec(name))._zero
        [record] = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("s=0 forest vertex")]
        assert sol.gap >= exponent._NOISE
        assert record == (f"s=0 forest vertex certifies gap {sol.gap:.3g} "
                          f"after {sol.iterations} Newton steps")


def _cold_channels() -> dict:
    """The channel document of each size of the benchmark's cold pool."""
    return {len(call.channel["input_dist"]): call.channel
            for call in cold_pool("")}


class TestPerTreeVertex:
    """Each try of _forest_vertex re-solves only the tree the new edge
    joined; every vertex the s = 0 walk tries must be the one that solving
    the whole forest at every try gives (conftest.whole_forest_vertex)."""

    @pytest.mark.parametrize("name", sorted(
        os.path.splitext(n)[0] for n in os.listdir(
            os.path.join(os.path.dirname(__file__), "data"))))
    def test_fixtures(self, name):
        check_vertex_tries(wx.load_channel_spec(_scan_path(name)))

    @pytest.mark.parametrize("size", range(2, 17))
    def test_cold_pool_channels(self, size):
        tried = check_vertex_tries(
            parse_channel_spec(json.dumps(_cold_channels()[size])))
        if size == 16:
            # the rung s = 1/32 has no certified vertex; the next one does
            assert tried[0] is None and len(tried) == 2
            assert tried[1] is not None

    @pytest.mark.parametrize("seed,k", [(7, 17), (7, 43), (8, 54), (9, 24),
                                        (11, 3)])
    def test_negative_tree_then_vertex(self, seed, k, monkeypatch):
        # generated channels on which a tree needs a negative flow, and a
        # later try, after that tree has merged, certifies the vertex; on
        # the last two it merges into another tree
        verdicts, flows = [], exponent._tree_flows

        def recorded(*a):
            verdicts.append(flows(*a))
            return verdicts[-1]

        monkeypatch.setattr(exponent, "_tree_flows", recorded)
        doc = dict(generated(seed))[k]
        tried = check_vertex_tries(parse_channel_spec(json.dumps(doc)))
        assert tried[-1] is not None and False in verdicts


# Channels #44 (3x8), #46 (6x2), #65 (4x2), #68 (6x3) and #77 (2x6) of the
# generator scan with seed 7 (tests/scan_generated.py), stored as generated,
# with E at (SCAN_R1, 0) as computed before the s = 0 vertex solve was
# added; #77 had no value then either, and #44 has R1 below I(X;Z).
SCAN_R1 = 0.5923904318075307
SCAN_CHANNELS = [("scan7_044_3x8", 0.0),
                 ("scan7_046_6x2", 0.212510668532),
                 ("scan7_065_4x2", 0.226781821477),
                 ("scan7_068_6x3", 0.299564740716),
                 ("scan7_077_2x6", None)]


def _scan_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "data", f"{name}.json")


def _numpy_gap(spec: wx.ChannelSpec, sol) -> float:
    """F(Q) minus a lower bound on min F for one inner solve, in plain numpy.

    The bound is the partial-minimization dual bound for s <= 1 and the
    linearization bound for s > 1, where the dual bound does not hold.
    """
    w = spec.input_dist.probs
    p = spec.wiretap.rows[w > 0]
    w = w[w > 0]
    p = p[:, (p > 0).any(axis=0)]
    on, s, q = p > 0, sol.s, sol.q
    with np.errstate(divide="ignore"):
        ln_p, ln_q, ln_qz = np.log(p), np.log(q), np.log(w @ q)
    with np.errstate(invalid="ignore"):
        d = np.where(q > 0, q * (ln_q - ln_p), 0.0).sum(axis=1)
        i = np.where(q > 0, q * (ln_q - ln_qz), 0.0).sum(axis=1)
    f = float(w @ (d + (s - 1.0) * i))
    if s == 0.0:
        return f + float(w @ np.where(on, ln_p - ln_qz, -np.inf).max(axis=1))
    if s <= 1.0:
        a = np.where(on, (ln_p - (1.0 - s) * ln_qz) / s, -np.inf)
        top = a.max(axis=1)
        return f + s * float(
            w @ (top + np.log(np.exp(a - top[:, None]).sum(axis=1))))
    g = np.where(on, s * sol.log_q - ln_p + (1.0 - s) * ln_qz, 0.0)
    low = np.where(on, g, np.inf).min(axis=1)
    return float(w @ ((q * g).sum(axis=1) - low))


class TestGeneratedScanChannels:
    """Generated channels on which the s < 1 solver used to stall: near
    s = 0.01 for #46, #65 and #68, at the s = 0 table entry for #77 and
    #44.  #44's s = 0 vertex certifies only with its flows peeled towards
    each tree's largest node; other peeling orders cancel small flows."""

    @pytest.fixture(scope="class", params=SCAN_CHANNELS,
                    ids=[name for name, _ in SCAN_CHANNELS])
    def solved(self, request):
        name, e_ref = request.param
        spec = wx.load_channel_spec(_scan_path(name))
        solver = ExponentSolver(spec)
        solver.solve(wx.RatePair(SCAN_R1, 0.0))
        # the scan's own queries, where #65 and #68 stalled
        for target in np.linspace(0.0, 1.05 * solver.i_max, 25):
            solver.phi(float(target))
        return name, e_ref, spec, solver

    @pytest.mark.parametrize("name,e_ref", SCAN_CHANNELS,
                             ids=[name for name, _ in SCAN_CHANNELS])
    def test_cli_exit_zero(self, name, e_ref, capsys):
        code = main(["exponent", _scan_path(name), "--r1", repr(SCAN_R1),
                     "--r2", "0"])
        out = capsys.readouterr().out
        assert code == 0
        e = float(dict(line.split(" ", 1) for line in out.splitlines())["E"])
        if e_ref is not None:
            assert abs(e - e_ref) <= 1e-9

    def test_inner_gaps_certified(self, solved):
        name, _, spec, solver = solved
        for sol in solver._cache.values():
            gap = _numpy_gap(spec, sol)
            assert gap <= sol.gap + 1e-14
            assert gap <= solver.gap_tol

    def test_crushed_start_certifies(self, caplog):
        # rows that put all their mass on their least likely output, the
        # only start of a fresh ladder at s = 1, leave zeros in the
        # marginal and a vertex that does not certify; the Newton level at
        # s = 1/2 starts from the floored marginal and revives them, and
        # s = 0 certifies further down
        spec = wx.load_channel_spec(_scan_path("scan7_046_6x2"))
        solver = ExponentSolver(spec)
        worst = np.where(solver._support, solver._log_p, np.inf).argmin(axis=1)
        rows = np.where(np.arange(solver._p.shape[1]) == worst[:, None], 0.0,
                        exponent._LOGZERO)
        start = exponent._InnerSolution(1.0, rows, np.exp(rows), 0.0, 0.0,
                                        0.0, 0.0, 0)
        solver._ladder, solver._deepest = [start], False
        with caplog.at_level(logging.DEBUG, logger="wiretap_exponent"):
            sol = solver._solve_zero()
        assert solver._ladder[1].s == 0.5
        assert sol.s == 0.0 and sol.iterations > 0
        assert _numpy_gap(spec, sol) <= solver.gap_tol
        assert "continuation stopped" not in caplog.text

    @pytest.mark.parametrize("name", ["scan7_044_3x8", "scan7_077_2x6"])
    def test_s_zero_run_takes_the_vertex(self, name, caplog, monkeypatch):
        # the s = 0 solve takes the vertex of the marginal of the smallest
        # positive table entry, certified far below gap_tol.  Without a
        # vertex the walk goes on: #77's rows certify themselves deep
        # down, and #44's are still uncertified at the deepest level,
        # s = 6e-08
        spec = wx.load_channel_spec(_scan_path(name))
        with caplog.at_level(logging.DEBUG, logger="wiretap_exponent"):
            sol = ExponentSolver(spec)._zero
        assert sol.s == 0.0 and sol.iterations == 0
        assert _numpy_gap(spec, sol) <= 1e-14
        text = "\n".join(r.getMessage() for r in caplog.records)
        assert "s=0 forest vertex certifies gap" in text
        assert "continuation stopped" not in text
        monkeypatch.setattr(exponent, "_forest_vertex", lambda *args: None)
        if name == "scan7_044_3x8":
            with pytest.raises(wx.SolverError, match="continuation did not "
                               "certify down to s=6e-08 "):
                ExponentSolver(spec)
        else:
            sol = ExponentSolver(spec)._zero
            assert sol.iterations > 0
            assert _numpy_gap(spec, sol) <= 1e-10


# Channels #116 (8x6) of the scan's seed 8 and #94 (8x8) of its seed 23,
# stored as generated.  Their s = 0 vertices certify only deep down the
# ladder, at s = 2^-10 and 2^-16.
@pytest.mark.parametrize("name", ["scan8_116_8x6", "scan23_094_8x8"])
def test_deep_s_zero_certifies_within_64_steps(name):
    spec = wx.load_channel_spec(_scan_path(name))
    solver = ExponentSolver(spec)
    sol = solver._zero
    assert sol.s == 0.0 and 0 < sol.iterations <= 64
    assert _numpy_gap(spec, sol) <= solver.gap_tol


FIXTURES = sorted(name[:-5] for name in os.listdir(
    os.path.join(os.path.dirname(__file__), "data")))


def _fixture_spec(name: str) -> wx.ChannelSpec:
    if name in ("asym3x3", "bsc01"):
        return make_asym_3x3() if name == "asym3x3" else make_bsc(0.1)
    return wx.load_channel_spec(_scan_path(name))


def _numpy_points(solver) -> tuple[np.ndarray, np.ndarray]:
    """(I, D) of every cached inner solve, from its rows ``sol.q`` in
    plain numpy."""
    w, p = solver._w, solver._p
    points = []
    for sol in solver._cache.values():
        q = sol.q
        on = q > 0
        with np.errstate(divide="ignore"):
            ln_q = np.log(np.where(on, q, 1.0))
            ln_qz = np.log(w @ q)
        d = w @ np.where(on, q * (ln_q - np.log(np.where(on, p, 1.0))),
                         0.0).sum(axis=1)
        i = w @ np.where(on, q * (ln_q - ln_qz), 0.0).sum(axis=1)
        points.append((i, d))
    return tuple(np.array(points).T)


def _chord_bound(i, d, t: float) -> float:
    """The least chord through two (I, D) points whose I bracket t: phi is
    convex and each point is attained, so every such chord bounds phi(t)
    from above."""
    a, b = i <= t, i >= t
    ia, da = i[a][:, None], d[a][:, None]
    ib, db = i[b][None, :], d[b][None, :]
    span = ib - ia
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = np.where(span > 0.0, da + (db - da) * (t - ia) / span,
                         np.minimum(da, db))
    return float(chord.min())


def _fallbacks(records) -> int:
    return sum("keeps a sandwich" in r.getMessage() for r in records)


class TestOneLadder:
    """The table's s > 0 entries and the halving levels below them are one
    ladder, and ExponentSolver._solve is the one way into the Newton
    kernel.  Each test builds a fresh solver."""

    CHANNELS = ["asym3x3", "bsc01"] + FIXTURES

    @pytest.mark.parametrize("name", CHANNELS)
    def test_bracket_is_the_first_rung_at_or_above(self, name):
        # the table's rungs are bisected and the levels walked; either way
        # the bracket is the first rung whose I reaches the target, and
        # the one above it, or (s = 0, deepest level) past every rung
        solver = _filled(ExponentSolver(_fixture_spec(name)))
        targets = np.linspace(solver.i_min, solver.i_max, 41)[1:-1].tolist()
        targets += [solver.i_max - 10.0 ** -k for k in range(1, 10)]
        for t in targets:
            if not solver.i_min < t < solver.i_max:
                continue
            lo, hi, refine = solver._bracket(t)
            ladder = solver._ladder
            k = next((k for k, sol in enumerate(ladder) if sol.i >= t), None)
            assert k != 0
            if k is None:
                assert solver._deepest
                assert lo is solver._zero and hi is ladder[-1] and not refine
            else:
                assert lo is ladder[k] and hi is ladder[k - 1] and refine

    @staticmethod
    def _counted(monkeypatch) -> list:
        """The s of every _newton_stack call from here on, in call order."""
        calls = []
        stack = exponent._newton_stack

        def counted(w, log_p, support, s, *rest):
            calls.append(list(s))
            return stack(w, log_p, support, s, *rest)

        monkeypatch.setattr(exponent, "_newton_stack", counted)
        return calls

    @pytest.mark.parametrize("name", CHANNELS)
    def test_build_calls_newton_once_per_stack(self, name, monkeypatch):
        # one stack for the table's spine, then one stack of one per level
        # that the s = 0 walk built; filling the rest of the table is one
        # more stack
        calls = self._counted(monkeypatch)
        solver = ExponentSolver(_fixture_spec(name))
        spine = [sol.s for sol in solver._ladder[:64]
                 if sol is not None and sol.s != 1.0]
        assert spine == [2.0, 1.75, 1.5, 1.25, 0.75, 0.5, 0.25, 1 / 32]
        assert len(calls) == 1 + len(solver._ladder) - 64
        assert calls[0] == spine
        assert calls[1:] == [[sol.s] for sol in solver._ladder[64:]]
        _filled(solver)
        table = [sol.s for sol in solver._ladder[:64] if sol.s != 1.0]
        assert len(calls) == 2 + len(solver._ladder) - 64
        assert calls[-1] == [s for s in table if s not in spine]
        assert sorted(calls[0] + calls[-1], reverse=True) == table
        assert len(table) == 63

    @pytest.mark.parametrize("name", CHANNELS)
    def test_each_uncached_s_off_the_ladder_adds_one_call(self, name,
                                                          monkeypatch):
        # a new phi target fills the interval its bisection reads, then
        # builds the levels its bracket walks, then solves each new key of
        # its sandwich in a stack of one; a target seen before calls
        # nothing.  A level or key that does not certify is a stack of one
        # that adds nothing
        solver = ExponentSolver(_fixture_spec(name))
        calls, stack = [], exponent._newton_stack

        def counted(w, log_p, support, s, *rest):
            try:
                sols = stack(w, log_p, support, s, *rest)
            except wx.SolverError:
                assert len(s) == 1
                raise
            calls.append(list(s))
            return sols

        monkeypatch.setattr(exponent, "_newton_stack", counted)
        targets = _lazy_targets(solver)[::3]
        targets += targets[:4]
        for t in targets:
            n, before, cached = len(calls), len(solver._ladder), set(
                solver._cache)
            unfilled = [k for k in range(64) if solver._ladder[k] is None]
            solver.phi(t)
            filled = [(64 - k) / 32 for k in unfilled
                      if solver._ladder[k] is not None]
            rungs = {sol.s for sol in solver._ladder if sol is not None}
            new = [key for key in solver._cache
                   if key not in cached and key not in rungs]
            assert calls[n:] == [filled] * bool(filled) + [
                [sol.s] for sol in solver._ladder[before:]] + [
                [key] for key in new]
        assert calls


LAZY_CHANNELS = FIXTURES + [f"cold_{size}" for size in range(2, 17)]


def _lazy_spec(name: str) -> wx.ChannelSpec:
    if name.startswith("cold_"):
        return parse_channel_spec(json.dumps(_cold_channels()[int(name[5:])]))
    return wx.load_channel_spec(_scan_path(name))


def _lazy_targets(solver) -> list[float]:
    """The 40 interior phi targets of the lazy-table tests: 36 evenly
    spaced inside (i_min, i_max) and four just below i_max."""
    targets = np.linspace(solver.i_min, solver.i_max, 38)[1:-1].tolist()
    targets += [solver.i_max - 10.0 ** -k for k in (2, 4, 6, 8)]
    return [t for t in targets if solver.i_min < t < solver.i_max]


class TestLazyTable:
    """A solver solves its table's spine when it is built and the other
    entries as queries read them, each from the true output marginal.  A
    lazy solver must print what a solver with its whole table filled
    prints, whatever the order of the queries."""

    @staticmethod
    def _read(solver, t):
        """What phi and _bracket give at the target t, as bytes and
        floats."""
        value, sol, width = solver.phi(t)
        lo, hi, refine = solver._bracket(t)
        return (value, width, sol.s, sol.log_q.tobytes(), lo.s, hi.s,
                lo.log_q.tobytes(), hi.log_q.tobytes(), refine)

    @pytest.mark.parametrize("name", LAZY_CHANNELS)
    def test_phi_matches_a_filled_twin(self, name):
        spec = _lazy_spec(name)
        fwd, rev = ExponentSolver(spec), ExponentSolver(spec)
        twin = _filled(ExponentSolver(spec))
        targets = _lazy_targets(twin)
        a = [self._read(fwd, t) for t in targets]
        b = [self._read(rev, t) for t in reversed(targets)][::-1]
        assert a == b == [self._read(twin, t) for t in targets]
        # every solve of the lazy solvers is the filled twin's, bit for bit
        for lazy in (fwd, rev):
            assert lazy._cache.keys() <= twin._cache.keys()
            for key, sol in lazy._cache.items():
                assert sol.log_q.tobytes() == twin._cache[key].log_q.tobytes()
                assert (sol.f, sol.gap, sol.iterations) == (
                    twin._cache[key].f, twin._cache[key].gap,
                    twin._cache[key].iterations)
            assert [sol is None or sol is lazy._cache[sol.s]
                    for sol in lazy._ladder[:64]] == [True] * 64

    @pytest.mark.parametrize("name", LAZY_CHANNELS)
    def test_cli_stdout_matches_a_filled_twin(self, name, tmp_path, capsys,
                                              monkeypatch):
        # a filled twin is a solver whose spine is the whole table
        if name.startswith("cold_"):
            argvs = [call.argv for call in cold_pool(str(tmp_path))
                     if call.key.startswith(f"cold/{name[5:]}/")]
            path = argvs[0][1]
            with open(path, "w") as f:
                json.dump(_cold_channels()[int(name[5:])], f)
        else:
            path = _scan_path(name)
            i_max = ExponentSolver(_lazy_spec(name)).i_max
            argvs = [("exponent", path, "--r1", repr(f * i_max), "--r2",
                      repr(0.3 * f * i_max)) for f in (0.3, 0.7, 1.05)]
            argvs.append(("region", path, "--r1-list",
                          f"{0.5 * i_max!r},{0.9 * i_max!r}"))
        assert len(argvs) >= 4

        def outputs():
            runs = []
            for argv in argvs:
                code = main(list(argv))
                runs.append((code, *capsys.readouterr()))
            return runs

        lazy = outputs()
        monkeypatch.setattr(exponent, "_SPINE", tuple(range(64)))
        assert lazy == outputs()
        assert all(code == 0 and out for code, out, _ in lazy)

    def test_exponent_call_solves_at_most_three_intervals(self, tmp_path,
                                                          monkeypatch):
        # the spine's 8 entries, then at most one interval of 7 for each of
        # the targets R2, min(R1, i_max) and R1
        calls = [call for call in cold_pool(str(tmp_path)) if
                 call.key.startswith("cold/16/") and call.part == "exponent"]
        assert calls
        with open(calls[0].argv[1], "w") as f:
            json.dump(calls[0].channel, f)
        solved, stack = [], exponent._newton_stack

        def counted(w, log_p, support, s, *rest):
            solved.extend(s)
            return stack(w, log_p, support, s, *rest)

        monkeypatch.setattr(exponent, "_newton_stack", counted)
        keys = {(64 - k) / 32 for k in range(64)} - {1.0}
        for call in calls:
            solved.clear()
            assert main(list(call.argv)) == 0
            table = [s for s in solved if s in keys]
            assert len(set(table)) == len(table) <= 8 + 7 * 3
            assert len(table) < 63

    def test_leaf_failure_raises_from_the_query_that_reads_it(
            self, monkeypatch):
        # a certificate stuck above gap_tol at the leaf s = 1.59375 leaves
        # the solver buildable; the targets whose bisection reads it raise
        # what the one-s solve raises, and the others give the bits of an
        # unpatched solver.  Stuck at the spine's s = 1.75, the solver does
        # not build, as before
        spec = make_asym_3x3()
        clean = ExponentSolver(spec)
        real = exponent._linearization_gap
        qz_p = exponent._evaluate(clean._w, clean._log_p, clean._log_p,
                                  1.0)[1]

        def stuck_at(s_stuck):
            def gap(w, log_p, support, s, *rest):
                got = real(w, log_p, support, s, *rest)
                return np.where(np.ravel(s) == s_stuck, 1e-9, got)
            monkeypatch.setattr(exponent, "_linearization_gap", gap)
            with pytest.raises(wx.SolverError) as one:
                exponent._newton_stack(clean._w, clean._log_p, clean._support,
                                       [s_stuck], qz_p[None], clean.gap_tol,
                                       clean.max_iter)
            return str(one.value)

        message = stuck_at(1.59375)
        solver = ExponentSolver(spec)
        reads = 0.5 * (clean._ladder[8].i + clean._ladder[16].i)
        for _ in range(2):                          # raises on every read
            with pytest.raises(wx.SolverError) as exc:
                solver.phi(reads)
            assert str(exc.value) == message
        assert solver._ladder[9:16] == [None] * 7
        other = 0.5 * (clean._ladder[40].i + clean._ladder[48].i)
        value, sol, width = solver.phi(other)
        assert (value, width) == clean.phi(other)[::2]
        assert sol.log_q.tobytes() == clean.phi(other)[1].log_q.tobytes()
        message = stuck_at(1.75)
        with pytest.raises(wx.SolverError) as exc:
            ExponentSolver(spec)
        assert str(exc.value) == message


class TestNearestStart:
    """phi's sandwich solves each off-ladder key from the nearer of its
    bracket's two rungs, the first of two equally near (the larger s): the
    rung that a linear scan of the whole ladder picks."""

    def test_midpoints_tie_to_the_larger_s(self, monkeypatch):
        # a target midway in I between two rungs puts its first key at
        # their midpoint in s, or next to it
        solver = _filled(ExponentSolver(make_asym_3x3()))
        for _ in range(8):                          # eight halving levels
            solver._extend()
        starts = list(solver._ladder)
        assert len(starts) == 72 and starts[-1].s < 1e-3
        solved, solve = [], solver._solve

        def recorded(keys, start):
            solved.append((keys, start))
            return solve(keys, start)

        monkeypatch.setattr(solver, "_solve", recorded)
        ties = 0
        for above, below in zip(starts, starts[1:]):
            n = len(solved)
            solver.phi(0.5 * (above.i + below.i))
            for (key,), start in solved[n:]:
                assert start is nearest_rung(starts, key)
                if above.s - key == key - below.s:
                    assert start is above
                    ties += 1
        assert len(solver._ladder) == 72
        assert ties >= 63          # most midpoints of two table entries tie

    def test_off_ladder_solves_match_nearest_rung_solves(self):
        # after phi at the lazy-table targets, every cached solve off the
        # ladder is, bit for bit, the solve of its key from the nearest
        # rung of a filled twin with as many levels
        checked = 0
        for name in LAZY_CHANNELS:
            spec = _lazy_spec(name)
            solver = ExponentSolver(spec)
            for t in _lazy_targets(solver):
                solver.phi(t)
            twin = _filled(ExponentSolver(spec))
            while len(twin._ladder) < len(solver._ladder):
                assert twin._extend()
            rungs = {sol.s for sol in twin._ladder} | {0.0}
            off = [key for key in solver._cache if key not in rungs]
            checked += len(off)
            for key in off:
                sol = solver._cache[key]
                want, = twin._solve([key], nearest_rung(twin._ladder, key))
                assert sol.log_q.tobytes() == want.log_q.tobytes(), key
                assert (sol.f, sol.gap, sol.iterations) == (
                    want.f, want.gap, want.iterations)
        assert checked >= 20 * len(LAZY_CHANNELS)


class TestRep2SolvesNothing:
    """lambda1 + lambda2 is s* or 1, so once phi(r1) has run,
    exponent_rep2 reads cached solves and runs no Newton solve."""

    @staticmethod
    def _refuse(*args):
        raise AssertionError("exponent_rep2 ran a Newton solve")

    @pytest.mark.parametrize("name", LAZY_CHANNELS)
    def test_rep2_after_phi_solves_nothing(self, name, monkeypatch):
        solver = ExponentSolver(_lazy_spec(name))
        lo, hi, ip = solver.i_min, solver.i_max, solver.i_p
        r1s = [0.5 * lo, lo, ip, hi, 1.1 * hi]
        r1s += np.linspace(lo, hi, 12)[1:-1].tolist()
        stars = []
        for r1 in r1s:
            stars.append(solver.phi(r1)[1].s)
            with monkeypatch.context() as patch:
                patch.setattr(exponent, "_newton_stack", self._refuse)
                value, lam1, lam2 = solver.exponent_rep2(
                    wx.RatePair(r1, 0.3 * r1))
            assert math.isfinite(value) and lam2 in (0.0, 1.0)
        if lo < ip:
            assert stars[:5] == [2.0, 2.0, 1.0, 0.0, 0.0]
        else:                                   # a one-point curve
            assert stars == [2.0] * len(r1s)


class TestSandwich:
    """phi as the best support line of a certified sandwich."""

    @pytest.fixture(scope="class", params=["asym3x3"] + FIXTURES)
    def swept(self, request):
        # 300 interior targets, each phi a function of its target alone
        solver = ExponentSolver(_fixture_spec(request.param))
        targets = np.linspace(solver.i_min, solver.i_max, 302)[1:-1]
        return solver, [(float(t), solver.phi(float(t))[0])
                        for t in targets]

    def test_phi_below_every_chord(self, swept):
        # a chord through two solves bounds phi from above; the value
        # printed at the solve's own s stays below it within gap_tol
        solver, values = swept
        i, d = _numpy_points(solver)
        for t, value in values:
            assert value <= _chord_bound(i, d, t) + solver.gap_tol

    def test_sandwich_certifies(self, swept):
        # no fixture target falls back: every width is within 2 gap_tol,
        # and the value lies inside its sandwich
        solver, values = swept
        for t, value in values:
            _, sol, width = solver.phi(t)
            assert 0.0 <= width <= 2.0 * solver.gap_tol
            assert value >= sol.f - sol.gap - (sol.s - 1.0) * t

    @pytest.mark.parametrize("name", ["asym3x3"] + FIXTURES)
    def test_gap_bound_of_the_active_branch(self, name, caplog):
        solver = ExponentSolver(_fixture_spec(name))
        with caplog.at_level(logging.DEBUG, logger="wiretap_exponent"):
            for r1 in np.linspace(0.0, 1.1 * solver.i_max, 45)[1:]:
                for r2 in (0.0, 0.5 * r1):
                    n = len(caplog.records)
                    res = solver.solve(wx.RatePair(float(r1), r2))
                    if res.active_branch == "E1" and r2 >= solver.i_p or \
                            res.active_branch == "E3" and r1 <= solver.i_p:
                        assert res.gap_bound == 0.0
                    elif res.active_branch == "E2":
                        b = min(r1, solver.i_max)
                        assert res.gap_bound == solver.phi(b)[2]
                    if not _fallbacks(caplog.records[n:]):
                        assert res.gap_bound <= 2.0 * solver.gap_tol
        assert _fallbacks(caplog.records) == 0

    def test_failed_solves_return_the_sandwich(self, caplog, monkeypatch):
        # with every solve off the table failing, no level is built and no
        # target is refined: phi keeps the table bracket's sandwich, which
        # holds the certified value, and reports its width
        spec = make_asym_3x3()
        solver = _filled(ExponentSolver(spec))  # the brackets are filled
        targets = (0.5 * (solver.i_min + solver.i_max),
                   0.5 * (solver._ladder[63].i + solver.i_max))
        certified = [ExponentSolver(spec).phi(t)[0] for t in targets]

        def fail(w, log_p, support, s, *rest):
            raise wx.SolverError(f"Newton solve did not certify at s={s[0]}",
                                 best_value=0.0, residual=1.0, iterations=0)

        monkeypatch.setattr(exponent, "_newton_stack", fail)
        table = len(solver._cache)
        with caplog.at_level(logging.DEBUG, logger="wiretap_exponent"):
            for t, phi in zip(targets, certified):
                value, _, width = solver.phi(t)
                assert width > 2.0 * solver.gap_tol
                assert abs(value - phi) <= width
                res = solver.exponent_rep1(wx.RatePair(t, 0.0))
                assert res.active_branch == "E2" and res.gap_bound == width
        assert len(solver._cache) == table
        assert solver._ladder[-1] is solver._ladder[63]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert "failed" in messages[0]
        assert "above the deepest level" in messages[1]

    def test_s_zero_levels_serve_phi(self, monkeypatch):
        # the s = 0 walk of scan23_094 leaves the levels down to 2^-16 on
        # the ladder; the targets just below i_max bracket with them and
        # then solve no s twice and none of those levels again
        solver = ExponentSolver(wx.load_channel_spec(
            _scan_path("scan23_094_8x8")))
        built = _halvings(11)
        assert [sol.s for sol in solver._ladder[64:]] == built
        keys = []
        monkeypatch.setattr(exponent, "_newton_stack", _one_s(
            exponent._newton_stack, lambda sol: keys.append(sol.s)))
        for e in range(1, 10):
            solver.phi(solver.i_max - 10.0 ** -e)
        assert keys and len(set(keys)) == len(keys)
        assert not set(keys) & set(built)

    def test_levels_bracket_targets_near_i_max(self):
        # targets just below i_max lie above the smallest positive table
        # entry's I; the halving levels below it bracket them, each level
        # a certified solve at half the s of the level above.  Above the
        # deepest level (here s = 6e-8), the sandwich between it and the
        # s = 0 entry is already narrow
        solver = ExponentSolver(wx.load_channel_spec(
            _scan_path("scan23_094_8x8")))
        for e in range(1, 10):
            value, sol, width = solver.phi(solver.i_max - 10.0 ** -e)
            assert sol.s < exponent._TABLE_S[-2]
            assert width <= 2.0 * solver.gap_tol
        levels = solver._ladder[64:]
        assert levels
        for above, level in zip(solver._ladder[63:], levels):
            assert level.s == exponent._key(above.s / 2.0)
            assert level.gap <= solver.gap_tol and level.i >= above.i


@pytest.mark.parametrize("argv", [
    ["sweep", "--r1-grid", "0:1.3:131", "--r2-fractions", "0:1:3"],
    ["exponent", "--r1", "1.2889", "--r2", "0"],
    ["region", "--r1-list", "1.2889"],
], ids=["sweep", "exponent", "region"])
def test_rates_just_below_i_max_exit_zero(argv, capsys):
    # R1 up to 0.011 below i_max = 1.29897 of seed 23 #94
    code = main(argv[:1] + [_scan_path("scan23_094_8x8")] + argv[1:])
    captured = capsys.readouterr()
    assert code == 0 and captured.out and not captured.err


def test_newton_nan_gap_raises_solver_error():
    # at s = 0 the jump divides by zero, every gap of the first round is
    # NaN and no slice reaches a line search
    solver = ExponentSolver(make_asym_3x3())
    with np.errstate(all="ignore"), pytest.raises(
            wx.SolverError, match="did not certify at s=0 "):
        exponent._newton_stack(solver._w, solver._log_p, solver._support,
                               [0.0], (solver._w @ solver._p)[None],
                               solver.gap_tol, solver.max_iter)


def _relabel(doc: dict, seed: int) -> dict:
    """The channel document doc with its inputs and outputs permuted."""
    rng = np.random.default_rng(seed)
    rows = np.array(doc["wiretap"])
    px = np.array(doc["input_dist"])
    ix, iz = rng.permutation(rows.shape[0]), rng.permutation(rows.shape[1])
    return {"input_dist": px[ix].tolist(),
            "wiretap": rows[ix][:, iz].tolist()}


class TestLabelPermutation:
    """Relabelling inputs and outputs changes no value.  The s = 0 vertex
    grows its forest in edge order, which a relabelling permutes."""

    @pytest.mark.parametrize("k", range(24))
    def test_generated_channels(self, k):
        doc = dict(generated(7))[k]
        solvers = [ExponentSolver(parse_channel_spec(json.dumps(d)))
                   for d in (doc, _relabel(doc, k))]
        base = solvers[0]
        rates = wx.RatePair(0.9 * base.i_max, 0.2 * base.i_max)
        values = [(sv.i_max, sv.d_at_imax, sv.exponent_rep1(rates).e)
                  for sv in solvers]
        assert np.allclose(values[0], values[1], rtol=0.0, atol=1e-12)


class TestNaNTarget:
    def test_phi_and_e3_raise_and_solve_nothing(self):
        solver = ExponentSolver(make_asym_3x3())
        cached = list(solver._cache)
        for query in (solver.phi, solver.e3):
            with pytest.raises(ValueError, match="NaN"):
                query(math.nan)
        assert list(solver._cache) == cached and not solver._phi_cache


class TestSolverArguments:
    @pytest.mark.parametrize("name, value, accepted", [
        ("max_iter", 0.5, False),
        ("max_iter", 0, False),
        ("max_iter", 100.7, False),
        ("max_iter", math.nan, False),
        ("max_iter", 1e5, True),
    ])
    def test_integer_arguments(self, name, value, accepted):
        if not accepted:
            with pytest.raises(ValueError, match=f"{name} = "):
                ExponentSolver(make_bsc(0.1), **{name: value})
            return
        solver = ExponentSolver(make_bsc(0.1), **{name: value})
        assert solver.max_iter == int(value)
