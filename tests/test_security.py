import math
import os

import numpy as np
import pytest
from scipy.special import rel_entr

import wiretap_exponent as wx
from wiretap_exponent.exponent import ExponentSolver
from wiretap_exponent.security import DEFAULT_CLASSIFY_TOL

from conftest import make_asym_3x3, random_channel

LN2 = math.log(2.0)
DATA = os.path.join(os.path.dirname(__file__), "data")
DATA_CHANNELS = sorted(os.path.splitext(n)[0] for n in os.listdir(DATA))


def grid_min_d_minus_i(p_rows, w, steps=221):
    """Dense-grid oracle for min(D - I) over 2x2 test channels."""
    best = math.inf
    for a in np.linspace(0.0, 1.0, steps):
        for b in np.linspace(0.0, 1.0, steps):
            q = np.array([[1 - a, a], [b, 1 - b]])
            qz = w @ q
            d = float(np.dot(w, rel_entr(q, p_rows).sum(axis=1)))
            i = float(np.dot(w, rel_entr(q, qz[None, :]).sum(axis=1)))
            best = min(best, d - i)
    return best


class TestComputeQstar:
    def test_bsc_unconstrained_minimizer(self, bsc01):
        an = wx.compute_qstar(ExponentSolver(bsc01))
        # dense grid over all 2x2 channels confirms the minimum of D - I
        oracle = grid_min_d_minus_i(bsc01.wiretap.rows,
                                    bsc01.input_dist.probs)
        assert an.d_qstar - an.i_qstar == pytest.approx(oracle, abs=2e-5)
        # for the BSC the minimizer is the noiseless channel
        assert an.i_qstar == pytest.approx(LN2, abs=1e-6)
        assert an.d_qstar == pytest.approx(math.log(1 / 0.9), abs=1e-6)

    def test_symmetric_channel_symmetric_qstar(self, bsc01):
        r = ExponentSolver(bsc01)._zero.q
        assert r[0, 0] == pytest.approx(r[1, 1], abs=1e-6)
        assert r[0, 1] == pytest.approx(r[1, 0], abs=1e-6)

    def test_noiseless_channel_qstar_is_p(self):
        spec = wx.ChannelSpec(wx.Distribution([0.5, 0.5]),
                              wx.Dmc([[1.0, 0.0], [0.0, 1.0]]))
        solver = ExponentSolver(spec)
        an = wx.compute_qstar(solver)
        assert np.allclose(solver._zero.q, np.eye(2), atol=1e-9)
        assert an.d_qstar == pytest.approx(0.0, abs=1e-9)
        assert an.i_qstar == pytest.approx(LN2, abs=1e-9)

    def test_chain_inequalities(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            spec = random_channel(rng, int(rng.integers(2, 4)),
                                  int(rng.integers(2, 4)))
            an = wx.compute_qstar(ExponentSolver(spec))
            assert an.i_qstar >= an.i_p - 1e-8
            assert an.d_qstar - an.i_qstar <= -an.i_p + 1e-8
            assert an.i_qstar >= an.i_p + an.d_qstar - 1e-8

    @pytest.mark.parametrize("name", ["asym3x3"] + DATA_CHANNELS)
    def test_fields_are_the_table_end(self, name):
        # compute_qstar reads the s = 0 table entry, the solve cached at
        # s = 0, so the three are the same floats
        spec = (make_asym_3x3() if name == "asym3x3" else
                wx.load_channel_spec(os.path.join(DATA, name + ".json")))
        solver = ExponentSolver(spec)
        an = wx.compute_qstar(solver)
        zero = solver._zero
        assert an.i_qstar == solver.i_max == zero.i
        assert an.d_qstar == solver.d_at_imax == zero.d
        assert an.i_p == solver.i_p

    def test_e3_curve_shape(self, bsc01):
        solver = ExponentSolver(bsc01)
        an = wx.compute_qstar(solver)
        r1s = np.linspace(0.05, solver.i_max - 1e-6, 12)
        vals = [solver.e3(float(r))[0] for r in r1s]
        for r, v in zip(r1s, vals):
            if r <= an.i_p:
                assert v == 0.0
            assert v >= r - an.i_qstar - 1e-8
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        assert solver.e3(solver.i_max + 0.1)[0] == math.inf


class TestFullSecurityInterval:
    def test_empty_below_ip(self, bsc01):
        solver = ExponentSolver(bsc01)
        iv = wx.full_security_interval(solver, solver.i_p * 0.9)
        assert iv.empty

    def test_bracket_contained_and_verified(self, bsc01):
        solver = ExponentSolver(bsc01)
        an = wx.compute_qstar(solver)
        r1 = an.i_qstar + 0.05
        iv = wx.full_security_interval(solver, r1)
        assert not iv.empty
        assert iv.bracket_valid
        assert iv.lower <= iv.bracket_lower + 1e-9
        assert iv.bracket_upper <= iv.upper + 1e-9
        assert iv.verified

    def test_exponent_on_sampled_points(self, bsc01):
        solver = ExponentSolver(bsc01)
        an = wx.compute_qstar(solver)
        r1 = an.i_qstar + 0.05
        iv = wx.full_security_interval(solver, r1)
        for r2 in np.linspace(iv.bracket_lower, iv.bracket_upper, 10):
            e = solver.exponent_rep1(wx.RatePair(r1, float(r2))).e
            assert abs(e - (r1 - r2)) <= 1e-5

    def test_rejects_nonpositive_r1(self, bsc01):
        with pytest.raises(ValueError):
            wx.full_security_interval(ExponentSolver(bsc01), 0.0)

    def test_single_input_channel(self):
        # the bench's generated 2x2 channel with one input of positive mass:
        # I_Q = 0 for every Q, so i_max = 0; the divergence there is summed
        # in the log domain and clamped at 0, so the bracket
        # [i_max - d_at_imax, i_max] stays valid above i_max
        spec = wx.ChannelSpec(
            wx.Distribution([1.0, 0.0]),
            wx.Dmc([[0.22774931082415298, 0.772250689175847],
                    [0.09686951916243933, 0.9031304808375608]]))
        solver = ExponentSolver(spec)
        assert solver.i_max == 0.0
        assert 0.0 <= solver.d_at_imax <= 1e-15
        for r1 in (0.05, 0.5):
            assert wx.full_security_interval(solver, r1).bracket_valid

    def test_asymmetric_channel(self):
        spec = make_asym_3x3()
        solver = ExponentSolver(spec)
        an = wx.compute_qstar(solver)
        r1 = an.i_qstar + 0.05
        iv = wx.full_security_interval(solver, r1)
        assert not iv.empty and iv.bracket_valid and iv.verified


class TestClassifyRatePoint:
    def test_zero_region(self, bsc01):
        solver = ExponentSolver(bsc01)
        assert wx.classify_rate_point(solver, wx.RatePair(0.3, 0.1)) == "ZERO"

    def test_equal_rates_zero(self, bsc01):
        assert wx.classify_rate_point(ExponentSolver(bsc01),
                                      wx.RatePair(0.5, 0.5)) == "ZERO"

    def test_constructed_pair_full(self, bsc01):
        solver = ExponentSolver(bsc01)
        an = wx.compute_qstar(solver)
        r1 = an.i_qstar + 0.05
        iv = wx.full_security_interval(solver, r1)
        mid = 0.5 * (iv.bracket_lower + iv.bracket_upper)
        assert wx.classify_rate_point(solver, wx.RatePair(r1, mid)) == "FULL"

    def test_partial_band(self, bsc01):
        solver = ExponentSolver(bsc01)
        # above the zero threshold but below the full-security boundary
        assert wx.classify_rate_point(solver,
                                      wx.RatePair(0.6, 0.1)) == "PARTIAL"

    def test_full_points_satisfy_middle_branch_condition(self, bsc01):
        solver = ExponentSolver(bsc01)
        rng = np.random.default_rng(12)
        for _ in range(40):
            r1 = float(rng.uniform(0.05, 1.1))
            r2 = float(rng.uniform(0.0, r1))
            rates = wx.RatePair(r1, r2)
            if wx.classify_rate_point(solver, rates) != "FULL":
                continue
            b = min(r1, solver.i_max)
            if r2 <= b:
                cond = solver.phi(b)[0] - b
                assert cond >= -r2 - 1e-5


class TestClassifyExponent:
    def test_rule_at_boundaries(self):
        tol = 1e-6
        rates = wx.RatePair(0.5, 0.2)
        r = rates.r
        assert wx.classify_exponent(0.0, rates, tol) == "ZERO"
        assert wx.classify_exponent(tol, rates, tol) == "ZERO"
        assert wx.classify_exponent(2 * tol, rates, tol) == "PARTIAL"
        assert wx.classify_exponent(r - 2 * tol, rates, tol) == "PARTIAL"
        assert wx.classify_exponent(r - 0.5 * tol, rates, tol) == "FULL"
        assert wx.classify_exponent(r + 0.5 * tol, rates, tol) == "FULL"
        # FULL needs a message rate above tol; below it E = R1 - R2 is ZERO
        tiny = wx.RatePair(0.3, 0.3 - 0.5 * tol)
        assert wx.classify_exponent(tiny.r, tiny, tol) == "ZERO"
        small = wx.RatePair(0.3, 0.3 - 3 * tol)
        assert wx.classify_exponent(small.r, small, tol) == "FULL"

    def test_agrees_with_classify_rate_point(self):
        spec = make_asym_3x3()
        solver = ExponentSolver(spec)
        tol = DEFAULT_CLASSIFY_TOL
        pairs = [wx.RatePair(float(r1), float(f * r1))
                 for r1 in np.linspace(0.05, 1.2, 8)
                 for f in (0.0, 0.3, 0.6, 0.9, 1.0)]
        # E just above 0 (R1 slightly above I(X;Z)), and E within tol of
        # R1 - R2 on either side of the lower full-security boundary
        zero_edge = wx.RatePair(solver.i_p + 1e-4, 0.0)
        e = solver.exponent_rep1(zero_edge).e
        assert 0.0 < e <= tol
        pairs.append(zero_edge)
        for r1 in (0.6, 1.2):
            lower = wx.full_security_interval(solver, r1).lower
            for delta, expect in ((0.5 * tol, "FULL"), (2 * tol, "PARTIAL")):
                edge = wx.RatePair(r1, lower - delta)
                e = solver.exponent_rep1(edge).e
                assert wx.classify_exponent(e, edge, tol) == expect
                pairs.append(edge)
        seen = set()
        for rates in pairs:
            cls = wx.classify_exponent(solver.exponent_rep1(rates).e, rates,
                                       tol)
            assert cls == wx.classify_rate_point(solver, rates, tol)
            seen.add(cls)
        assert seen == {"ZERO", "PARTIAL", "FULL"}
