import decimal
import json
import math
import pathlib
import pickle
import sys

import numpy as np
import pytest

import wiretap_exponent as wx
from wiretap_exponent import cli
from wiretap_exponent.gaussian import _RHO_CAP, gaussian_grid, rho_from_rate

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


class TestDivergenceTerm:
    def test_zero_at_true_statistics(self):
        g = wx.GaussianSpec(2.0, 0.5)
        rho_p = math.sqrt(g.s / (g.s + g.sigma2))
        sz = math.sqrt(g.s + g.sigma2)
        assert wx.gaussian_divergence_term(rho_p, sz, g) == pytest.approx(0.0, abs=1e-14)

    def test_unit_case(self):
        g = wx.GaussianSpec(1.0, 1.0)
        assert wx.gaussian_divergence_term(0.0, 1.0, g) == pytest.approx(0.5, abs=1e-15)

    def test_blows_up_at_small_sigma(self):
        g = wx.GaussianSpec(1.0, 1.0)
        assert wx.gaussian_divergence_term(0.0, 1e-8, g) > 15.0
        assert wx.gaussian_divergence_term(0.0, 1e-12, g) > \
            wx.gaussian_divergence_term(0.0, 1e-8, g)

    def test_nonnegative(self):
        g = wx.GaussianSpec(1.3, 0.7)
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = wx.gaussian_divergence_term(float(rng.uniform(-0.99, 0.99)),
                                            float(rng.uniform(0.01, 5.0)), g)
            assert v >= -1e-13

    def test_domain_errors(self):
        g = wx.GaussianSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            wx.gaussian_divergence_term(1.0, 1.0, g)
        with pytest.raises(ValueError):
            wx.gaussian_divergence_term(0.5, 0.0, g)


class TestSigmaZStar:
    def test_rho_zero(self):
        g = wx.GaussianSpec(1.0, 2.0)
        assert wx.sigma_z_star(0.0, g) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_unit_value(self):
        g = wx.GaussianSpec(1.0, 1.0)
        assert wx.sigma_z_star(0.5, g) == pytest.approx(1.2807764064044151, abs=1e-12)

    def test_positive_at_negative_rho(self):
        g = wx.GaussianSpec(100.0, 0.01)
        assert wx.sigma_z_star(-0.999, g) > 0.0

    def test_stationarity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = wx.GaussianSpec(float(rng.uniform(0.1, 5)),
                                float(rng.uniform(0.1, 5)))
            rho = float(rng.uniform(-0.99, 0.99))
            t = wx.sigma_z_star(rho, g)
            h = 1e-6 * max(1.0, t)
            fd = (wx.gaussian_divergence_term(rho, t + h, g)
                  - wx.gaussian_divergence_term(rho, t - h, g)) / (2 * h)
            assert abs(fd) <= 1e-6


class TestGaussianExponent:
    def test_equal_rates_zero(self):
        g = wx.GaussianSpec(1.0, 1.0)
        for r in (0.1, 0.3, 0.6):
            assert wx.gaussian_exponent(g, wx.RatePair(r, r)).e <= 1e-9

    def test_zero_below_capacity(self):
        g = wx.GaussianSpec(1.0, 1.0)
        opt = wx.gaussian_exponent(g, wx.RatePair(0.3, 0.1))
        assert opt.e <= 1e-9

    def test_true_channel_branches_exact_at_high_snr(self):
        # rho_P = 1 - 5e-9 lies within the grid refinement's tolerance of
        # rho = 1, where a grid search misses the zero of the divergence
        g = wx.GaussianSpec(1e4, 1e-4)
        rho_p = math.sqrt(g.s / (g.s + g.sigma2))
        below = wx.gaussian_exponent(g, wx.RatePair(9.0, 5.0))
        assert 9.0 < g.capacity
        assert below.e == 0.0 and below.e3 == 0.0
        assert below.rho_star == rho_p
        above = wx.gaussian_exponent(g, wx.RatePair(12.0, 10.0))
        assert 10.0 > g.capacity
        assert above.e == 2.0 and above.e1 == 2.0
        assert above.active_branch == "E1" and above.rho_star == rho_p

    def test_true_statistics_feasible_in_e3(self):
        g = wx.GaussianSpec(2.0, 0.5)
        rho_p = math.sqrt(g.s / (g.s + g.sigma2))
        sz = wx.sigma_z_star(rho_p, g)
        assert sz == pytest.approx(math.sqrt(g.s + g.sigma2), abs=1e-12)
        assert wx.gaussian_divergence_term(rho_p, sz, g) == pytest.approx(0.0, abs=1e-13)

    def test_bounds(self):
        g = wx.GaussianSpec(1.0, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            r1 = float(rng.uniform(0.01, 2.0))
            r2 = float(rng.uniform(0.0, r1))
            opt = wx.gaussian_exponent(g, wx.RatePair(r1, r2))
            assert -1e-10 <= opt.e <= r1 - r2 + 1e-9
            assert opt.e == min(opt.e1, opt.e2, opt.e3)
            assert opt.sigma_z_star == pytest.approx(
                wx.sigma_z_star(opt.rho_star, g), abs=1e-12)

    def test_half_range_matches_full_range_search(self):
        g = wx.GaussianSpec(1.0, 1.0)
        rates = wx.RatePair(0.8, 0.2)
        opt = wx.gaussian_exponent(g, rates)
        rho1 = rho_from_rate(rates.r1)
        rho2 = rho_from_rate(rates.r2)
        # dense symmetric grid, with the interval endpoints included exactly
        # so that boundary minima are represented
        ends = np.array([-rho1, -rho2, rho2, rho1])
        full = np.sort(np.concatenate([
            np.linspace(-1 + 1e-9, 1 - 1e-9, 100001), ends]))
        w = 1.0 - full * full
        mid = _e2_objective(full, w, g.s, g.sigma2)
        prof = mid - 0.5 * np.log(w)
        e1 = rates.r1 - rates.r2 + prof[np.abs(full) <= rho2].min()
        e2 = rates.r1 + mid[(np.abs(full) >= rho2) & (np.abs(full) <= rho1)].min()
        e3 = prof[np.abs(full) >= rho1].min()
        assert opt.e1 == pytest.approx(e1, abs=1e-7)
        assert opt.e2 == pytest.approx(e2, abs=1e-7)
        assert opt.e3 == pytest.approx(e3, abs=1e-7)

    def test_rate_endpoint_clamping(self):
        assert rho_from_rate(0.0) == 0.0
        assert rho_from_rate(1e6) == 1.0 - 1e-12

    def test_determinism(self):
        g = wx.GaussianSpec(1.0, 1.0)
        a = wx.gaussian_exponent(g, wx.RatePair(0.9, 0.3))
        b = wx.gaussian_exponent(g, wx.RatePair(0.9, 0.3))
        assert a == b

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            wx.GaussianSpec(0.0, 1.0)
        with pytest.raises(ValueError):
            wx.GaussianSpec(1.0, -1.0)
        # an infinite S/sigma^2 made every branch NaN, and no branch was
        # picked
        for s, sigma2 in ((1e300, 1e-300), (1e200, 1e-150), (1e10, 1e-300)):
            with pytest.raises(ValueError, match="overflows"):
                wx.GaussianSpec(s, sigma2)
        assert wx.GaussianSpec(1e-10, 1e-300).capacity > 300.0
        # at S = sigma^2 = 5e-324 the variance in the divergence term
        # underflowed to 0 and E printed as 0 in place of 0.0264
        tiny = sys.float_info.min
        for value in (5e-324, 1e-320, tiny / 2):
            for s, sigma2 in ((value, 1.0), (1.0, value), (value, value)):
                with pytest.raises(ValueError, match="finite and normal"):
                    wx.GaussianSpec(s, sigma2)
        rates = wx.RatePair(0.5, 0.0)
        assert wx.gaussian_exponent(wx.GaussianSpec(tiny, tiny), rates).e == \
            wx.gaussian_exponent(wx.GaussianSpec(1.0, 1.0), rates).e


class TestSpecMemo:
    """A spec that has served a whole sweep gives what a fresh spec gives,
    and stays a plain value: equal, hashable, printable and picklable."""

    @pytest.mark.parametrize("snr", (1e-2, 1.0, 1e2))
    def test_hits_equal_misses(self, snr):
        shared = wx.GaussianSpec(2.0, 2.0 / snr)
        cap = shared.capacity
        grid = np.linspace(0.0, 1.5 * cap, 7).tolist()
        pairs = [(r1, r2) for r1 in grid for r2 in grid if r2 <= r1]
        assert any(r1 == r2 for r1, r2 in pairs)
        assert any(r2 >= cap for _, r2 in pairs)
        assert any(0.0 < r1 <= cap for r1, _ in pairs)
        for r1, r2 in pairs:
            rates = wx.RatePair(r1, r2)
            fresh = wx.gaussian_exponent(
                wx.GaussianSpec(shared.s, shared.sigma2), rates)
            assert wx.gaussian_exponent(shared, rates) == fresh, rates

    def test_equality_hash_repr_unchanged(self):
        used, fresh = wx.GaussianSpec(1.0, 0.5), wx.GaussianSpec(1.0, 0.5)
        for r1, r2 in ((0.9, 0.1), (0.9, 0.2), (0.3, 0.1)):
            wx.gaussian_exponent(used, wx.RatePair(r1, r2))
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "GaussianSpec(s=1.0, sigma2=0.5)"
        assert {fresh: 1}[used] == 1
        assert used != wx.GaussianSpec(1.0, 0.25)
        copy = pickle.loads(pickle.dumps(used))
        assert copy == used and copy.__dict__ == used.__dict__


def _endpoint_e1(g, rates):
    """E1 at the endpoint the profile's shape picks, apart from the solver:
    f falls to its zero at the true correlation rho_P, at rate C, so its
    minimum on [0, rho2] is f(rho2) = R2 + h(rho2) at the exact
    w = e^{-2 R2} below C, and 0 from C on."""
    if rates.r2 >= g.capacity:
        return rates.r1 - rates.r2
    rho2 = math.sqrt(-math.expm1(-2.0 * rates.r2))
    h = float(_e2_objective(rho2, math.exp(-2.0 * rates.r2), g.s, g.sigma2))
    return rates.r1 - rates.r2 + max(0.0, rates.r2 + h)


class TestBranchEndpoints:
    """E1 is its endpoint form: exactly R1 - R2 from C on, and below C f at
    rho2, evaluated apart from the solver, so equal up to rounding; E3 is
    0 up to C and E2's float above."""

    def test_bench_like_pairs(self):
        # rate grids from 0 to 1.5 C at SNRs spanning six decades, drawn
        # like the benchmark's Gaussian pool: 7 x 3 specs x 15 pairs
        rng = np.random.default_rng(20140324)
        count = 0
        for decade in range(-3, 4):
            for _ in range(3):
                log_s = float(rng.uniform(-3.0, 3.0))
                log_snr = decade + float(rng.uniform(-0.5, 0.5))
                g = wx.GaussianSpec(10.0 ** log_s,
                                    10.0 ** (log_s - log_snr))
                grid = np.linspace(0.0, 1.5 * g.capacity, 5)
                for k, r1 in enumerate(grid):
                    for r2 in grid[:k + 1]:
                        rates = wx.RatePair(float(r1), float(r2))
                        opt = wx.gaussian_exponent(g, rates)
                        e1 = _endpoint_e1(g, rates)
                        if r2 >= g.capacity:
                            assert opt.e1 == e1, (g, rates)
                        assert abs(opt.e1 - e1) <= 1e-15 * max(1.0, abs(e1)), \
                            (g, rates, opt.e1, e1)
                        e3 = 0.0 if r1 <= g.capacity else opt.e2
                        assert opt.e3 == e3, (g, rates)
                        count += 1
        assert count >= 300

    def test_e1_argmin_is_rho2(self):
        # f is flat near its zero at C, where a numerical search's argmin
        # can miss rho2: by 1.6e-8 on the benchmark pool's rows with
        # R1 = R2 = C to rounding
        rows = 0
        for call in workloads.gaussian_pool(""):
            argv = dict(zip(call.argv[1::2], call.argv[2::2]))
            g = wx.GaussianSpec(float(argv["--power"]),
                                float(argv["--noise"]))
            grid = cli._parse_grid(argv["--r1-grid"], "").tolist()
            assert argv["--r2-grid"] == argv["--r1-grid"]
            for k, r1 in enumerate(grid):
                for r2 in grid[:k + 1]:
                    opt = wx.gaussian_exponent(g, wx.RatePair(r1, r2))
                    if opt.active_branch == "E1" and r2 < g.capacity:
                        assert opt.rho_star == rho_from_rate(r2), (g, r1, r2)
                        rows += 1
        assert rows >= 8


def _e2_objective(rho, w, s, sigma2):
    """h(rho) = f(rho) + ln(w)/2 at sigma_z*(rho), w = 1 - rho^2, written
    apart from the solver.

    In sigma_z alone, h = [(sigma_z^2 - 2 rho sigma_z sqrt(S) + S)/sigma^2
    - ln(sigma_z^2/sigma^2) - 1]/2.  sigma_z* solves sigma_z^2
    - rho sqrt(S) sigma_z - sigma^2 = 0, so sigma_z - rho sqrt(S)
    = sigma^2/sigma_z and the first term is sigma^2/sigma_z^2
    + w S/sigma^2, which does not cancel at high SNR.  h moves by about
    S/(2 sigma^2) per unit of w, so w is taken as given: e^{-2R} on a grid
    in R, or 1 - fl(rho^2) on a grid in rho, where the last bit of rho^2 is
    worth 5e-9 at S/sigma^2 = 1e8.
    """
    t = math.sqrt(s / sigma2)
    u = 0.5 * (rho * t + np.sqrt(rho * rho * t * t + 4.0))   # sigma_z*/sigma
    return 0.5 * (1.0 / (u * u) + w * t * t - 2.0 * np.log(u) - 1.0)


def _rate_grid(lo, hi, *extra):
    """2,001 rates on [lo, hi], and any extra ones, with their rho and
    exact w = e^{-2R}."""
    r = np.append(np.linspace(lo, hi, 2001), extra)
    return r, np.sqrt(-np.expm1(-2.0 * r)), np.exp(-2.0 * r)


def _random_cases(seed):
    """240 seeded (g, r1, r2, rho1, rho2) with S/sigma^2 from 1e-8 to 1e8;
    every fourth has R1 = R2 and every fourth rho1 at the cap.  The rhos
    are found apart from the solver."""
    rng = np.random.default_rng(seed)
    for k in range(240):
        snr = 10.0 ** rng.uniform(-8.0, 8.0)
        s = 10.0 ** rng.uniform(-3.0, 3.0)
        g = wx.GaussianSpec(s, s / snr)
        kind = k % 4
        if kind == 0:                            # R1 = R2
            r1 = r2 = float(rng.uniform(0.0, 2.0 * g.capacity))
        elif kind == 1:                          # rho1 at the cap
            r1 = float(rng.uniform(30.0, 40.0))
            r2 = float(rng.uniform(0.0, r1))
        else:
            r1 = float(rng.uniform(0.0, 2.0 * g.capacity))
            r2 = float(rng.uniform(0.0, r1))
        rho1, rho2 = (min(math.sqrt(-math.expm1(-2.0 * r)), _RHO_CAP)
                      for r in (r1, r2))
        yield g, r1, r2, rho1, rho2


class TestE2ClosedForm:
    """E2 is its objective at R1, the interval's upper end; an independent
    grid over [R2, R1] must find nothing lower."""

    def test_matches_grid_minimum(self):
        kinds = set()
        for g, r1, r2, rho1, rho2 in _random_cases(25):
            s, sigma2 = g.s, g.sigma2
            kinds.update(name for name, hit in (
                ("equal", r1 == r2), ("above C", r1 > g.capacity),
                ("cap", rho1 == _RHO_CAP)) if hit)
            e2 = wx.gaussian_exponent(g, wx.RatePair(r1, r2)).e2
            _, rho, w = _rate_grid(r2, r1)
            want = max(0.0, r1 + float(_e2_objective(rho, w, s, sigma2).min()))
            assert abs(e2 - want) <= 1e-12 * max(1.0, abs(e2)), (g, r1, r2)
            # dh/drho = -sqrt(S) sigma_z*/sigma^2 < 0: h decreases
            sigma_z = 0.5 * (rho * math.sqrt(s)
                             + np.sqrt(rho * rho * s + 4.0 * sigma2))
            assert np.all(-math.sqrt(s) * sigma_z / sigma2 < 0.0)
        assert kinds == {"equal", "above C", "cap"}


class TestE1E3AgainstGrid:
    """E1 is its objective's minimum on [0, R2] and E3 on [R1, R1 + 40]; an
    independent grid in R over each branch's interval must find nothing
    lower, and each printed value must be attained on it."""

    def test_matches_grid_minimum(self):
        kinds = set()
        for g, r1, r2, rho1, rho2 in _random_cases(27):
            s, sigma2 = g.s, g.sigma2
            kinds.update(name for name, hit in (
                ("equal", r1 == r2), ("R2 below C", r2 < g.capacity),
                ("R1 above C", r1 > g.capacity),
                ("cap", rho1 == _RHO_CAP)) if hit)
            opt = wx.gaussian_exponent(g, wx.RatePair(r1, r2))
            # E1 on a grid in R, with C where it lies inside: f = h + R
            inside = [g.capacity] if r2 >= g.capacity else []
            r, rho, w = _rate_grid(0.0, r2, *inside)
            f = _e2_objective(rho, w, s, sigma2) + r
            want = r1 - r2 + max(0.0, float(f.min()))
            assert abs(opt.e1 - want) <= 1e-12 * max(1.0, abs(opt.e1)), \
                (g, r1, r2, opt.e1, want)
            # E3 on a grid in R, with C where it lies inside: f = h + R
            inside = [g.capacity] if r1 <= g.capacity else []
            r, rho, w = _rate_grid(r1, r1 + 40.0, *inside)
            f = _e2_objective(rho, w, s, sigma2) + r
            want = max(0.0, float(f.min()))
            assert abs(opt.e3 - want) <= 1e-12 * max(1.0, abs(opt.e3)), \
                (g, r1, r2, opt.e3, want)
        assert kinds == {"equal", "R2 below C", "R1 above C", "cap"}


def _f_50_digits(t, r):
    """f(R) = R + h at 50 digits, in x = sigma_z*/sigma alone.

    With w = e^{-2R}, rho = sqrt(1 - w) and x the positive root of
    x^2 - rho sqrt(t) x - 1 = 0, rho sqrt(t)/x = 1 - 1/x^2, so
    h = (t w - 1 + 1/x^2)/2 - ln x.
    """
    w = (-2 * r).exp()
    rt = (1 - w).sqrt() * t.sqrt()
    x = (rt + (rt * rt + 4).sqrt()) / 2
    return r + (t * w - 1 + 1 / (x * x)) / 2 - x.ln()


def _reference(g, r1, r2):
    """(E, E1, E2, E3) as floats from f at 50 digits: E1 = R1 - R2
    + [f(R2)]_+ below C and R1 - R2 from C on, E2 = [f(R1)]_+, and E3 = 0
    up to C and f(R1) above it."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        t = decimal.Decimal(g.s) / decimal.Decimal(g.sigma2)
        c = (1 + t).ln() / 2
        d1, d2 = decimal.Decimal(r1), decimal.Decimal(r2)
        e1 = d1 - d2 + max(0, _f_50_digits(t, d2) if d2 < c else 0)
        e2 = max(0, _f_50_digits(t, d1))
        e3 = e2 if d1 > c else decimal.Decimal(0)
        return [float(v) for v in (min(e1, e2, e3), e1, e2, e3)]


class TestFiftyDigitReference:
    """Every branch against f evaluated at 50 digits with ``decimal``."""

    @staticmethod
    def _check(g, r1, r2, tol):
        opt = wx.gaussian_exponent(g, wx.RatePair(r1, r2))
        got = (opt.e, opt.e1, opt.e2, opt.e3)
        for name, a, b in zip(("E", "E1", "E2", "E3"), got,
                              _reference(g, r1, r2)):
            assert abs(a - b) <= tol * max(1.0, abs(b)), \
                (name, g, r1, r2, a, b)
        if r1 > g.capacity:
            assert opt.e3 == opt.e2, (g, r1, r2)

    def test_matches_reference(self):
        kinds = set()
        for seed in (28, 29):
            for g, r1, r2, rho1, _ in _random_cases(seed):
                cap = g.capacity
                kinds.update(name for name, hit in (
                    ("equal", r1 == r2), ("R2 below C", r2 < cap),
                    ("R1 above C", r1 > cap),
                    ("cap", rho1 == _RHO_CAP)) if hit)
                self._check(g, r1, r2, 1e-12)
        assert kinds == {"equal", "R2 below C", "R1 above C", "cap"}

    def test_rho2_past_the_cap(self):
        # from S/sigma^2 = 1e13 on, rho2 just below C lies past _RHO_CAP, by
        # 0.9e-12 to 1e-12; h must take it uncapped.  Capped, E1 moves by
        # about that much, which the 1e-12 relative gate above can miss
        rng = np.random.default_rng(30)
        above = 0
        for k in range(60):
            t = 10.0 ** rng.uniform(13.0, 16.0)
            s = 10.0 ** rng.uniform(-3.0, 3.0)
            g = wx.GaussianSpec(s, s / t)
            r2 = g.capacity - 10.0 ** rng.uniform(-3.0, -0.5)
            assert math.sqrt(-math.expm1(-2.0 * r2)) > _RHO_CAP
            r1 = r2 if k % 2 else r2 + float(rng.uniform(0.0, 1.0))
            above += r1 > g.capacity
            self._check(g, r1, r2, 1e-13)
        assert 0 < above < 30


def _one_pair_sweep(argv):
    """The CSV lines and skipped count a gaussian grid call must print,
    each row from ``gaussian_exponent`` at its own pair."""
    args = cli.build_parser().parse_args(argv)
    unit = math.log(2.0) if args.bits else 1.0
    g = wx.GaussianSpec(args.power, args.noise)
    r1s = (cli._parse_grid(args.r1_grid, "") * unit).tolist()
    r2s = (cli._parse_grid(args.r2_grid, "") * unit).tolist()
    lines = [",".join(cli._GAUSSIAN_COLUMNS)]
    for r1 in r1s:
        for r2 in r2s:
            if r2 <= r1:
                opt = wx.gaussian_exponent(g, wx.RatePair(r1, r2))
                lines.append(cli._GAUSSIAN_ROW % (
                    g.s, g.sigma2, r1 / unit, r2 / unit, opt.e / unit,
                    opt.e1 / unit, opt.e2 / unit, opt.e3 / unit,
                    opt.rho_star, opt.sigma_z_star, opt.active_branch))
    return lines, sum(r2 > r1 for r1 in r1s for r2 in r2s)


_CAP_1 = wx.GaussianSpec(1.0, 1.0).capacity
_SWEEPS = [call.argv for call in workloads.gaussian_pool("")] + [
    ("gaussian", "--power", "2", "--noise", "0.5", "--r1-grid", "0:1.5:7",
     "--r2-grid", "0:1:5", "--bits"),
    # R1 = C exactly, rows with C <= R2 <= R1, and pairs with R2 > R1
    ("gaussian", "--power", "1", "--noise", "1", "--r1-grid",
     f"{_CAP_1!r}:{3 * _CAP_1!r}:5", "--r2-grid", f"0:{2 * _CAP_1!r}:6"),
]


class TestSweepMatchesOnePair:
    """A grid sweep prints, row for row, what ``gaussian_exponent`` gives
    at each pair: evaluating each rate once serves every pair alike."""

    @pytest.mark.parametrize("argv", _SWEEPS,
                             ids=[f"sweep{k}" for k in range(len(_SWEEPS))])
    def test_rows_equal_one_pair_rows(self, capsys, argv):
        lines, skipped = _one_pair_sweep(list(argv))
        assert cli.main(list(argv)) == 0
        out = capsys.readouterr()
        assert out.out.splitlines() == lines
        assert out.err == (f"skipped {skipped} grid points with R2 > R1\n"
                           if skipped else "")

    def test_cases_cover_the_capacity_rows(self):
        args = cli.build_parser().parse_args(list(_SWEEPS[-1]))
        r1s = cli._parse_grid(args.r1_grid, "").tolist()
        r2s = cli._parse_grid(args.r2_grid, "").tolist()
        assert r1s[0] == _CAP_1
        assert any(_CAP_1 <= r2 <= r1 for r1 in r1s for r2 in r2s)
        assert any(r2 > r1 for r1 in r1s for r2 in r2s)


def _row_format_sweep(argv):
    """The CSV lines and skipped count a gaussian grid call must print:
    the header, then ``_GAUSSIAN_ROW`` of each ``gaussian_grid`` row."""
    args = cli.build_parser().parse_args(argv)
    unit = math.log(2.0) if args.bits else 1.0
    g = wx.GaussianSpec(args.power, args.noise)
    rows, skipped = gaussian_grid(
        g, (cli._parse_grid(args.r1_grid, "") * unit).tolist(),
        (cli._parse_grid(args.r2_grid, "") * unit).tolist())
    lines = [",".join(cli._GAUSSIAN_COLUMNS)]
    lines += [cli._GAUSSIAN_ROW % (g.s, g.sigma2, r1 / unit, r2 / unit,
                                   e / unit, e1 / unit, e2 / unit, e3 / unit,
                                   rho, sz, branch)
              for r1, r2, e, e1, e2, e3, rho, sz, branch in rows]
    return lines, skipped


_FORMAT_SWEEPS = _SWEEPS + [
    # one R1 value three times over: three blocks of equal rows
    ("gaussian", "--power", "2", "--noise", "0.5", "--r1-grid", "1:1:3",
     "--r2-grid", "0:1.5:4"),
    # 0.0 and -0.0 in both grids, which print apart
    ("gaussian", "--power", "1", "--noise", "1", "--r1-grid=-0:-0:2",
     "--r2-grid=-0:-0:2", "--bits"),
]


class TestSweepFormatsEachRow:
    """A grid sweep prints each field of each row as ``_GAUSSIAN_ROW``
    formats it, however few times it formats a repeated value."""

    @pytest.mark.parametrize(
        "argv", _FORMAT_SWEEPS,
        ids=[f"sweep{k}" for k in range(len(_FORMAT_SWEEPS))])
    def test_rows_equal_row_format(self, capsys, argv):
        lines, skipped = _row_format_sweep(list(argv))
        assert cli.main(list(argv)) == 0
        out = capsys.readouterr()
        assert out.out == "".join(line + "\n" for line in lines)
        assert out.err == (f"skipped {skipped} grid points with R2 > R1\n"
                           if skipped else "")

    def test_output_file(self, capsys, tmp_path):
        argv = list(_FORMAT_SWEEPS[-2])
        path = tmp_path / "sweep.csv"
        assert cli.main(argv + ["--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        lines, _ = _row_format_sweep(argv)
        assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    def test_cases_cover_the_edges(self):
        texts = [_row_format_sweep(list(argv))[0] for argv in
                 (_SWEEPS[-2], *_FORMAT_SWEEPS[-2:])]
        bits, repeated, zeros = ([line.split(",") for line in lines[1:]]
                                 for lines in texts)
        assert len({row[2] for row in repeated}) == 1 and len(repeated) == 9
        assert {(row[2], row[3]) for row in zeros} == {
            ("0", "0"), ("0", "-0"), ("-0", "0"), ("-0", "-0")}
        assert len(bits) < 7 * 5


def _awgn_bins(t, inputs, bins, half_width):
    """(P_X, bin masses) of _quantized_awgn's channel, each row of masses
    before it is normalized."""
    x, w = np.polynomial.hermite_e.hermegauss(inputs)
    edges = np.linspace(-half_width, half_width, bins + 1).tolist()
    edges[0], edges[-1] = -math.inf, math.inf
    root2 = math.sqrt(2.0)

    def mass(a, b):
        # each tail from erfc, so that far bins keep their digits
        if a >= 0.0:
            return 0.5 * (math.erfc(a / root2) - math.erfc(b / root2))
        if b <= 0.0:
            return 0.5 * (math.erfc(-b / root2) - math.erfc(-a / root2))
        return 0.5 * (math.erf(b / root2) - math.erf(a / root2))

    rows = np.array([[mass(a - xi, b - xi) for a, b in zip(edges, edges[1:])]
                     for xi in (x * math.sqrt(t)).tolist()])
    return w / w.sum(), rows


def _quantized_awgn(t, inputs, bins, half_width):
    """The AWGN channel of S/sigma^2 = t at sigma = 1, made discrete: the
    inputs are the Gauss-Hermite nodes of N(0, t) with their weights as
    P_X, and the outputs are bins of equal width on [-half_width,
    half_width], the outer two open to infinity.  Written apart from
    ``gaussian.py``."""
    px, rows = _awgn_bins(t, inputs, bins, half_width)
    rows /= rows.sum(axis=1, keepdims=True)
    return wx.ChannelSpec(wx.Distribution(px), wx.Dmc(rows))


class TestQuantizedChannel:
    """The Gaussian closed forms against the DMC solver on a quantized AWGN
    channel, which shares no code with them: the gap closes about 4x per
    refinement, 24 x 128 to 32 x 256 (2.3e-4 to 5.8e-5 at S/sigma^2 = 1,
    (R1, R2) = (2.9 C, 1.4 C)).  At half-width 8 and more the solver's s = 0
    continuation fails on the S/sigma^2 = 0.1 channels, so 7 it is."""

    @pytest.mark.parametrize("t", (0.1, 1.0))
    def test_gap_closes_with_refinement(self, t):
        g = wx.GaussianSpec(t, 1.0)
        c = g.capacity
        rates = [wx.RatePair(f1 * c, f2 * c)
                 for f1, f2 in ((1.2, 0.2), (1.6, 0.3), (2.0, 0.5),
                                (2.9, 1.4))]
        gaps = []
        for inputs, bins in ((24, 128), (32, 256)):
            solver = wx.ExponentSolver(_quantized_awgn(t, inputs, bins, 7.0))
            gaps.append([abs(solver.exponent_rep1(r).e
                             - wx.gaussian_exponent(g, r).e) for r in rates])
        for r, coarse, fine in zip(rates, *gaps):
            assert 2.5 * fine <= coarse and fine < 2e-4, (r, coarse, fine)

    # S/sigma^2 = 0.1 at half-width 8, where the s = 0 continuation fails:
    # the halving level at s = 2^-9 stops uncertified, so the walk ends at
    # s = 2^-8 with its s = 0 gap still 4.4e-4
    FAULT = (0.1, 16, 64, 8.0)

    def test_s_zero_fault_exits_3(self, tmp_path, capsys):
        # the file holds the bin masses before normalization, which the
        # loader normalizes as _quantized_awgn does, to the same bits
        px, rows = _awgn_bins(*self.FAULT)
        path = tmp_path / "awgn.json"
        path.write_text(json.dumps({"input_dist": px.tolist(),
                                    "wiretap": rows.tolist()}))
        spec, loaded = _quantized_awgn(*self.FAULT), wx.load_channel_spec(path)
        assert np.array_equal(loaded.wiretap.rows, spec.wiretap.rows)
        assert np.array_equal(loaded.input_dist.probs, spec.input_dist.probs)
        code = cli.main(["exponent", str(path), "--r1", "0.1", "--r2", "0"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("error: s=0 continuation did not certify down "
                              "to s=0.00390625 ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.xfail(strict=True, raises=wx.SolverError,
                       reason="the s = 0 continuation does not certify")
    def test_s_zero_certifies_at_half_width_8(self):
        wx.ExponentSolver(_quantized_awgn(*self.FAULT))
