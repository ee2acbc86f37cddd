"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""
import math

import numpy as np
import pytest

import wiretap_exponent as wx
from wiretap_exponent.cli import main as cli_main
from wiretap_exponent.exponent import ExponentSolver

from conftest import make_asym_3x3, make_bsc, random_channel

LN2 = math.log(2.0)

BSC_PS = (0.05, 0.1, 0.2, 0.3, 0.45)
GRID_R1 = np.linspace(0.0, 0.95, 20)
GRID_R2 = np.linspace(0.0, 0.95, 20)


@pytest.fixture(scope="module")
def bsc_grids():
    """Exponent surfaces for the five BSC crossovers on the 20x20 grid."""
    surfaces = {}
    for p in BSC_PS:
        spec = make_bsc(p)
        solver = ExponentSolver(spec)
        values = {}
        for r1 in GRID_R1:
            for r2 in GRID_R2:
                if r2 > r1 + 1e-12:
                    continue
                rates = wx.RatePair(float(r1), min(float(r2), float(r1)))
                values[(float(r1), float(r2))] = \
                    solver.exponent_rep1(rates).e
        surfaces[p] = (solver, values)
    return surfaces


def test_criterion_1_representation_equivalence():
    """Theorem equivalence: |rep1 - rep2| <= 1e-4 on randomized channels."""
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(100):
        nx = int(rng.integers(2, 5))
        nz = int(rng.integers(2, 5))
        spec = random_channel(rng, nx, nz)
        solver = ExponentSolver(spec)
        for _ in range(10):
            r1 = float(rng.uniform(0.0, 1.3))
            r2 = float(rng.uniform(0.0, r1)) if r1 > 0 else 0.0
            rates = wx.RatePair(r1, r2)
            e1 = solver.exponent_rep1(rates).e
            e2 = solver.exponent_rep2(rates)[0]
            worst = max(worst, abs(e1 - e2))
            assert abs(e1 - e2) <= 1e-4
    print(f"\nACCEPTANCE 1 PASS: 100 channels x 10 rate pairs, "
          f"max |rep1 - rep2| = {worst:.3e} <= 1e-4")


def test_criterion_2_bsc_closed_form(bsc_grids):
    """Generic solver matches the exact closed form within 1e-9."""
    worst = 0.0
    count = 0
    for p, (_, values) in bsc_grids.items():
        for (r1, r2), e in values.items():
            closed = wx.bsc_exponent_closed_form(p, wx.RatePair(r1, r2))
            worst = max(worst, abs(e - closed))
            count += 1
            assert abs(e - closed) <= 1e-9, (p, r1, r2, e, closed)
    print(f"\nACCEPTANCE 2 PASS: {count} grid points over p = {BSC_PS}, "
          f"max |generic - closed form| = {worst:.3e} <= 1e-9")


def test_criterion_3_zero_and_boundary_structure(bsc_grids):
    """E(R1,R1) = 0 exactly; zero set is R1 <= I(X;Z) up to one grid cell;
    0 <= E <= R1 - R2 everywhere."""
    cell = float(GRID_R1[1] - GRID_R1[0])
    for p, (solver, values) in bsc_grids.items():
        i_p = solver.i_p
        for (r1, r2), e in values.items():
            assert -1e-12 <= e <= r1 - r2 + 1e-9
            if r2 == r1:
                assert e == 0.0
                continue
            if r1 <= i_p - cell:
                assert e <= 1e-9, (p, r1, r2, e)
            if r1 >= i_p + cell:
                assert e > 1e-9, (p, r1, r2, e)
    print(f"\nACCEPTANCE 3 PASS: diagonal exactly zero, zero region matches "
          f"R1 <= I(X;Z) within one grid cell ({cell:.3f} nats), bounds hold")


def test_criterion_4_shape_properties(bsc_grids):
    """Monotone nondecreasing in R1, nonincreasing in R2, concave in R2."""
    for p, (_, values) in bsc_grids.items():
        for r2 in GRID_R2:
            col = [values[(float(r1), float(r2))] for r1 in GRID_R1
                   if (float(r1), float(r2)) in values]
            for a, b in zip(col, col[1:]):
                assert b >= a - 1e-6
        for r1 in GRID_R1:
            row = [values[(float(r1), float(r2))] for r2 in GRID_R2
                   if (float(r1), float(r2)) in values]
            for a, b in zip(row, row[1:]):
                assert b <= a + 1e-6
            for a, b, c in zip(row, row[1:], row[2:]):
                assert a - 2 * b + c <= 1e-6
    print("\nACCEPTANCE 4 PASS: monotone in R1 and R2, concave in R2 "
          "(second differences <= 1e-6) on all five grids")


def test_criterion_5_full_security_construction():
    """The sufficient bracket at R1 = I_Q* + 0.05 is nonempty and every
    sampled R2 in it achieves the blind-guessing exponent within 1e-5."""
    worst = 0.0
    for name, spec in (("BSC(0.1)", make_bsc(0.1)),
                       ("asymmetric 3x3", make_asym_3x3())):
        solver = ExponentSolver(spec)
        analysis = wx.compute_qstar(solver)
        r1 = analysis.i_qstar + 0.05
        interval = wx.full_security_interval(solver, r1)
        assert not interval.empty
        assert interval.bracket_valid
        assert interval.bracket_lower <= interval.bracket_upper
        for r2 in np.linspace(interval.bracket_lower,
                              interval.bracket_upper, 10):
            e = solver.exponent_rep1(wx.RatePair(r1, float(r2))).e
            worst = max(worst, abs(e - (r1 - r2)))
            assert abs(e - (r1 - r2)) <= 1e-5, (name, r2)
    print(f"\nACCEPTANCE 5 PASS: brackets nonempty, 10 sampled R2 each, "
          f"max |E - (R1 - R2)| = {worst:.3e} <= 1e-5")


def test_criterion_6_type_enumeration_convergence():
    """Finite-n type enumeration approaches the asymptotic exponent."""
    spec = make_bsc(0.1)
    rates = wx.RatePair(0.6, 0.1)
    e = ExponentSolver(spec).exponent_rep1(rates).e
    gaps = []
    for n in (50, 100, 200, 400):
        te = wx.type_enum_exponent(spec, rates, n)
        gaps.append(abs(te - e))
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-12
    assert gaps[-1] <= 2e-2
    print(f"\nACCEPTANCE 6 PASS: gaps at n = (50, 100, 200, 400): "
          f"{', '.join(f'{g:.4f}' for g in gaps)}; final <= 2e-2")


def test_criterion_7_ensemble_simulation():
    """Finite-n ensemble sanity and trend toward the asymptotic exponent."""
    bsc = make_bsc(0.1)
    useless = wx.Dmc([[0.3, 0.7], [0.3, 0.7]])

    es = wx.EnsembleSpec(n=6, rates=wx.RatePair(0.6, 0.2), p_x_type=(3, 3),
                         channel=useless, trials=50, seed=1)
    res = wx.estimate_ensemble_pc(es)
    assert res.pc_mean == pytest.approx(1.0 / es.m_subcodes, abs=1e-12)
    assert res.pc_std_err == pytest.approx(0.0, abs=1e-12)

    es = wx.EnsembleSpec(n=6, rates=wx.RatePair(0.3, 0.3), p_x_type=(3, 3),
                         channel=bsc.wiretap, trials=20, seed=1)
    assert wx.estimate_ensemble_pc(es).pc_mean == pytest.approx(1.0, abs=1e-12)

    rates = wx.RatePair(0.69, 0.23)
    solver = ExponentSolver(bsc)
    e_inf = solver.exponent_rep1(rates).e
    trials = 2000
    emps = []
    for n in (6, 8, 10, 12):
        es = wx.EnsembleSpec(n=n, rates=rates,
                             p_x_type=wx.quantize_composition([0.5, 0.5], n),
                             channel=bsc.wiretap, trials=trials, seed=20260808)
        res = wx.estimate_ensemble_pc(es)
        assert res.empirical_exponent > 0.0
        emps.append(res.empirical_exponent)
    dists = [abs(v - e_inf) for v in emps]
    for a, b in zip(dists, dists[1:]):
        assert b < a, (emps, e_inf)

    means = []
    for r1 in (0.5, 0.6, 0.69):
        es = wx.EnsembleSpec(n=8, rates=wx.RatePair(r1, 0.23),
                             p_x_type=(4, 4), channel=bsc.wiretap,
                             trials=trials, seed=424242)
        means.append(wx.estimate_ensemble_pc(es).pc_mean)
    assert means[0] > means[1] > means[2]

    print(f"\nACCEPTANCE 7 PASS: useless channel exact 1/M; single sub-code "
          f"P_c = 1; empirical exponents {', '.join(f'{v:.4f}' for v in emps)} "
          f"move toward E = {e_inf:.4f}; P_c decreasing in R1 "
          f"({', '.join(f'{v:.4f}' for v in means)}) with shared randomness")


def test_criterion_8_gaussian_branch():
    """Closed-form stationarity, zero set and shape."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = wx.GaussianSpec(float(rng.uniform(0.1, 5.0)),
                            float(rng.uniform(0.1, 5.0)))
        rho = float(rng.uniform(-0.99, 0.99))
        t = wx.sigma_z_star(rho, g)
        h = 1e-6 * max(1.0, t)
        fd = (wx.gaussian_divergence_term(rho, t + h, g)
              - wx.gaussian_divergence_term(rho, t - h, g)) / (2 * h)
        assert abs(fd) <= 1e-6

    g = wx.GaussianSpec(1.0, 1.0)
    for r in (0.1, 0.25, 0.34):
        assert wx.gaussian_exponent(g, wx.RatePair(r, r)).e <= 1e-9
    capacity = g.capacity
    for r1 in (0.15, 0.3, capacity - 1e-3):
        assert wx.gaussian_exponent(g, wx.RatePair(r1, r1 / 2)).e <= 1e-9

    r1s = np.linspace(0.0, 1.5, 16)
    r2s = np.linspace(0.0, 1.5, 16)
    grid = {}
    for r1 in r1s:
        for r2 in r2s[r2s <= r1 + 1e-12]:
            rates = wx.RatePair(float(r1), min(float(r2), float(r1)))
            grid[(float(r1), float(r2))] = wx.gaussian_exponent(g, rates).e
    for r2 in r2s:
        col = [grid[(float(r1), float(r2))] for r1 in r1s
               if (float(r1), float(r2)) in grid]
        for a, b in zip(col, col[1:]):
            assert b >= a - 1e-6
    for r1 in r1s:
        row = [grid[(float(r1), float(r2))] for r2 in r2s
               if (float(r1), float(r2)) in grid]
        for a, b in zip(row, row[1:]):
            assert b <= a + 1e-6
        for a, b, c in zip(row, row[1:], row[2:]):
            assert a - 2 * b + c <= 1e-6
    print("\nACCEPTANCE 8 PASS: sigma_z stationarity <= 1e-6 (100 points), "
          "zero set and shape properties hold for (S, sigma2) = (1, 1)")


def test_criterion_9_determinism(tmp_path):
    """Byte-identical reruns of representative computations from 1-8."""
    rng_spec = random_channel(np.random.default_rng(99), 3, 3)

    def snapshot():
        parts = []
        solver = ExponentSolver(rng_spec)
        rates = wx.RatePair(0.7, 0.2)
        res = solver.solve(rates)
        parts.append(repr((res.e, res.e1, res.e2, res.e3, res.rep2_value,
                           res.lambda1, res.lambda2,
                           solver._branches(rates)[5].q.tobytes())))
        parts.append(repr(wx.bsc_exponent_closed_form(
            0.1, wx.RatePair(0.6, 0.1))))
        iv = wx.full_security_interval(ExponentSolver(make_bsc(0.1)),
                                       LN2 + 0.05)
        parts.append(repr((iv.lower, iv.upper, iv.bracket_lower,
                           iv.bracket_upper)))
        parts.append(repr(wx.type_enum_exponent(
            make_bsc(0.1), wx.RatePair(0.6, 0.1), 100)))
        es = wx.EnsembleSpec(n=8, rates=wx.RatePair(0.6, 0.2),
                             p_x_type=(4, 4),
                             channel=make_bsc(0.1).wiretap,
                             trials=25, seed=7)
        parts.append(repr(wx.estimate_ensemble_pc(es)))
        parts.append(repr(wx.gaussian_exponent(wx.GaussianSpec(1.0, 1.0),
                                               wx.RatePair(0.9, 0.3))))
        return "\n".join(parts)

    assert snapshot() == snapshot()

    channel = tmp_path / "bsc.json"
    channel.write_text('{"input_dist": [0.5, 0.5], '
                       '"wiretap": [[0.9, 0.1], [0.1, 0.9]]}',
                       encoding="utf-8")
    outs = []
    for k in range(2):
        out = tmp_path / f"sweep{k}.csv"
        assert cli_main(["sweep", str(channel), "--r1-grid", "0.1:0.9:5",
                         "--r2-fractions", "0:1:5",
                         "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    sims = []
    for k in range(2):
        out = tmp_path / f"sim{k}.csv"
        assert cli_main(["simulate", str(channel), "--n", "8",
                         "--r1", "0.6", "--r2", "0.2", "--trials", "30",
                         "--seed", "3", "--output", str(out)]) == 0
        sims.append(out.read_bytes())
    assert sims[0] == sims[1]
    print("\nACCEPTANCE 9 PASS: solver, closed form, region, type "
          "enumeration, simulation, Gaussian search and CLI outputs are "
          "byte-identical across reruns")
