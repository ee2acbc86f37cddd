"""Correct-decoding exponent for the power-constrained Gaussian channel.

Codewords are drawn uniformly on the sphere of squared radius n*S and the
eavesdropper sees them through additive white Gaussian noise of variance
sigma^2.  The large-deviations variables are the empirical output power
sigma_z^2 and the empirical input-output correlation rho; the minimization
over sigma_z is available in closed form, and every branch evaluates one
objective in t = S/sigma^2 (``_objective``).  All three branches are closed
forms, each taken at a rate endpoint's exact w = e^{-2R} or at the true
channel's correlation (see ``gaussian_grid``).

All branch objectives at negative rho dominate their positive-rho mirror
pointwise (the divergence term grows by 2*rho*sigma_z*sqrt(S)/sigma^2 when
the sign flips), so each branch's minimum over rho >= 0 is its minimum over
the full range.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exponent import RatePair, _pick_branch

#: printed correlations never reach |rho| = 1: rate endpoints clamp here
_RHO_CAP = 1.0 - 1e-12


@dataclass(frozen=True)
class GaussianSpec:
    """Per-symbol power S and noise variance sigma^2, both normal floats."""

    s: float
    sigma2: float

    def __post_init__(self):
        # a subnormal value has too few digits for the 12 printed, and at
        # S = sigma^2 = 5e-324 the divergence term's variance underflows
        for name, v in (("power", self.s), ("noise variance", self.sigma2)):
            if not (math.isfinite(v) and v >= sys.float_info.min):
                raise ValueError(f"{name} must be finite and normal, got {v}")
        if not math.isfinite(self.s / self.sigma2):
            raise ValueError(f"S/sigma^2 = {self.s}/{self.sigma2} overflows")

    @property
    def capacity(self) -> float:
        """Mutual information of the true channel, 0.5*ln(1 + S/sigma^2)."""
        return 0.5 * math.log1p(self.s / self.sigma2)


@dataclass(frozen=True)
class GaussianOptimum:
    """Branch values, overall exponent and the achieving (rho, sigma_z)."""

    e: float
    e1: float
    e2: float
    e3: float
    rho_star: float
    sigma_z_star: float
    active_branch: str


def sigma_z_star(rho: float, g: GaussianSpec) -> float:
    """Closed-form minimizer of the divergence term over sigma_z > 0, the
    positive root of sigma_z^2 - rho*sqrt(S)*sigma_z - sigma^2 = 0, formed
    as sigma x(rho, t) so that no sum of S and sigma^2 can overflow.
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"|rho| must be < 1, got {rho}")
    return math.sqrt(g.sigma2) * _x(rho, g.s / g.sigma2)


def gaussian_divergence_term(rho: float, sigma_z: float,
                             g: GaussianSpec) -> float:
    """Large-deviations cost of observing empirical statistics (rho, sigma_z).

    Nonnegative; zero exactly at the true-channel statistics
    rho*sigma_z = sqrt(S), sigma_z^2 (1 - rho^2) = sigma^2.
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"|rho| must be < 1, got {rho}")
    if not sigma_z > 0:
        raise ValueError(f"sigma_z must be positive, got {sigma_z}")
    rho, sigma_z = np.asarray([rho]), np.asarray([sigma_z])
    resid = (rho * sigma_z - math.sqrt(g.s)) ** 2
    var = sigma_z * sigma_z * (1.0 - rho * rho)
    return float(0.5 * (resid / g.sigma2 + var / g.sigma2
                        - np.log(var / g.sigma2) - 1.0)[0])


def _x(rho, t):
    """sigma_z*/sigma: the positive root of x^2 - rho sqrt(t) x - 1 = 0."""
    return 0.5 * (rho * math.sqrt(t) + math.sqrt(rho * rho * t + 4.0))


def _objective(rho, w, t):
    """h(rho, w) = f + ln(w)/2, f the divergence term at the optimal sigma_z
    and w = 1 - rho^2 = e^{-2R}, passed apart so no caller must round rho^2.
    x - rho sqrt(t) = 1/x makes h = (t w - rho sqrt(t)/x)/2 - ln x, free of
    cancellation at high SNR.
    """
    x = _x(rho, t)
    return 0.5 * (t * w - rho * math.sqrt(t) / x) - np.log(x)


def _f_at_rate(r: float, t: float) -> float:
    """f at the correlation of rate r, r + h(rho, e^{-2r}).  rho is not
    capped: where it rounds to 1, w = e^{-2r} still carries the rate.
    """
    rho = math.sqrt(-math.expm1(-2.0 * r))
    return r + float(_objective(rho, math.exp(-2.0 * r), t))


def rho_from_rate(r: float) -> float:
    """Correlation level at mutual information r: sqrt(1 - e^{-2r}).

    Rates beyond the representable range clamp to just below one.
    """
    if r < 0:
        raise ValueError("rate must be nonnegative")
    rho = math.sqrt(max(0.0, -math.expm1(-2.0 * r)))
    return min(rho, _RHO_CAP)


def gaussian_exponent(g: GaussianSpec, rates: RatePair) -> GaussianOptimum:
    """Exponent of the Gaussian eavesdropper at the given rate pair: the
    one-pair case of ``gaussian_grid``, whose docstring has the branches.
    """
    (row,), _ = gaussian_grid(g, [rates.r1], [rates.r2])
    return GaussianOptimum(*row[2:])


def gaussian_grid(g: GaussianSpec, r1_values, r2_values) -> tuple[list, int]:
    """Optima at every pair (r1, r2) of two sequences of nonnegative rates
    with r2 <= r1, r1 outer and r2 inner, as rows (r1, r2, e, e1, e2, e3,
    rho_star, sigma_z_star, active_branch), and the number of pairs with
    r2 > r1, which get no row.

    Each branch restricts rho to the interval mapped from the rates via
    w = 1 - rho^2 = e^{-2R} and minimizes its objective there.  The profile
    f, the divergence term at the optimal sigma_z, falls to its zero at
    rho_P = sqrt(t/(1 + t)), t = S/sigma^2, the correlation at rate C, and
    rises after it.  So every branch's minimum lies at an end of its
    interval or at rho_P, and each is taken at its rate's exact w: rho may
    round to 1 at high rate, but e^{-2R} keeps the rate's digits.

    E1 minimizes f on [0, rho2].  Below C, f decreases there, so E1 is
    R1 - R2 + f(rho2), with f(rho2) = R2 + h(rho2) and h as below; from C
    on, the interval holds rho_P and E1 is exactly R1 - R2.

    E2 is in closed form: its objective h(rho) = f(rho) + ln(1 - rho^2)/2
    decreases on [rho2, rho1], so its minimum is h(rho1).  At the optimal
    sigma_z, h is (sigma_z^2 - 2 rho sigma_z sqrt(S) + S)/(2 sigma^2)
    - ln(sigma_z^2/sigma^2)/2 - 1/2, whose partial derivative in rho is
    -sqrt(S) sigma_z/sigma^2 < 0; by the envelope theorem so is dh/drho.

    E3 minimizes f on [rho1, 1): exactly 0 at rho_P when R1 <= C, and
    f(rho1) = R1 + h(rho1) = E2 when R1 > C.

    So E1's rate term rests on R2 alone and E2 and E3 on R1 alone: each is
    evaluated once per grid value, and sigma_z* once per achiever.
    """
    t = g.s / g.sigma2
    cap = g.capacity
    rho_p = min(math.sqrt(t / (1.0 + t)), _RHO_CAP)
    # E1's rate term and achiever at each R2
    e1_terms = [(0.0, rho_p) if r2 >= cap
                else (_f_at_rate(r2, t), rho_from_rate(r2))
                for r2 in r2_values]
    sz = {}
    rows, skipped = [], 0
    for r1 in r1_values:
        # a branch can round below 0: at R1 = C, E2's log term cancels R1
        e2 = max(0.0, _f_at_rate(r1, t))
        rho_e2 = rho_from_rate(r1)
        e3, rho_e3 = (0.0, rho_p) if r1 <= cap else (e2, rho_e2)
        for r2, (v1, rho_e1) in zip(r2_values, e1_terms):
            if r2 > r1:
                skipped += 1
                continue
            e1 = r1 - r2 + max(0.0, v1)
            e, branch, rho_star = _pick_branch((e1, e2, e3),
                                               (rho_e1, rho_e2, rho_e3))
            if rho_star not in sz:
                sz[rho_star] = sigma_z_star(rho_star, g)
            rows.append((r1, r2, e, e1, e2, e3, rho_star, sz[rho_star],
                         branch))
    return rows, skipped
