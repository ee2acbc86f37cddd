"""Rate-region structure of the exponent plane.

Splits (R1, R2) into the region where the exponent vanishes, the partially
secure band, and the fully secure region where E(R1, R2) = R1 - R2, i.e.
where the wiretap observation does not beat blind guessing among the
sub-codes.  Also provides the constructive sufficient bracket for full
security built from the unconstrained minimizer of D - I.

Every function here reads one channel's trade-off curve through the
:class:`~wiretap_exponent.exponent.ExponentSolver` it is given, so the
inner solves behind its table and ``phi`` are shared with every other
query on that solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .exponent import ExponentSolver, RatePair

DEFAULT_CLASSIFY_TOL = 1e-6


@dataclass(frozen=True)
class SecurityAnalysis:
    """Quantities of the unconstrained minimizer of D - I, which is the
    s = 0 end of the solver's multiplier table.

    Attributes
    ----------
    i_qstar : float
        Mutual information of the minimizer (``solver.i_max``).
    d_qstar : float
        Weighted divergence of the minimizer (``solver.d_at_imax``).
    i_p : float
        Mutual information of the true channel.

    The third branch value E3(R1) is ``solver.e3(r1)[0]``.
    """

    i_qstar: float
    d_qstar: float
    i_p: float


@dataclass(frozen=True)
class FullSecurityInterval:
    """Set of R2 values at fixed R1 for which E(R1, R2) = R1 - R2.

    ``lower``/``upper`` bound the computed interval [lower, upper) with
    ``upper = R1`` (the degenerate point R2 = R1, where both sides vanish,
    is excluded).  ``bracket_lower``/``bracket_upper`` give the sufficient
    construction [max(I_Q* - D*, R1 - E3(R1)), I_Q*], valid when
    ``bracket_valid``.  ``verified`` reports that re-computing the exponent
    at probe points inside the interval reproduced R1 - R2.  ``gap_bound``
    is the widest certified sandwich (nats) behind E3(R1), the phi value
    of the middle boundary and the probes' exponents.
    """

    r1: float
    lower: float
    upper: float
    empty: bool
    bracket_lower: float
    bracket_upper: float
    bracket_valid: bool
    verified: bool
    gap_bound: float


def compute_qstar(solver: ExponentSolver) -> SecurityAnalysis:
    """The region quantities of the unconstrained minimizer of D - I on
    ``solver``'s channel: the s = 0 end of its multiplier table."""
    return SecurityAnalysis(i_qstar=solver.i_max, d_qstar=solver.d_at_imax,
                            i_p=solver.i_p)


def full_security_interval(solver: ExponentSolver, r1: float,
                           tol: float = DEFAULT_CLASSIFY_TOL
                           ) -> FullSecurityInterval:
    """R2 interval at fixed R1 where the exponent equals R1 - R2.

    The interval is cut out by two monotone boundary conditions evaluated
    on the divergence/information trade-off curve: R2 >= R1 - E3(R1) and
    min{D - I : R2 <= I <= R1} >= -R2 (the latter reduces to
    R2 >= b - phi(b) with b = min(R1, I_max), because phi(I) - I is
    nonincreasing along the curve).  A verification pass recomputes the
    exponent at the lower endpoint and the midpoint.
    """
    if not (math.isfinite(r1) and r1 > 0):
        raise ValueError(f"r1 must be positive and finite, got {r1!r}")
    e3v, _, gap = solver.e3(r1)
    lower_e3 = -math.inf if math.isinf(e3v) else r1 - e3v

    if r1 >= solver.i_min:
        b = min(r1, solver.i_max)
        phi_b, _, width = solver.phi(b)
        lower_e2, gap = b - phi_b, max(gap, width)
    else:
        lower_e2 = 0.0     # the middle branch has no curve point below I_min

    lower = max(lower_e3, lower_e2, 0.0)
    upper = r1
    empty = not lower < upper

    bracket_lower = max(solver.i_max - solver.d_at_imax, lower_e3, 0.0)
    bracket_upper = solver.i_max
    bracket_valid = (r1 > solver.i_max) and (bracket_lower <= bracket_upper)

    # a probe that fails ends the check: the next probe is not solved
    verified = not empty
    for p in [] if empty else [lower, 0.5 * (lower + upper)]:
        res = solver.exponent_rep1(RatePair(r1, p))
        gap = max(gap, res.gap_bound)
        if not abs(res.e - (r1 - p)) <= tol:
            verified = False
            break
    return FullSecurityInterval(r1=r1, lower=lower, upper=upper, empty=empty,
                                bracket_lower=bracket_lower,
                                bracket_upper=bracket_upper,
                                bracket_valid=bracket_valid,
                                verified=verified, gap_bound=gap)


def classify_rate_point(solver: ExponentSolver, rates: RatePair,
                        tol: float = DEFAULT_CLASSIFY_TOL) -> str:
    """Classify a rate pair as ``"ZERO"``, ``"PARTIAL"`` or ``"FULL"``.

    Evaluates E(R1, R2) on ``solver`` and applies :func:`classify_exponent`.
    """
    return classify_exponent(solver.exponent_rep1(rates).e, rates, tol)


def classify_exponent(e: float, rates: RatePair,
                      tol: float = DEFAULT_CLASSIFY_TOL) -> str:
    """Classify an already computed exponent ``e`` at ``rates``.

    ZERO when e <= tol; FULL when e is within tol of R1 - R2 and that gap
    exceeds tol; PARTIAL otherwise.
    """
    if e <= tol:
        return "ZERO"
    if rates.r > tol and abs(e - rates.r) <= tol:
        return "FULL"
    return "PARTIAL"
