"""Reference oracles: independent checks that tests compare the solver with.

The BSC closed form of E(R1, R2), its finite-n counterpart by enumeration
of conditional types, and the information measures, decoder scores and
Gaussian divergence term that tests build on.  No printed number reads
them, and they share no code with the solver: from the package they import
only data types, ``BudgetExceededError`` and ``quantize_composition``, and
only the package's ``__init__`` imports them.  The measures take 0 ln 0 = 0,
return ``math.inf`` where a divergence's support condition fails, and import
scipy's kernels on first use, so importing the package loads no scipy.
"""
from __future__ import annotations

import math

import numpy as np

from .channels import ChannelSpec, Distribution, Dmc
from .errors import BudgetExceededError
from .exponent import RatePair
from .gaussian import GaussianSpec
from .simulate import quantize_composition

LN2 = math.log(2.0)
DEFAULT_TYPE_BUDGET = 1 << 24


class ConditionalChannel:
    """Test channel Q_{Z|X} together with its fixed input marginal.

    The input marginal is part of the object because every information
    measure below weights rows by it; in the optimization problems it always
    equals the true input distribution of the surrounding ChannelSpec.
    """

    __slots__ = ("rows", "input_marginal")

    def __init__(self, rows, input_marginal: Distribution):
        dmc = rows if isinstance(rows, Dmc) else Dmc(rows)
        if dmc.num_inputs != input_marginal.size:
            raise ValueError(
                f"input marginal has {input_marginal.size} entries but the "
                f"channel has {dmc.num_inputs} rows")
        self.rows = dmc.rows
        self.input_marginal = input_marginal

    def __repr__(self) -> str:
        return (f"ConditionalChannel({self.rows.tolist()!r}, "
                f"{self.input_marginal!r})")


def entropy(d: Distribution) -> float:
    """Shannon entropy -sum p ln p in nats; lies in [0, ln K]."""
    from scipy.special import xlogy
    return float(-xlogy(d.probs, d.probs).sum())


def mutual_information(q: ConditionalChannel) -> float:
    """I_Q(X;Z) in nats for the joint Q_X x Q_{Z|X}.

    Equals the Q_X-weighted divergence of the rows from the output
    marginal; rows of inputs with zero mass contribute nothing.
    """
    from scipy.special import rel_entr
    w = q.input_marginal.probs
    qz = w @ q.rows
    per_row = rel_entr(q.rows, qz[None, :]).sum(axis=1)
    return float(np.dot(w[w > 0], per_row[w > 0]))


def weighted_divergence(q: ConditionalChannel, p: Dmc) -> float:
    """D(Q_{Z|X} || P_{Z|X} | P_X), the input-weighted KL divergence.

    Returns ``math.inf`` exactly when some input x with positive weight has
    Q(z|x) > 0 at an output where P(z|x) = 0.
    """
    if q.rows.shape != p.rows.shape:
        raise ValueError(
            f"shape mismatch: test channel {q.rows.shape} vs reference "
            f"{p.rows.shape}")
    from scipy.special import rel_entr
    w = q.input_marginal.probs
    per_row = rel_entr(q.rows, p.rows).sum(axis=1)
    active = per_row[w > 0]
    if np.any(np.isinf(active)):
        return math.inf
    return float(np.dot(w[w > 0], active))


def decoder_log_score(codebook: np.ndarray, m2: int, w: int, z,
                      channel: Dmc) -> float:
    """ln P(z | C_w), the log-likelihood of sub-code w, via log-sum-exp."""
    z = np.asarray(z, dtype=np.int64)
    sub = codebook[w * m2:(w + 1) * m2]
    with np.errstate(divide="ignore"):
        logp = np.where(channel.rows > 0, np.log(channel.rows), -np.inf)
    ll = logp[sub, z[None, :]].sum(axis=1)
    hi = float(ll.max())
    if not math.isfinite(hi):
        return -math.inf
    return hi + math.log(float(np.exp(ll - hi).sum())) - math.log(m2)


def decoder_score(codebook: np.ndarray, m2: int, w: int, z,
                  channel: Dmc) -> float:
    """P(z | C_w) = (1/M2) sum over codewords in sub-code w of P(z|x)."""
    return math.exp(decoder_log_score(codebook, m2, w, z, channel))


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    out = []
    for head in range(total + 1):
        tail = _compositions(total - head, parts - 1)
        block = np.empty((tail.shape[0], parts), dtype=np.int64)
        block[:, 0] = head
        block[:, 1:] = tail
        out.append(block)
    return np.vstack(out)


def type_enum_exponent(spec: ChannelSpec, rates: RatePair, n: int,
                       budget: int = DEFAULT_TYPE_BUDGET) -> float:
    """Finite-n exponent: R1 + min over conditional n-types of D - I - Gamma.

    The input distribution is quantized to its nearest n-type, and the
    minimization runs exhaustively over all conditional types of the output
    sequence given that composition.  Types violating absolute continuity
    have infinite divergence and drop out of the minimum.
    """
    from scipy.special import rel_entr, xlogy
    comp = quantize_composition(spec.input_dist.probs, n)
    keep = [k for k, c in enumerate(comp) if c > 0]
    counts = np.array([comp[k] for k in keep], dtype=np.int64)
    w = counts / n
    p_rows = spec.wiretap.rows[keep]
    nz = p_rows.shape[1]
    nr = len(keep)

    sizes = [math.comb(int(c) + nz - 1, nz - 1) for c in counts]
    total = math.prod(sizes)
    if total > budget:
        raise BudgetExceededError("conditional n-types", total, budget)

    row_q, row_d, row_neg = [], [], []
    for x in range(nr):
        kvecs = _compositions(int(counts[x]), nz)
        q = kvecs / counts[x]
        row_q.append(q)
        row_d.append(rel_entr(q, p_rows[x][None, :]).sum(axis=1))
        row_neg.append(xlogy(q, q).sum(axis=1))

    r1, r2 = rates.r1, rates.r2
    best = math.inf
    chunk = 1 << 16
    for start in range(0, total, chunk):
        ar = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rem = ar
        d = np.zeros(ar.size)
        neg = np.zeros(ar.size)
        qz = np.zeros((ar.size, nz))
        for x in range(nr - 1, -1, -1):
            dig = rem % sizes[x]
            rem = rem // sizes[x]
            d = d + w[x] * row_d[x][dig]
            neg = neg + w[x] * row_neg[x][dig]
            qz = qz + w[x] * row_q[x][dig]
        i_val = neg - xlogy(qz, qz).sum(axis=1)
        gamma = np.where(i_val <= r2, r2 - i_val,
                         np.where(i_val <= r1, 0.0, r1 - i_val))
        with np.errstate(invalid="ignore"):
            obj = d - i_val - gamma
        lo = float(np.min(obj))
        if lo < best:
            best = lo
    return r1 + best


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


def _bsc_info(e: float) -> float:
    """ln 2 - h(e): I of a BSC(e) with uniform input, accurate near e = 1/2."""
    u = 1.0 - 2.0 * e                                  # exact for e >= 1/4
    head = math.log1p(-u) if e >= 0.25 else math.log(2.0 * e)
    return e * head + (1.0 - e) * math.log1p(u)


def _bsc_crossover(i: float) -> float:
    """eps(I) = h^-1(ln 2 - I) on [0, 1/2], by bisection to the last bit."""
    if i >= LN2:
        return 0.0
    lo, hi = 0.0, 0.5
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _bsc_info(mid) > i:
            lo = mid
        else:
            hi = mid
    return hi


def bsc_exponent_closed_form(p: float, rates: RatePair) -> float:
    """Exact E(R1, R2) of a BSC(p) with uniform input, in plain ``math``.

    Every branch is attained at a test channel BSC(eps), with
    I = ln 2 - h(eps) and D = d(eps||p).  With T = min(R1, ln 2):
    E1 = R1 - R2 + d(eps(R2)||p) if R2 < I(p), else R1 - R2;
    E2 = R1 + d(eps(T)||p) - T, least at the largest I since d + h increases
    in eps, or +inf if T < R2; E3 = 0 if R1 <= I(p), d(eps(R1)||p) if
    R1 <= ln 2, +inf above.  The oracle shares no code with the solver.
    """
    if not 0.0 < p <= 0.5:
        raise ValueError(f"crossover p = {p} outside (0, 1/2]")
    r1, r2 = rates.r1, rates.r2

    def d_at(i: float) -> float:
        e = _bsc_crossover(i)
        return ((e * math.log(e / p) if e else 0.0)
                + (1.0 - e) * math.log((1.0 - e) / (1.0 - p)))

    i_p = _bsc_info(p)
    e1 = r1 - r2 + (d_at(r2) if r2 < i_p else 0.0)
    t = min(r1, LN2)
    e2 = math.inf if t < r2 else r1 + d_at(t) - t
    e3 = 0.0 if r1 <= i_p else d_at(r1) if r1 <= LN2 else math.inf
    return min(e1, e2, e3)
