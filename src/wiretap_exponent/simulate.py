"""Finite-blocklength oracle for the random-coding ensemble.

Samples the exact achievability ensemble (constant-composition codebooks
partitioned into contiguous sub-codes, eavesdropper running the optimal
sub-code likelihood decoder) and estimates the ensemble-average probability
of correct decoding, either by exact enumeration of the output space or by
forward sampling when that space exceeds the budget.  Both take codeword
likelihoods from one kernel, and the exact sum has one path for every
channel: a sub-code's likelihood table over Z^n is the matrix product of
its codewords' half-block tables, because P(z|x) factors over the halves.
Each distinct half-word's row of those tables is computed once and
gathered for every codeword with that half (a BSC codebook at n = 12 has
4,000 codewords but 64 distinct halves), and the max over sub-codes takes
their tables in tiles of at most 2^16 entries, which measured fastest.

Also provides the finite-n exponent obtained by exhaustive enumeration of
conditional types, which converges to the asymptotic exponent and serves as
an independent brute-force check of it.  It takes scipy's ``xlogy`` and
``rel_entr`` kernels, imported on first use, so importing the package loads
no scipy module.

Per-trial randomness comes from seed-derived child streams, so trials are
reproducible independently of execution order or worker count, and runs at
different total rates share codeword randomness (a codebook is always a
prefix of the codebook drawn for a larger rate at the same seed and trial).
A codeword is the stable argsort of n uniform doubles applied to the
composition's symbols.  Every trial's generator (PCG64) makes a double from
the top 53 bits of one raw 64-bit draw, so the sampler sorts the raw draws
with each symbol's position in the 11 low bits that a double drops: the
same permutation as the argsort, with the generator left in the same state,
so the stream after the codebook, and with it every P_c, is unchanged.
The sampled path draws each output symbol by comparing its uniform draw
with the sent input's CDF cuts, from tables built once per run.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import ChannelSpec, Dmc
from .errors import BudgetExceededError
from .exponent import RatePair

_log = logging.getLogger("wiretap_exponent")

DEFAULT_Z_BUDGET = 1 << 24
DEFAULT_TYPE_BUDGET = 1 << 24
DEFAULT_CODEBOOK_BUDGET = 1 << 22
DEFAULT_Z_SAMPLES = 256

#: most entries any temporary of the exact P_c path holds
_BLOCK = 1 << 22
#: stands in for ln 0 in the likelihood kernel: finite, and below any sum
#: of logs of positive doubles, so its exp is 0 and it never wins a max
_LOG_ZERO = -1e200
#: most entries of the sub-code tables that the exact P_c path forms and
#: maxes in one go (512 KB).  On the BSC at n = 12 (250 tables of 64 x 64)
#: and the 3x3 channel at n = 8 (25 of 81 x 81) 2^16 measured fastest per
#: codebook: 2.00 and 0.34 ms, against 2.25 and 0.44 ms at 2^15, 2.12 and
#: 0.38 ms at 2^17, and 3.18 and 0.41 ms with no tiling (medians of 15,
#: one CPU)
_TILE = 1 << 16
#: the bit generators whose ``random()`` makes each double as
#: (d >> 11) * 2^-53 from one raw 64-bit draw d (MT19937 draws two 32-bit
#: words per double), named so that importing this module does not import
#: numpy.random
_TOP53 = ("PCG64", "PCG64DXSM", "Philox", "SFC64")
#: the low bits of a raw draw that such a double drops
_LOW_BITS = 11


def quantize_composition(probs, n: int) -> tuple[int, ...]:
    """Nearest integer composition of n to n*probs, by largest remainder."""
    p = np.asarray(probs, dtype=float)
    scaled = p * n
    base = np.floor(scaled).astype(int)
    short = n - int(base.sum())
    if short > 0:
        order = np.argsort(-(scaled - base), kind="stable")
        base[order[:short]] += 1
    return tuple(int(c) for c in base)


def _size(log_size: float) -> int | float:
    """round(e^log_size), at least 1; inf where e^log_size overflows."""
    try:
        return max(1, round(math.exp(log_size)))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of one finite-n random-coding experiment.

    Codebook sizes derive from the rates: M2 = round(e^{n R2}) codewords per
    sub-code, M = round(e^{n(R1-R2)}) sub-codes, M1 = M*M2 codewords total,
    each inf beyond float range.  Realized rates ln(M2)/n and ln(M1)/n are
    reported alongside, since integer codebooks quantize the requested rates.
    """

    n: int
    rates: RatePair
    p_x_type: tuple[int, ...]
    channel: Dmc
    trials: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("blocklength must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if any(c < 0 for c in self.p_x_type):
            raise ValueError("composition entries must be nonnegative")
        if sum(self.p_x_type) != self.n:
            raise ValueError(
                f"composition {self.p_x_type} does not sum to n = {self.n}")
        if len(self.p_x_type) != self.channel.num_inputs:
            raise ValueError(
                f"composition has {len(self.p_x_type)} symbols but the "
                f"channel has {self.channel.num_inputs} inputs")

    @property
    def m2(self) -> int | float:
        return _size(self.n * self.rates.r2)

    @property
    def m_subcodes(self) -> int | float:
        return _size(self.n * self.rates.r)

    @property
    def m1(self) -> int | float:
        return self.m2 * self.m_subcodes

    @property
    def realized_r1(self) -> float:
        return math.log(self.m1) / self.n

    @property
    def realized_r2(self) -> float:
        return math.log(self.m2) / self.n


@dataclass(frozen=True)
class SimulationResult:
    """Ensemble estimate of the probability of correct decoding.

    ``exact`` is True when each trial's P_c summed over all of Z^n, and
    False when |Z|^n exceeded the budget and each trial forward-sampled
    channel outputs instead.
    """

    pc_mean: float
    pc_std_err: float
    empirical_exponent: float
    trials_used: int
    exact: bool


# ---------------------------------------------------------------------------
# codebook sampling and decoding
# ---------------------------------------------------------------------------

def sample_codebook(spec: EnsembleSpec, rng: np.random.Generator,
                    codebook_budget: int = DEFAULT_CODEBOOK_BUDGET) -> np.ndarray:
    """Draw M1 codewords i.i.d. uniform over the type class of the composition.

    Returns an (M1, n) integer array; sub-code w occupies the contiguous row
    block [w*M2, (w+1)*M2).  Codeword k is produced from the k-th row of the
    generator's stream, so a smaller codebook drawn from an identically
    seeded generator is a prefix of a larger one.  The codebook, and the
    generator's state after it, are those of the template permuted by the
    stable argsort of each row of ``rng.random((M1, n))``, for every bit
    generator.
    """
    m1 = spec.m1
    if m1 > codebook_budget:
        raise BudgetExceededError("M1 codewords", m1, codebook_budget)
    nx, n = len(spec.p_x_type), spec.n
    template = np.repeat(np.arange(nx, dtype=np.min_scalar_type(nx - 1)),
                         spec.p_x_type)
    top53 = any(type(rng.bit_generator) is getattr(np.random, name)
                for name in _TOP53)
    if not top53 or n > 1 << _LOW_BITS:
        order = np.argsort(rng.random((m1, n)), axis=1, kind="stable")
        return template[order]
    # the raw draws that rng.random() would turn into doubles, with each
    # position in the low bits: distinct keys, ordered as the argsort
    # orders the doubles, ties by position
    low = np.uint64((1 << _LOW_BITS) - 1)
    keys = rng.bit_generator.random_raw(m1 * n).reshape(m1, n)
    keys &= ~low
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    keys &= low
    return template[keys.view(np.int64)]


def _log_rows(rows: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(rows > 0, np.log(rows), -np.inf)


def decoder_log_score(codebook: np.ndarray, m2: int, w: int, z,
                      channel: Dmc) -> float:
    """ln P(z | C_w), the log-likelihood of sub-code w, via log-sum-exp."""
    z = np.asarray(z, dtype=np.int64)
    sub = codebook[w * m2:(w + 1) * m2]
    logp = _log_rows(channel.rows)
    ll = logp[sub, z[None, :]].sum(axis=1)
    hi = float(ll.max())
    if not math.isfinite(hi):
        return -math.inf
    return hi + math.log(float(np.exp(ll - hi).sum())) - math.log(m2)


def decoder_score(codebook: np.ndarray, m2: int, w: int, z,
                  channel: Dmc) -> float:
    """P(z | C_w) = (1/M2) sum over codewords in sub-code w of P(z|x)."""
    return math.exp(decoder_log_score(codebook, m2, w, z, channel))


# ---------------------------------------------------------------------------
# exact probability of correct decoding for one codebook
# ---------------------------------------------------------------------------

def _loglik(block: np.ndarray, log_rows: np.ndarray,
            z: np.ndarray) -> np.ndarray:
    """ln P(z | x) for each codeword x of ``block`` (K, m) and output word z
    of ``z`` (C, m), as a (K, C) array.

    One-hot codewords (K, m|X|) times the per-position table whose row
    t|X| + x holds ln P(z_t | x) for every z.  ``log_rows`` must be finite,
    so that the product never forms 0 * -inf.
    """
    k, m = block.shape
    nx = log_rows.shape[0]
    onehot = np.zeros((k, m * nx))
    onehot[np.arange(k)[:, None], np.arange(m) * nx + block] = 1.0
    table = log_rows[:, z.T].transpose(1, 0, 2).reshape(m * nx, len(z))
    return onehot @ table


def _words(nz: int, m: int) -> np.ndarray:
    """All of Z^m as an (nz^m, m) array, first position most significant."""
    ar = np.arange(nz ** m, dtype=np.int64)
    return (ar[:, None] // nz ** np.arange(m - 1, -1, -1)) % nz


def exact_pc_for_codebook(codebook: np.ndarray, channel: Dmc, m2: int,
                          budget: int = DEFAULT_Z_BUDGET) -> float:
    """P_c of the optimal sub-code decoder, by full enumeration of Z^n.

    Computes (1/M) * sum over z of max_w P(z | C_w); ties in the max are
    irrelevant because only the maximal value enters.
    """
    m1, n = codebook.shape
    if m1 % m2 != 0:
        raise ValueError(f"codebook of {m1} codewords does not split into "
                         f"sub-codes of size {m2}")
    total = channel.num_outputs ** n
    if total > budget:
        raise BudgetExceededError("|Z|^n", total, budget)
    # inputs no codeword uses cannot change P_c; without them the kernel
    # sees exactly the relabelled narrow form.  A codeword of a type class
    # uses every input of its type, so the first one mostly settles it
    rows = channel.rows
    used = np.zeros(len(rows), dtype=bool)
    used[codebook[0]] = True
    if not used.all():
        used[codebook] = True
        codebook, rows = (np.cumsum(used) - 1)[codebook], rows[used]
    return _exact_pc(codebook, np.maximum(_log_rows(rows), _LOG_ZERO), m2)


def _exact_pc(codebook: np.ndarray, log_rows: np.ndarray, m2: int) -> float:
    # Sub-code w's likelihood table over Z^n, indexed (first half, second
    # half), is A_w^T B_w, with A_w, B_w its codewords' half-block tables,
    # gathered from the rows of the distinct half-words.  The loops over
    # second-half columns, blocks of g sub-codes and chunks of h codewords
    # keep the distinct rows and A, B within a quarter of _BLOCK entries
    # each, and the tables of a tile of t sub-codes within _TILE, or one
    # sub-code's within half of _BLOCK.  A sub-code spans several chunks
    # only when g = t = 1, and then the tile sums its chunks' products.
    m1, n = codebook.shape
    nx, nz = log_rows.shape
    n_lo = (n + 1) // 2
    z_lo, z_hi = _words(nz, n_lo), _words(nz, n - n_lo)
    k_lo = len(z_lo)
    cols = max(1, min(len(z_hi), _BLOCK // (2 * k_lo)))
    width = max(k_lo, n_lo * nx)
    h = max(1, min(m2, _BLOCK // (4 * width)))
    g = max(1, min(_BLOCK // (4 * h * width), _BLOCK // (2 * k_lo * cols)))
    t = max(1, min(g, _TILE // (k_lo * cols)))
    subs = codebook.reshape(m1 // m2, m2, n)
    acc = 0.0
    for c0 in range(0, len(z_hi), cols):
        z_c = z_hi[c0:c0 + cols]
        best = np.zeros((k_lo, len(z_c)))
        # one buffer for every tile: a fresh array of this size would be
        # paged in again on each tile
        tile = np.empty((t, k_lo, len(z_c)))
        for w0 in range(0, len(subs), g):
            block = subs[w0:w0 + g]
            for j in range(0, m2, h):
                part = block[:, j:j + h]
                a, ia = _distinct_rows(part[..., :n_lo], log_rows, z_lo)
                b, ib = _distinct_rows(part[..., n_lo:], log_rows, z_c)
                for t0 in range(0, len(block), t):
                    a_t = a[ia[t0:t0 + t]].transpose(0, 2, 1)
                    b_t = b[ib[t0:t0 + t]]
                    table = tile[:len(b_t)]
                    if j:               # g = t = 1: add the chunk's product
                        table += np.matmul(a_t, b_t)
                    else:
                        np.matmul(a_t, b_t, out=table)
                    if j + h >= m2:     # (a max over one table copies it)
                        np.maximum(best, table[0] if len(table) == 1
                                   else table.max(axis=0), out=best)
        acc += float(best.sum())
    return acc / m1


def _distinct_rows(half: np.ndarray, log_rows: np.ndarray,
                   z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(z | x) for each distinct half-word x of ``half`` (g, h, m) and
    output word z of ``z`` (C, m), as a (u, C) table, and the (g, h) index
    of each codeword's half-word in it.

    A half-word's key is its digits in base |X|, read first to last.  Keys
    are renumbered densely whenever they could outnumber the g*h codewords,
    so none exceeds g*h*|X| and no table over them grows past that.
    """
    g, h, m = half.shape
    nx = log_rows.shape[0]
    flat = half.reshape(g * h, m)
    key, bound = np.zeros(g * h, dtype=np.int64), 1
    for col in flat.T:
        if bound > len(key):
            key, bound = _dense(key, bound)
        key = key * nx + col
        bound *= nx
    inv, u = _dense(key, bound)
    rep = np.empty(u, dtype=np.int64)
    rep[inv] = np.arange(len(key))
    a = _loglik(flat[rep], log_rows, z)
    return np.exp(a, out=a), inv.reshape(g, h)


def _dense(key: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """Rank of each entry of ``key`` (all below ``bound``) among its
    distinct values, and how many distinct values there are."""
    rank = np.zeros(bound, dtype=np.int64)
    rank[key] = 1
    np.cumsum(rank, out=rank)
    return rank[key] - 1, int(rank[-1])


def _sampling_tables(channel: Dmc) -> tuple[np.ndarray, np.ndarray]:
    """What forward sampling needs of ``channel``: its log rows with ln 0
    clipped to _LOG_ZERO, and its CDF cuts, whose row k holds P(Z <= k | x)
    for every input x, for k below |Z| - 1."""
    return (np.maximum(_log_rows(channel.rows), _LOG_ZERO),
            np.cumsum(channel.rows, axis=1)[:, :-1].T.copy())


def _outputs(xs: np.ndarray, u: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The output symbol drawn for each input symbol of ``xs`` at the
    uniform draw beside it in ``u``: how many of its CDF ``cuts`` lie below
    that draw."""
    z = np.zeros(u.shape, dtype=np.int64)
    for cut in cuts:
        z += u > cut[xs]
    return z


def _sampled_pc(codebook: np.ndarray, log_rows: np.ndarray, cuts: np.ndarray,
                m2: int, rng: np.random.Generator, z_samples: int) -> float:
    """Unbiased estimate of one codebook's P_c by forward sampling, from
    the channel's ``_sampling_tables``."""
    m1, n = codebook.shape
    m = m1 // m2
    sent = rng.integers(0, m1, size=z_samples)
    xs = codebook[sent]
    z = _outputs(xs, rng.random((z_samples, n)), cuts)
    # blocks of g sub-codes, taken in chunks of h codewords each, keep every
    # likelihood array and one-hot within _BLOCK entries.  A sub-code's log
    # sum is rescaled only when it spans chunks, so it is bit for bit the
    # one-pass value whenever h = m2
    width = max(z_samples, n * len(log_rows))
    h = max(1, min(m2, _BLOCK // width))
    g = max(1, _BLOCK // (h * width))
    subs = codebook.reshape(m, m2, n)
    best = np.full(z_samples, -np.inf)
    decoded = np.zeros(z_samples, dtype=np.int64)
    for w0 in range(0, m, g):
        block = subs[w0:w0 + g]
        for j in range(0, m2, h):
            part = block[:, j:j + h]
            ll = _loglik(part.reshape(-1, n), log_rows, z).reshape(
                part.shape[0], part.shape[1], z_samples)
            top = ll.max(axis=1)
            if j:
                np.maximum(hi, top, out=top)
            ll -= top[:, None, :]
            tail = np.exp(ll, out=ll).sum(axis=1)
            acc = acc * np.exp(hi - top) + tail if j else tail
            hi = top
        lse = hi + np.log(acc)
        k = np.argmax(lse, axis=0)
        score = lse[k, np.arange(z_samples)]
        # strictly greater, so ties go to the first sub-code as in argmax
        wins = score > best
        best[wins], decoded[wins] = score[wins], w0 + k[wins]
    return np.count_nonzero(decoded == sent // m2) / z_samples


def estimate_ensemble_pc(spec: EnsembleSpec, budget: int = DEFAULT_Z_BUDGET,
                         z_samples: int = DEFAULT_Z_SAMPLES,
                         codebook_budget: int = DEFAULT_CODEBOOK_BUDGET,
                         ) -> SimulationResult:
    """Monte-Carlo mean of the exact per-codebook P_c over sampled codebooks.

    When |Z|^n fits the budget the inner expectation over channel outputs is
    exact; otherwise each trial forward-samples ``z_samples`` transmissions.
    """
    pcs = per_trial_pc(spec, budget=budget, z_samples=z_samples,
                       codebook_budget=codebook_budget)
    return summarize_trials(spec, pcs, budget=budget)


def per_trial_pc(spec: EnsembleSpec, budget: int = DEFAULT_Z_BUDGET,
                 z_samples: int = DEFAULT_Z_SAMPLES,
                 codebook_budget: int = DEFAULT_CODEBOOK_BUDGET,
                 trial_range: tuple[int, int] | None = None) -> list[float]:
    """Per-trial P_c values for the trials [lo, hi) in ``trial_range``.

    Each trial draws from its own stream, so the union over disjoint ranges
    is identical to a single full run (the CLI's worker pools rely on it).
    """
    lo, hi = trial_range if trial_range is not None else (0, spec.trials)
    if not 0 <= lo <= hi <= spec.trials:
        raise ValueError(f"invalid trial range [{lo}, {hi})")
    # inputs the composition never uses cannot change P_c; without them
    # the kernels see exactly the channel's relabelled narrow form
    keep = [x for x, c in enumerate(spec.p_x_type) if c > 0]
    spec = replace(spec, p_x_type=tuple(spec.p_x_type[x] for x in keep),
                   channel=Dmc(spec.channel.rows[keep]))
    exact = _enumerates(spec, budget)
    if not exact:
        _log.debug("|Z|^n = %d exceeds the budget %d; each trial samples %d "
                   "outputs instead of enumerating them",
                   spec.channel.num_outputs ** spec.n, budget, z_samples)
        tables = _sampling_tables(spec.channel)
    streams = np.random.SeedSequence(spec.seed).spawn(hi)
    pcs = []
    for k in range(lo, hi):
        rng = np.random.default_rng(streams[k])
        cb = sample_codebook(spec, rng, codebook_budget)
        if exact:
            pcs.append(exact_pc_for_codebook(cb, spec.channel, spec.m2,
                                             budget=budget))
        else:
            pcs.append(_sampled_pc(cb, *tables, spec.m2, rng, z_samples))
    return pcs


def _enumerates(spec: EnsembleSpec, budget: int) -> bool:
    """Whether a trial's P_c sums over all of Z^n within ``budget``."""
    return spec.channel.num_outputs ** spec.n <= budget


def summarize_trials(spec: EnsembleSpec, pcs: list[float],
                     budget: int = DEFAULT_Z_BUDGET) -> SimulationResult:
    """Aggregate per-trial P_c values; the mean uses exact summation.

    The empirical exponent -ln(P_c) / n is ``inf`` when no sample decoded
    correctly (P_c = 0), and +0.0 when the mean reaches 1.  ``budget`` is
    the one the trials ran with; it tells whether their P_c was exact.
    """
    t = len(pcs)
    mean = math.fsum(pcs) / t
    if t > 1:
        var = math.fsum((x - mean) ** 2 for x in pcs) / (t - 1)
        stderr = math.sqrt(var / t)
    else:
        stderr = 0.0
    # P_c <= 1, so a mean that rounds to 1 or just above it gives 0.0,
    # not -0.0 or -1e-17
    exponent = max(0.0, -math.log(mean) / spec.n) if mean > 0 else math.inf
    return SimulationResult(pc_mean=mean, pc_std_err=stderr,
                            empirical_exponent=exponent, trials_used=t,
                            exact=_enumerates(spec, budget))


# ---------------------------------------------------------------------------
# finite-n type enumeration
# ---------------------------------------------------------------------------

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
