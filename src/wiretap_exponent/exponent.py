"""Correct-decoding exponent E(R1, R2) of the wiretap-channel decoder.

The exponent is evaluated through two equivalent representations:

* representation 1 splits E into three branch values (e1, e2, e3), each a
  constrained minimization of the weighted divergence D(Q||P|P_X) along the
  trade-off curve between divergence and mutual information;
* representation 2 is a min-max over two scalar multipliers wrapped around
  the convex inner problem  min_Q D + (lambda1+lambda2-1) I_Q.

Both reduce to one primitive: minimize D + mu*I over test channels with the
input marginal pinned to P_X, for mu in [-1, 1].  The minimized value m(s),
s = 1+mu, is concave and nondecreasing in s with derivative I (the mutual
information of the minimizer), which gives

    phi(I0) = min{D : I_Q = I0} = max_mu [m(1+mu) - mu*I0],

a support-line envelope whose value is first-order insensitive to errors in
the maximizing mu.  All branch evaluations go through this envelope, so
their accuracy is set by the certified gap of the inner solves rather than
by root-finding tolerances.  Each solved s gives phi(I0) a certified
sandwich: below it, the support line f - gap - (s-1) I0 of every solve
(f its objective, gap its certified gap); above it, the chord through the
(I, D) points of two solves whose I bracket I0, since phi is convex and
each (I, D) is attained.  phi starts from the two rungs of the ladder
(below) that bracket I0 and refines by Anderson-Bjorck regula falsi on
I(s) - I0 until the sandwich is at most 2 gap_tol wide; it returns the
best support line at its own s.  No s is solved that two certified solves
do not bracket: above the deepest level, or when a solve inside the
bracket fails, phi returns its current, wider sandwich.

The inner solver works on the output marginal V.  For s > 0 the rows
minimizing the objective against a frozen V are closed-form (Arimoto
1976): Q = jump(V), rows (P V^(s-1))^(1/s) normalized, with row minimum
g_s(V) = -s <w, lse(V)>.  The inner minimum is max_V g_s (concave) for s
in (0, 1), min_V g_s (convex) for s in (1, 2], and the true channel at
s = 1; a damped Newton method on V (Boyd & Vandenberghe 2004, sec. 10.2)
reaches its fixed point V = Q_Z(jump(V)) in a few steps.  Each solve ends
on a certified gap: the dual bound at V = Q_Z for s < 1, a first-order
linearization bound for s > 1.

The solves with s > 0 that others start from form one ladder, in
decreasing s: the multiplier table's entries, then the halving levels
s = 2^-6, 2^-7, ... below them, each level solved from the marginal of
the rung above and built on demand down to the first that does not
certify.  Every Newton solve has one entry point, which solves a list of
s in lockstep from the marginal of one start: the table's entries with s
not in {0, 1} are one stack from the true output marginal (each round
does one stacked KKT solve and a line search per slice, and a slice
leaves the stack once it certifies); a level, and any other s > 0 from
its nearest rung, is a stack of one.

At s = 0 the inner problem is Shmyrev's convex program for a linear Fisher
market (Shmyrev 2009): inputs are buyers with budgets P_X(x), outputs are
goods, P(z|x) are utilities.  Its optimum, the Eisenberg-Gale equilibrium
(Eisenberg & Gale 1959), is a vertex, which the Newton solutions approach
as s falls to 0.  So the s = 0 solve walks down the ladder from the
smallest positive table entry.  Each rung returns its own rows if the
s = 0 dual bound certifies them, else the vertex of a spanning forest of
its marginal grown in Kruskal order (support edges by their slack below
each row's maximum of ln P - ln Q_Z), with prices and flows solved
exactly on the forest, if that certifies; the forest is tried after each
new edge, and a try re-solves only the tree that the edge joined.  Else
the walk steps down a rung, building the next level.  Below the deepest
level, the first that does not certify or that the 1e-9 cache quantum
stops, the walk raises SolverError.
"""
from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .channels import ChannelSpec
from .errors import SolverError

_log = logging.getLogger("wiretap_exponent")

# The Newton kernel takes every sum and product slice by slice (np.vecdot,
# reductions along the last axis, stacked matmul), never as one
# matrix-vector product over a stack: x @ w on an (S, n) stack rounds each
# row by how many rows there are, and each slice must round as a lone
# solve of its s does.

#: sentinel for log(0); finite so that scaled arithmetic never produces NaN
_LOGZERO = -1.0e30
_TINY = 1e-320

#: default certified optimality gap for the inner convex solves (nats)
DEFAULT_GAP_TOL = 1e-10
#: default Newton-step cap per inner solve, each halving level included
DEFAULT_MAX_ITER = 1_000
#: the multiplier table: s = k/32 for k = 64, 63, ..., 0, so mu in [-1, 1]
_TABLE_S = np.linspace(2.0, 0.0, 65)

#: branch values within this of the minimum tie; the smallest index wins
_BRANCH_TIE_TOL = 1e-9
_BRANCH_NAMES = ("E1", "E2", "E3")

#: outputs whose Q_Z is at most this are held fixed in a Newton step
_QZ_FLOOR = 1e-200
#: a Newton step that moves no entry of V by more than this, relative to
#: the entry, ends the solve: V is then as converged as floats allow
_STEP_FLOOR = 1e-14
#: relative float noise of a computed objective value: the Armijo slack of
#: the Newton line search and the least gap a certificate reports
_NOISE = 4e-16


# ---------------------------------------------------------------------------
# rate pairs and result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatePair:
    """Total rate r1 and sub-code rate r2, in nats per channel use.

    The message rate is ``r = r1 - r2``; r2 never exceeds r1.
    """

    r1: float
    r2: float

    def __post_init__(self):
        if not (math.isfinite(self.r1) and math.isfinite(self.r2)):
            raise ValueError("rates must be finite")
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("rates must be nonnegative")
        if self.r2 > self.r1:
            raise ValueError(f"r2 = {self.r2} exceeds r1 = {self.r1}")

    @property
    def r(self) -> float:
        return self.r1 - self.r2


@dataclass(frozen=True)
class ExponentResult:
    """E(R1, R2) with its branch breakdown and certified width.

    ``e`` equals ``min(e1, e2, e3)``; ``active_branch`` reports the
    smallest-index branch within 1e-9 of the minimum.  ``gap_bound`` is
    the width of the certified sandwich around the ``phi`` value of the
    active branch, which bounds the error of ``e``; 0 for a branch that
    needs no ``phi``.  The representation-2 fields are populated by
    :meth:`ExponentSolver.solve`.  The minimizing test channel is not
    part of the result: ``phi(i)[1]`` is the inner solution behind each
    branch value.
    """

    e: float
    e1: float
    e2: float
    e3: float
    active_branch: str
    rep2_value: float | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    gap_bound: float = 0.0


def _pick_branch(values, achievers):
    """(e, name, achiever) of the smallest-index branch within the tie
    tolerance of the minimum of the branch values (e1, e2, e3).

    Raises SolverError when a value is NaN: no branch could be picked.
    """
    e1, e2, e3 = values
    if e1 != e1 or e2 != e2 or e3 != e3:
        raise SolverError(f"branch values {tuple(values)} include NaN",
                          best_value=math.nan, residual=math.inf,
                          iterations=0)
    e = min(e1, e2, e3)
    cut = e + _BRANCH_TIE_TOL
    k = 0 if e1 <= cut else 1 if e2 <= cut else 2
    return e, _BRANCH_NAMES[k], achievers[k]


# ---------------------------------------------------------------------------
# inner convex problem:  minimize  D(Q||P|w) + (s-1) I_Q   over rows of Q
# ---------------------------------------------------------------------------

@dataclass
class _InnerSolution:
    s: float
    log_q: np.ndarray
    q: np.ndarray
    d: float
    i: float
    f: float
    gap: float
    iterations: int

    def __post_init__(self):
        # no gap below the float noise of the values it is computed from
        self.gap = max(self.gap, _NOISE * max(1.0, abs(self.f)))


def _row_lse(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row of a, kept as a column."""
    m = a.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(a - m).sum(axis=-1, keepdims=True))


def _normalize_log_rows(a: np.ndarray, support: np.ndarray) -> np.ndarray:
    a = np.where(support, a, _LOGZERO)
    return np.where(support, a - _row_lse(a), _LOGZERO)


def _tilt(log_p: np.ndarray, s, ln_v: np.ndarray) -> np.ndarray:
    """Log rows (P V^(s-1))^(1/s) before normalization.  s is a float, or
    an (S, 1, 1) array for a stack ln_v of S log marginals.  Off the
    support log_p is _LOGZERO, so these entries lie below every supported
    one and add exactly 0 to a row's log-sum-exp."""
    return (log_p - (1.0 - s) * ln_v[..., None, :]) / s


def _jump(log_p: np.ndarray, support: np.ndarray, s,
          ln_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact row minimization of D + (s-1) I against a frozen output
    marginal V, for s > 0: the log rows (P V^(s-1))^(1/s), normalized, and
    each row's log normalizer lse.  The row minimum is -s * lse, so
    g_s(V) = -s * <w, lse> is the dual function of the Newton solve.
    The rows are normalized about their maximum m before m is added back:
    a - (m + ln sum) would round to the ulp of m, about 1/s, and leave the
    rows of a small s summing to 1 only to about 1e-16 / s.  Stacks as
    _tilt does.
    """
    a = _tilt(log_p, s, ln_v)
    m = a.max(axis=-1, keepdims=True)
    a = a - m
    tail = np.log(np.exp(a).sum(axis=-1, keepdims=True))
    return np.where(support, a - tail, _LOGZERO), (m + tail)[..., 0]


def _linearization_gap(w, log_p, support, s, log_q, q, ln_qz):
    # F(Q') >= F(Q) + <grad, Q'-Q>; minimizing the inner product over the
    # product of simplices row by row certifies F(Q) - min F <= gap.
    # Stacks as _tilt does.  Off the support q is 0 and ghat finite.
    ghat = s * log_q - log_p + (1.0 - s) * ln_qz[..., None, :]
    inner = np.vecdot(q, ghat)
    lows = np.where(support, ghat, np.inf).min(axis=-1)
    return np.maximum(np.vecdot(inner - lows, w), 0.0)


def _dual_bound(w, log_p, support, ln_qz) -> float:
    # At s = 0, F(Q) >= sum_x w_x min_row sum_z Q [lnV - lnP] for any fixed
    # V; with V = current Q_Z the row minimum sits on the row's argmax.
    diff = np.where(support, log_p - ln_qz[None, :], -np.inf)
    return -float(np.dot(w, diff.max(axis=1)))


def _divergences(w, log_p, log_q, q, ln_qz, s):
    """(D, I, F) of each of a stack of log rows log_q, with Q = exp(log_q),
    ln_qz the log of its output marginal and s the list of their s.  D
    and I are summed in the log domain and clamped at 0, where Gibbs'
    inequality puts both."""
    values = []
    for a, d, i in zip(s, np.vecdot(np.vecdot(q, log_q - log_p), w).tolist(),
                       np.vecdot(np.vecdot(q, log_q - ln_qz[..., None, :]),
                                 w).tolist()):
        d, i = max(d, 0.0), max(i, 0.0)
        values.append((d, i, d + (a - 1.0) * i))
    return values


def _evaluate(w, log_p, log_q, s):
    """(q, Q_Z, D, I, F) of the log rows log_q (see _divergences)."""
    q = np.exp(log_q)
    qz = w @ q
    ln_qz = np.log(np.maximum(qz, _TINY))
    return (q, qz) + _divergences(w, log_p, log_q[None], q[None],
                                  ln_qz[None], [s])[0]


@functools.cache
def _eye(n: int) -> np.ndarray:
    """The n x n identity, made once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _newton_kkt(w, q, qz, v, s):
    """KKT matrix [[D H D, V], [V^T, 0]] of the Newton step dV = V * u of
    g_s at V, Q = jump(V): D = diag(V), D H D = (1 - s) [a M - diag(Q_Z)/s],
    M = Q^T diag(w) Q, a = (1 - s)/s.  Row z of the top block is divided by
    (1 - s) Q_Z(z) to keep tiny outputs precise; D grad g_s = (1 - s) Q_Z
    then scales to all ones.  Outputs with Q_Z at most _QZ_FLOOR, which
    _newton_direction holds fixed, are divided by _QZ_FLOOR instead, so
    that a Q_Z that underflows to 0 leaves no inf or NaN behind.  Stacks as
    _tilt does."""
    n = qz.shape[-1]
    qz = np.maximum(qz, _QZ_FLOOR)
    kkt = np.zeros(qz.shape[:-1] + (n + 1, n + 1))
    kkt[..., :n, :n] = (1.0 - s) / s * ((q.mT * w) @ q) \
        / qz[..., :, None] - _eye(n) / s
    kkt[..., :n, n] = v / qz
    kkt[..., n, :n] = v
    return kkt


def _pick(at, n, *stacks):
    """The slices at (a list) of each of the stacks of n slices: arrays,
    lists, or floats that stand for one value of every slice (see
    _stacked).  When at takes all n slices, the stacks themselves.  The
    arrays are indexed with one intp array made once per pick.

    The per-slice lists and scalars stay because the one-slice off-table
    solves pay for array bookkeeping: an all-array Newton stack printed the
    same outputs but took the 101x101 asym3x3 plane 1.36-1.77 s against
    0.65-1.22 s (in-process, one CPU), and _line_search's per-slice
    values kept as array scalars took the plane's throughput to 0.85x (0
    of 12 paired runs faster) and left cold calls unchanged."""
    if len(at) == n:
        return stacks
    idx = np.array(at, dtype=np.intp)
    return [a[idx] if isinstance(a, np.ndarray)
            else [a[j] for j in at] if isinstance(a, list) else a
            for a in stacks]


def _stacked(values, dims):
    """The list values, one per slice, as an array with dims trailing axes
    of length 1 to broadcast against a stack; a float when the stack has
    one slice, which broadcasts alike and keeps the arithmetic of a one-s
    solve on scalars."""
    if len(values) == 1:
        return values[0]
    return np.array(values).reshape((-1,) + (1,) * dims)


def _dual_point(w, log_p, support, s, ln_v):
    """Log rows, Q and Q_Z of jump(V), and <w, lse>, for a stack of log
    marginals ln_v and its s (see _stacked); g_s(V) = -s <w, lse>."""
    rows, lse = _jump(log_p, support, s, ln_v)
    q = np.exp(rows)
    return rows, q, w @ q, np.vecdot(lse, w)


def _certify(w, log_p, support, s, s3, rows, q, ln_qz):
    """The certified gap of each of a stack of iterates Q = jump(V), with
    s the list of their s, s3 its _stacked form and ln_qz the log of Q_Z;
    and their _divergences, or None if every s > 1.  The gap is the dual
    bound at V = Q_Z, which the rows alone determine, for s < 1, and the
    linearization bound, which needs no divergences, for s > 1."""
    high = [a > 1.0 for a in s]
    if any(high):
        lin = _linearization_gap(w, log_p, support, s3, rows, q,
                                 ln_qz).tolist()
        if all(high):
            return lin, None
    values = _divergences(w, log_p, rows, q, ln_qz, s)
    lse = np.vecdot(_row_lse(_tilt(log_p, s3, ln_qz))[..., 0], w).tolist()
    return [lin[j] if high[j] else values[j][2] + a * lse[j]
            for j, a in enumerate(s)], values


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def _lapack_solve(a, b):
    """np.linalg.solve of a stack of float64 systems a x = b, b a stack of
    columns, without its per-call argument checks: the same batched LAPACK
    gufunc under the same error state, so the same bits and the same
    LinAlgError on a singular slice."""
    return _umath_linalg.solve(a, b, signature="dd->d")


def _newton_direction(w, q, qz, v, s, rhs, floored, held):
    """Newton directions u (dV = V * u) of a stack, with s its _stacked
    (S, 1, 1) form and rhs the right-hand side [-1, ..., -1, 0] of each
    slice; u = 0 for a slice whose KKT system is singular.  The floored
    outputs, held in all, are fixed: their rows and columns become an
    identity block, so that u_z = 0."""
    n = qz.shape[-1]
    kkt = _newton_kkt(w, q, qz, v, s)
    if held:
        keep = np.append(~floored, np.ones((len(q), 1), bool), axis=1)
        kkt *= keep[:, :, None] & keep[:, None, :]
        at, z = np.nonzero(floored)
        kkt[at, z, z] = 1.0
        rhs = rhs.copy()
        rhs[at, z] = 0.0
    try:
        u = _lapack_solve(kkt, rhs)
    except np.linalg.LinAlgError:
        u = np.zeros_like(rhs)
        for j in range(len(q)):
            try:
                u[j] = np.linalg.solve(kkt[j], rhs[j])
            except np.linalg.LinAlgError:
                pass
    return u[:, :n, 0]


def _line_search(w, log_p, support, s, s3, v, u, wlse, qz, floored, held):
    """Damped steps V * (1 + t u) of a stack, each from t = 1 capped to
    keep V positive and halved until sign(s - 1) g_s improves by the
    Armijo fraction of its slope, less float noise (g_s is second-order
    flat at the optimum, the certificates first-order), and no output
    kept by the step falls to the floor.  Each trial re-evaluates only the
    slices still searching.  A slice whose u is below _STEP_FLOOR, or whose
    t falls below 1e-12, takes no step.  s is a list of the stack's s and
    s3 its _stacked form, g_s = -s wlse, and held counts the floored
    outputs.  Returns the slices that took a step, in stack order, and
    their new V, log V, rows, Q, Q_Z and <w, lse>."""
    g, slope, t = [], [], []
    for a, wl, du, low, high in zip(s, wlse.tolist(),
                                    np.vecdot(qz, u).tolist(),
                                    u.min(axis=-1).tolist(),
                                    u.max(axis=-1).tolist()):
        g.append(-a * wl)
        # sign * g_s changes at rate -|1 - s| <Q_Z, u> along t
        slope.append(-abs(1.0 - a) * du)
        t.append(min(1.0, 0.99 / max(-low, 1e-300))
                 if max(high, -low) > _STEP_FLOOR else 0.0)
    steps = []                          # (slices, state) of each trial
    todo = [j for j, tj in enumerate(t) if tj >= 1e-12]
    while todo:
        s3j, vj, uj, fj = _pick(todo, len(s), s3, v, u, floored)
        v_t = vj * (1.0 + _stacked([t[j] for j in todo], 1) * uj)
        v_t /= v_t.sum(axis=-1, keepdims=True)
        ln_t = np.log(v_t)
        trial = _dual_point(w, log_p, support, s3j, ln_t)
        # a kept output falling to the floor (Q_Z underflows at small s)
        # means the step left the region the Newton model describes
        low = (np.where(fj, 1.0, trial[2]) if held else trial[2]).min(
            axis=-1).tolist()
        ok = [m for m, (j, wl) in enumerate(zip(todo, trial[3].tolist()))
              if low[m] > _QZ_FLOOR and math.copysign(1.0, s[j] - 1.0)
              * (-s[j] * wl - g[j])
              <= 1e-4 * t[j] * slope[j] + _NOISE * max(1.0, abs(g[j]))]
        steps.append(([todo[m] for m in ok],
                      _pick(ok, len(todo), v_t, ln_t, *trial)))
        if len(ok) == len(todo):
            break
        took = set(ok)
        todo = [j for m, j in enumerate(todo) if m not in took]
        for j in todo:
            t[j] *= 0.5
        todo = [j for j in todo if t[j] >= 1e-12]
    if len(steps) == 1:
        return steps[0]
    # each trial's slices are scattered to their places in stack order
    at = sorted(j for took, _ in steps for j in took)
    rank = {j: m for m, j in enumerate(at)}
    where = [np.array([rank[j] for j in took], dtype=np.intp)
             for took, _ in steps]
    state = []
    for parts in zip(*(part for _, part in steps)):
        a = np.empty((len(at),) + parts[0].shape[1:])
        for m, part in zip(where, parts):
            a[m] = part
        state.append(a)
    return at, tuple(state)


def _newton_stack(w, log_p, support, s, v, gap_tol, max_iter):
    """Damped Newton solves of max_V g_s (s < 1) or min_V g_s (s > 1), run
    in lockstep for a list of s, each from its positive output marginal
    v[k]; returns the solutions in the order of s.

    The iterate is Q = jump(V), certified for s < 1 by the dual bound at
    V = Q_Z and for s > 1 by the linearization bound.  Each round solves
    the KKT systems of all slices still on the stack at once, then line
    searches them (_line_search); outputs with Q_Z at most _QZ_FLOOR are
    held fixed.  A slice leaves the stack once it certifies, or when it
    reaches max_iter or takes no step (its KKT system is singular, its step
    is below _STEP_FLOOR or its line search fails); it is then certified
    once more.  The stack reports as if its s were solved one after
    another: the first uncertified s raises SolverError.
    """
    sols = [None] * len(s)
    failed = None                       # (index, s, gap, F, steps), first
    k = list(range(len(s)))             # index into s of each live slice
    s3 = _stacked(s, 2)
    rhs = np.zeros((len(s), v.shape[1] + 1, 1))
    rhs[:, :-1] = -1.0
    ln_v = np.log(v)
    rows, q, qz, wlse = _dual_point(w, log_p, support, s3, ln_v)
    for it in range(max_iter + 1):
        n = len(k)
        ln_qz = np.log(np.maximum(qz, _TINY))
        # |1 - s| D(Q_Z||V), which is F(Q) - g_s(V) for s < 1, screens the
        # certificate: it is computed once V is this near its fixed point
        gap = [abs(1.0 - a) * b for a, b in zip(
            s, np.vecdot(qz, ln_qz - ln_v).tolist())]
        values = {}                     # D, I and F by slice, once known

        def certify(at):  # the certificates replace the screen of at
            if at:
                gaps, known = _certify(w, log_p, support,
                                       *_pick(at, n, s, s3, rows, q, ln_qz))
                for j, gap_j in zip(at, gaps):
                    gap[j] = gap_j
                if known:
                    values.update(zip(at, known))

        certify([j for j in range(n) if gap[j] <= gap_tol])
        go = [j for j in range(n) if gap[j] > gap_tol] \
            if it < max_iter else []
        if go:
            sj, s3j, vj, qj, qzj, wj = _pick(go, n, s, s3, v, q, qz, wlse)
            floored = qzj <= _QZ_FLOOR
            held = np.count_nonzero(floored)
            moved, state = _line_search(
                w, log_p, support, sj, s3j, vj,
                _newton_direction(w, qj, qzj, vj, s3j, rhs[:len(go)],
                                  floored, held), wj, qzj, floored, held)
            go = [go[m] for m in moved]
        if len(go) < n:
            moving = set(go)
            ended = [j for j in range(n) if j not in moving]
            certify([j for j in ended if gap[j] > gap_tol])
            need = [j for j in ended if j not in values]
            if need:
                values.update(zip(need, _divergences(
                    w, log_p, *_pick(need, n, rows, q, ln_qz, s))))
            for j in ended:
                if gap[j] <= gap_tol:
                    sols[k[j]] = _InnerSolution(
                        s[j], rows[j].copy(), q[j].copy(), *values[j], gap[j],
                        it)
                elif failed is None or k[j] < failed[0]:
                    failed = (k[j], s[j], gap[j], values[j][2], it)
            if not go:
                break
            k, s, s3 = _pick(go, n, k, s, s3)
        v, ln_v, rows, q, qz, wlse = state
    if failed is None:
        return sols
    _, s, gap, f, it = failed
    _log.debug("Newton solve at s=%.9g stopped uncertified with gap %.3g "
               "after %d steps", s, gap, it)
    raise SolverError(f"Newton solve did not certify at s={s:.9g}",
                      best_value=f, residual=gap, iterations=it)


def _preorder(adj, root):
    """Nodes of root's tree in the forest adj, each after its parent, and
    each node's parent (the root's is -1)."""
    order, parent, stack = [], {root: -1}, [root]
    while stack:
        a = stack.pop()
        order.append(a)
        for b in adj[a]:
            if b not in parent:
                parent[b] = a
                stack.append(b)
    return order, parent


def _tree_flows(w, log_p, adj, start, level, demand, rows) -> bool:
    """Solves the s = 0 vertex on the tree of the forest adj (nodes are rows
    x, then outputs nx + z) whose least node is start, writing the log row
    entry of each of its edges into rows; False when it needs a negative
    flow.  level and demand are scratch arrays over all nodes.

    Log prices u_z and row levels t_x follow u_z - t_x = ln P(z|x) along
    the tree from start, and the prices are scaled to sum to the tree's
    budgets.  The flows, with row sums w_x and column sums e^u, are peeled
    from the leaves towards the tree's largest node, which is never peeled:
    its balance takes the rounding, so no small flow is the difference of
    two large ones.
    """
    nx = w.size
    order, parent = _preorder(adj, start)
    level[start] = 0.0
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
    order, parent = _preorder(adj, max(order, key=demand.__getitem__))
    for b in reversed(order[1:]):
        a, flow = parent[b], demand[b]
        if flow < 0.0:
            return False
        demand[a] -= flow
        x, z = min(a, b), max(a, b) - nx
        rows[x, z] = math.log(max(flow / w[x], _TINY))
    return True


def _zero_certificate(w, log_p, support, log_q, it):
    """(the s = 0 solution of the log rows log_q, its raw gap f - dual, the
    log of its output marginal): the dual bound is taken at that marginal.
    A certificate tests the raw gap, as the solution's stored gap is
    clamped up to the float noise."""
    q, qz, d, i, f = _evaluate(w, log_p, log_q, 0.0)
    ln_qz = np.log(np.maximum(qz, _TINY))
    gap = f - _dual_bound(w, log_p, support, ln_qz)
    return _InnerSolution(0.0, log_q, q, d, i, f, gap, it), gap, ln_qz


def _forest_vertex(w, log_p, support, ln_v, gap_tol, it):
    """The s = 0 vertex of the log marginal ln_v that its own dual bound
    certifies within gap_tol, or None.

    At s = 0 the inner problem is Shmyrev's convex program for a linear
    Fisher market: buyers x with budgets w_x, goods z, utilities P(z|x).
    Its optimum, the Eisenberg-Gale equilibrium, spends each budget on the
    row's argmax of ln P - ln Q_Z, along a forest.  The support edges join
    a forest in the order of their slack below the row maximum of
    ln P - ln_v (Kruskal order, a stable sort), skipping any edge that
    would close a cycle.  Once every row and output lies on an edge, and
    again after each further edge, the vertex on the forest is tried: the
    first try solves every tree (_tree_flows), each later one re-solves only
    the tree that the new edge joined.  Every other tree keeps its log row
    entries, or its verdict that it needs a negative flow; a try while any
    tree needs one is skipped.
    """
    nx, nz = log_p.shape
    score = np.where(support, log_p - ln_v[None, :], -np.inf)
    xs, zs = np.nonzero(support)
    slack = (score.max(axis=1)[:, None] - score)[xs, zs]
    root = list(range(nx + nz))         # each tree's root is its least node

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    adj = [[] for _ in range(nx + nz)]
    level, demand = np.zeros(nx + nz), np.zeros(nx + nz)
    # a tree's solve rewrites the entries of all its edges and of no others
    rows = np.full(log_p.shape, _LOGZERO)
    negative = set()                    # roots of trees with a negative flow
    bare = nx + nz
    for e in np.argsort(slack, kind="stable"):
        x, z = int(xs[e]), nx + int(zs[e])
        rx, rz = find(x), find(z)
        if rx == rz:
            continue
        low, high = min(rx, rz), max(rx, rz)
        root[high] = low
        first = bare > 0                # the first try solves every tree
        bare -= (not adj[x]) + (not adj[z])
        adj[x].append(z)
        adj[z].append(x)
        if bare:
            continue
        if first:
            trees = {find(a) for a in range(nx + nz)}
        else:
            negative.discard(high)
            trees = (low,)
        for r in trees:
            if _tree_flows(w, log_p, adj, r, level, demand, rows):
                negative.discard(r)
            else:
                negative.add(r)
        if negative:
            continue
        sol, gap, _ = _zero_certificate(
            w, log_p, support, _normalize_log_rows(rows, support), it)
        if gap <= gap_tol:
            _log.debug("s=0 forest vertex certifies gap %.3g after %d "
                       "Newton steps", sol.gap, it)
            return sol
    return None


# ---------------------------------------------------------------------------
# per-channel solver with cached inner solutions
# ---------------------------------------------------------------------------

def _key(s: float) -> float:
    """The cache key of s: clamped to [0, 2] and quantized to 1e-9."""
    return round(min(max(s, 0.0), 2.0), 9)


class ExponentSolver:
    """Evaluates exponents for a fixed ChannelSpec, reusing inner solves.

    A table of 65 support points along mu in [-1, 1], s = k/32, is
    precomputed once, each entry with s > 0 solved from the true output
    marginal.  Its s > 0 entries and the halving levels below them form one
    list, the ladder, in decreasing s; the levels are built lazily, each
    solved from the rung above, and s = 0 is solved by a walk down it.
    Every other inner solve starts from the nearest rung, after building
    the levels down to its s, and every Newton solve goes through _solve.
    That makes each solution a deterministic function of its multiplier
    alone, independent of query order.  Rate points can therefore be evaluated
    concurrently and reproduce bit-for-bit.  For the same reason ``phi``
    values (keyed on the target) are memoized per instance without
    changing any result; all caches live and die with the solver.

    Parameters
    ----------
    spec : ChannelSpec
        Channel under study.  Inputs with zero mass and outputs outside
        every row's support are dropped before optimization, so every
        inner solution's rows are those of the reduced channel.
    gap_tol : float
        Certified optimality gap at which inner solves stop; ``phi`` stops
        refining once its sandwich is at most twice as wide.
    max_iter : int
        Newton-step cap per solve, each halving level included; an integer
        of at least 1, integral floats such as ``1e5`` included; any other
        value raises ``ValueError``.
    """

    def __init__(self, spec: ChannelSpec, *, gap_tol: float = DEFAULT_GAP_TOL,
                 max_iter: int = DEFAULT_MAX_ITER):
        if not (float(max_iter).is_integer() and max_iter >= 1):
            raise ValueError(
                f"max_iter = {max_iter!r} must be an integer of at least 1")
        self.gap_tol = float(gap_tol)
        self.max_iter = int(max_iter)

        w_full = spec.input_dist.probs
        keep_x = w_full > 0
        p_rows = spec.wiretap.rows[keep_x]
        keep_z = (p_rows > 0).any(axis=0)
        self._w = w_full[keep_x]
        # C order: indexing the columns leaves a Fortran-ordered copy, and
        # the order of the operands fixes the rounding of every row sum
        self._p = np.ascontiguousarray(p_rows[:, keep_z])
        self._support = self._p > 0
        self._log_p = np.where(self._support,
                               np.log(np.maximum(self._p, _TINY)), _LOGZERO)
        # s = 1 is exact: the true channel, with D = 0 and I = I(X;Z)
        q, _, d, self.i_p, f = _evaluate(self._w, self._log_p, self._log_p,
                                         1.0)
        true = _InnerSolution(1.0, self._log_p, q, d, self.i_p, f, 0.0, 0)
        self._cache: dict[float, _InnerSolution] = {1.0: true}
        self._phi_cache: dict[float, tuple[float, _InnerSolution, float]] = {}
        # the table's s not in {0, 1} are one Newton stack from the true
        # output marginal; the ladder takes its s > 0 entries in decreasing
        # s, and s = 0 walks down from the last of them
        keys = [_key(float(s)) for s in _TABLE_S]
        self._solve([key for key in keys if key not in (0.0, 1.0)], true)
        self._ladder = [self._cache[key] for key in keys if key > 0.0]
        self._deepest = False           # no further level certifies
        self._zero = self._cache[0.0] = self._solve_zero()
        # I rises along the table, but rounding can lift a one-point
        # curve's first I above its last (by up to 7e-17), which would
        # leave all three branches of exponent_rep1 without a constraint set
        self.i_max = self._zero.i
        self.i_min = min(self._ladder[0].i, self.i_max)
        self.d_at_imax = self._zero.d

    # -- inner solves --------------------------------------------------

    def _solve(self, keys: list[float],
               start: _InnerSolution) -> list[_InnerSolution]:
        """The Newton solves of the list keys, in lockstep from the output
        marginal of start, floored as every start is (an output that
        underflows to 0 would leave log 0 in the first jump); cached and
        returned in the order of keys.  The one caller of _newton_stack."""
        v = np.maximum(self._w @ start.q, _TINY)
        sols = _newton_stack(self._w, self._log_p, self._support, keys,
                             np.tile(v, (len(keys), 1)), self.gap_tol,
                             self.max_iter)
        self._cache.update(zip(keys, sols))
        return sols

    def _extend(self) -> bool:
        """Builds the next halving level of the ladder: the Newton solve at
        half the s of the last rung, from its marginal.  Returns whether it
        did.  The ladder ends at the first level that does not certify (the
        failed solve leaves a debug record) or whose key would not fall
        below the level above (the 1e-9 cache quantum rounds 5e-10 up to
        1e-9)."""
        if not self._deepest:
            above = self._ladder[-1]
            key = _key(above.s / 2.0)
            if 0.0 < key < above.s:
                try:
                    self._ladder.append(self._solve([key], above)[0])
                    return True
                except SolverError:
                    pass
            self._deepest = True
        return False

    def _solve_zero(self) -> _InnerSolution:
        """The s = 0 solve by continuation down the ladder from its last
        rung (a homotopy; Boyd & Vandenberghe 2004, sec. 11): each rung
        returns its own rows or their forest vertex, whichever certifies at
        s = 0, or else the walk steps down a rung.  Raises SolverError below
        the deepest level; iterations counts the Newton steps of every rung
        below the first."""
        w, log_p, support = self._w, self._log_p, self._support
        k = len(self._ladder) - 1
        sol, steps = self._ladder[k], 0
        while True:
            zero, gap, ln_qz = _zero_certificate(w, log_p, support,
                                                 sol.log_q, steps)
            if gap <= self.gap_tol:
                return zero
            vertex = _forest_vertex(w, log_p, support, ln_qz, self.gap_tol,
                                    steps)
            if vertex is not None:
                return vertex
            k += 1
            if k == len(self._ladder) and not self._extend():
                break
            sol = self._ladder[k]
            steps += sol.iterations
        _log.debug("s=0 continuation stopped uncertified at s=%.9g with gap "
                   "%.3g after %d Newton steps", sol.s, gap, steps)
        raise SolverError(f"s=0 continuation did not certify down to "
                          f"s={sol.s:.9g}", best_value=zero.f,
                          residual=gap, iterations=steps)

    def _solve_s(self, s: float) -> _InnerSolution:
        # inner solutions are cached on s quantized to 1e-9; s = 0 and the
        # table are solved when the solver is built.  An uncached s runs
        # Newton from the marginal of the nearest rung, once the ladder
        # reaches down to s; one of its levels may be s itself.
        key = _key(s)
        sol = self._cache.get(key)
        if sol is None:
            while self._ladder[-1].s > key and self._extend():
                pass
            sol = self._cache.get(key)
            if sol is None:
                sol = self._solve([key], self._nearest_start(key))[0]
        return sol

    def _nearest_start(self, key: float) -> _InnerSolution:
        """The rung nearest to key among the levels built so far, the first
        of two equally near (the larger s), by bisection on the ladder's
        decreasing s."""
        ladder = self._ladder
        k = bisect.bisect_left(ladder, -key, key=lambda start: -start.s)
        if k == 0:
            return ladder[0]
        if k == len(ladder) or ladder[k - 1].s - key <= key - ladder[k].s:
            return ladder[k - 1]
        return ladder[k]

    def _bracket(self, target: float):
        """The two certified solves whose I bracket the interior target,
        (lo, hi) with I(lo) >= target >= I(hi), and whether solves between
        them may refine it, which is not so above the deepest level.  The
        table's rungs are bisected by I; above the I of the last of them,
        the halving levels are walked one at a time (built on demand), as
        nothing orders their I."""
        ladder, n = self._ladder, len(_TABLE_S) - 1
        k = bisect.bisect_left(ladder, target, 1, n, key=lambda sol: sol.i)
        if k < n:
            return ladder[k], ladder[k - 1], True
        while k < len(ladder) or self._extend():
            if ladder[k].i >= target:
                return ladder[k], ladder[k - 1], True
            k += 1
        return self._zero, ladder[-1], False

    def _sandwich(self, target: float) -> tuple[float, _InnerSolution, float]:
        """(phi, the solve whose support line gives it, the certified width
        of the sandwich around it) at a target inside (i_min, i_max)."""
        lo, hi, refine = self._bracket(target)
        g_lo, g_hi = lo.i - target, hi.i - target
        best, lower = None, -math.inf
        side, why = 0, "the bracket lies above the deepest level"
        new = (hi, lo)
        while True:
            for sol in new:
                line = sol.f - (sol.s - 1.0) * target
                if best is None or line > best[0]:
                    best = (line, sol)
                lower = max(lower, line - sol.gap)
            span = lo.i - hi.i
            upper = (hi.d + (lo.d - hi.d) * (target - hi.i) / span
                     if span > 0.0 else min(lo.d, hi.d))
            width = max(upper - lower, 0.0)
            if width <= 2.0 * self.gap_tol or not refine:
                break
            # Anderson-Bjorck regula falsi on I(s) - target: when a new s
            # lands on the same side twice in a row, the retained end's
            # value is scaled down
            key = _key(lo.s + g_lo * (hi.s - lo.s) / (g_lo - g_hi)
                       if g_lo > g_hi else 0.5 * (lo.s + hi.s))
            if not lo.s < key < hi.s:
                key = _key(0.5 * (lo.s + hi.s))
            if not lo.s < key < hi.s:
                why = "the bracket is one cache quantum wide"
                break
            try:
                sol = self._solve_s(key)
            except SolverError:
                why = f"the solve at s={key:.9g} failed"
                break
            g = sol.i - target
            if g >= 0.0:
                if side < 0:
                    m = 1.0 - g / g_lo if g_lo > 0.0 else 0.0
                    g_hi *= m if m > 0.0 else 0.5
                lo, g_lo, side = sol, g, -1
            else:
                if side > 0:
                    m = 1.0 - g / g_hi if g_hi < 0.0 else 0.0
                    g_lo *= m if m > 0.0 else 0.5
                hi, g_hi, side = sol, g, 1
            new = (sol,)
        if width > 2.0 * self.gap_tol:
            _log.debug("phi at I=%.9g keeps a sandwich of width %.3g: %s",
                       target, width, why)
        return max(best[0], 0.0), best[1], width

    # -- public operations ----------------------------------------------

    def phi(self, target_i: float) -> tuple[float, _InnerSolution, float]:
        """(minimal divergence, its support line's inner solution, certified
        sandwich width) at mutual-information level ``target_i``.

        The value is the support-line envelope max_mu [m(1+mu) - mu*I0] on
        a sandwich at most 2 gap_tol wide, or wider where the solves cannot
        refine it (module docstring; memoized, see _sandwich).  At or beyond
        an end of [i_min, i_max] it is that end's table support line, picked
        from the unclamped target: a one-point curve (every row of P
        one-hot) still takes the s = 2 end below it.
        """
        if target_i <= self.i_min or target_i >= self.i_max:
            sol = self._ladder[0] if target_i <= self.i_min else self._zero
            target = min(max(target_i, self.i_min), self.i_max)
            return max(sol.f - (sol.s - 1.0) * target, 0.0), sol, sol.gap
        hit = self._phi_cache.get(target_i)
        if hit is None:
            hit = self._phi_cache[target_i] = self._sandwich(target_i)
        return hit

    def e3(self, r1: float) -> tuple[float, _InnerSolution | None, float]:
        """(E3(R1) = min {D : I >= R1}, its inner solution, sandwich width).

        +inf (no solution) above the curve's range, 0 at the true channel
        when R1 <= I(P), and ``phi(R1)`` in between.
        """
        if r1 > self.i_max:
            return math.inf, None, 0.0
        if r1 <= self.i_p:
            return 0.0, self._solve_s(1.0), 0.0
        return self.phi(r1)

    def exponent_rep1(self, rates: RatePair) -> ExponentResult:
        """Branch-form evaluation of E(R1, R2).

        Each branch minimum is read from ``phi`` at its binding I level; a
        branch whose constraint set misses [i_min, i_max] is +inf.  (Any
        part of a constraint set beyond that range would need multipliers
        outside [-1, 1]; by convexity of the trade-off those regions are
        dominated by another branch, so ``e`` is unaffected.)
        """
        e, e1, e2, e3, branch, _, width = self._branches(rates)
        return ExponentResult(e=e, e1=e1, e2=e2, e3=e3, active_branch=branch,
                              gap_bound=width)

    def _branches(self, rates: RatePair):
        """(e, e1, e2, e3, active branch, achiever, sandwich width) at rates:
        the one branch evaluation, which exponent_rep1 and solve wrap in
        an ExponentResult and the CLI sweep reads as it is.  The achiever
        is the inner solution behind the active branch's value."""
        r1, r2 = rates.r1, rates.r2
        if r2 < self.i_min:
            e1, q1 = math.inf, (None, 0.0)
        elif r2 >= self.i_p:
            e1, q1 = r1 - r2, (self._solve_s(1.0), 0.0)
        else:
            val, sol, width = self.phi(r2)
            e1, q1 = r1 - r2 + val, (sol, width)

        a, b = max(r2, self.i_min), min(r1, self.i_max)
        if a > b:
            e2, q2 = math.inf, (None, 0.0)
        else:
            val, sol, width = self.phi(b)
            e2, q2 = r1 + val - b, (sol, width)

        e3, *q3 = self.e3(r1)

        e, branch, (achiever, width) = _pick_branch((e1, e2, e3),
                                                    (q1, q2, q3))
        return e, e1, e2, e3, branch, achiever, width

    def exponent_rep2(self, rates: RatePair) -> tuple[float, float, float]:
        """Min-max evaluation of E(R1, R2); returns (value, lambda1, lambda2).

        The inner maximization over lambda1 is solved by stationarity of the
        concave objective (its derivative is I(lambda1+lambda2) - R1), at
        the s of ``phi(R1)``'s support line.  The outer function
        h(lambda2) = max_lambda1 [m(lambda1 + lambda2) + (1 - lambda1) R1
        - lambda2 R2], with m(s) the inner minimum (a minimum of affine
        functions of s, so concave), is a partial maximum of a jointly
        concave function.  h is therefore concave, its minimum over [0, 1]
        sits at an endpoint, and only lambda2 = 0 and 1 are evaluated.
        """
        r1, r2 = rates.r1, rates.r2
        s_star = self.phi(r1)[1].s
        best = None
        for lam2 in (0.0, 1.0):
            lam1 = min(max(s_star - lam2, 0.0), 1.0)
            val = self._solve_s(lam1 + lam2).f + (1.0 - lam1) * r1 - lam2 * r2
            if best is None or val < best[0] - 1e-12:
                best = (val, lam1, lam2)
        return best

    def solve(self, rates: RatePair) -> ExponentResult:
        """Full evaluation: representation-1 branches plus the min-max value."""
        e, e1, e2, e3, branch, _, width = self._branches(rates)
        value, lam1, lam2 = self.exponent_rep2(rates)
        return ExponentResult(e=e, e1=e1, e2=e2, e3=e3, active_branch=branch,
                              rep2_value=value, lambda1=lam1, lambda2=lam2,
                              gap_bound=width)
