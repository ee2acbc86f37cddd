"""Finite-alphabet probability objects, channel-spec files and the
degradedness check.

Everything downstream works in nats.  All types are immutable after
construction and all operations are pure functions, so values can be shared
freely between worker processes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelFileError, SolverError

#: construction-time tolerance on |sum(p) - 1|
SUM_ATOL = 1e-12
#: per-row tolerance accepted when loading channel-spec files; rows within
#: this tolerance are renormalized exactly on load
FILE_SUM_ATOL = 1e-9
#: default max-norm residual accepted by the degradedness check
DEFAULT_DEGRADED_TOL = 1e-9


def _as_prob_vector(values, what: str) -> np.ndarray:
    p = np.asarray(values, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"{what} must be a one-dimensional, nonempty vector")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{what} contains non-finite entries")
    if np.any(p < 0):
        raise ValueError(f"{what} contains negative entries")
    if abs(float(p.sum()) - 1.0) > SUM_ATOL:
        raise ValueError(
            f"{what} sums to {p.sum():.17g}, outside tolerance {SUM_ATOL}")
    p = p.copy()
    p.flags.writeable = False
    return p


def _row_sums(m: np.ndarray, atol: float) -> np.ndarray | None:
    """The row sums of the C-ordered matrix m when every row is finite,
    nonnegative and sums to 1 within atol, else None.  Each row's sum has
    the bits of the row's own sum, so each row is decided as it is alone."""
    if not (np.isfinite(m).all() and (m >= 0).all()):
        return None
    sums = m.sum(axis=1)
    return sums if (np.abs(sums - 1.0) <= atol).all() else None


class Distribution:
    """Probability vector over a finite alphabet of fixed size.

    Parameters
    ----------
    probs : array_like
        Nonnegative entries summing to 1 within ``SUM_ATOL``.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        self.probs = _as_prob_vector(probs, "distribution")

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def __repr__(self) -> str:
        return f"Distribution({self.probs.tolist()!r})"


class Dmc:
    """Discrete memoryless channel: one output distribution per input symbol.

    Parameters
    ----------
    rows : array_like
        Matrix of shape (|X|, |Z|); every row is a valid Distribution.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        m = np.array(rows, dtype=float, order="C")
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError("channel matrix must be two-dimensional and nonempty")
        # all rows are checked at once; the rows are checked one by one
        # only to name the first bad one
        if _row_sums(m, SUM_ATOL) is None:
            for k in range(m.shape[0]):
                _as_prob_vector(m[k], f"channel row {k}")
        m.flags.writeable = False
        self.rows = m

    @property
    def num_inputs(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_outputs(self) -> int:
        return int(self.rows.shape[1])

    def __repr__(self) -> str:
        return f"Dmc({self.rows.tolist()!r})"


class ChannelSpec:
    """Input distribution plus wiretap channel, optionally the main channel.

    Parameters
    ----------
    input_dist : Distribution
        Input distribution P_X (alphabet size at least 2).
    wiretap : Dmc
        Channel to the eavesdropper, P_{Z|X}.
    main : Dmc or None
        Channel to the legitimate receiver, P_{Y|X}; only used by the
        degradedness check.
    """

    __slots__ = ("input_dist", "wiretap", "main")

    def __init__(self, input_dist: Distribution, wiretap: Dmc,
                 main: Dmc | None = None):
        if input_dist.size < 2:
            raise ValueError("input alphabet must have at least 2 symbols")
        if input_dist.size != wiretap.num_inputs:
            raise ValueError(
                f"input distribution has {input_dist.size} entries but the "
                f"wiretap channel has {wiretap.num_inputs} rows")
        if main is not None and main.num_inputs != input_dist.size:
            raise ValueError(
                f"main channel has {main.num_inputs} rows, expected "
                f"{input_dist.size}")
        self.input_dist = input_dist
        self.wiretap = wiretap
        self.main = main

    def __repr__(self) -> str:
        return (f"ChannelSpec(input_dist={self.input_dist!r}, "
                f"wiretap={self.wiretap!r}, main={self.main!r})")


# ---------------------------------------------------------------------------
# degradedness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegradednessResult:
    """Outcome of the stochastic-degradedness feasibility check.

    Attributes
    ----------
    is_degraded : bool
        True when a row-stochastic intermediate channel reproduces the
        wiretap channel within tolerance.
    witness : Dmc or None
        One intermediate channel P_{Z|Y} achieving the residual, present
        on success.
    residual : float
        Smallest achievable max-norm of P_{Y|X} P_{Z|Y} - P_{Z|X}.
    """

    is_degraded: bool
    witness: Dmc | None
    residual: float


def check_degraded(main: Dmc, wiretap: Dmc,
                   tol: float = DEFAULT_DEGRADED_TOL) -> DegradednessResult:
    """Decide whether the wiretap channel is a degraded version of the main one.

    Solves the linear feasibility problem for a row-stochastic P_{Z|Y} with
    max_{x,z} |(P_{Y|X} P_{Z|Y})(z|x) - P_{Z|X}(z|x)| <= tol, by minimizing
    the max-norm residual with an LP.
    """
    if main.num_inputs != wiretap.num_inputs:
        raise ValueError(
            f"channels act on different input alphabets: {main.num_inputs} "
            f"vs {wiretap.num_inputs}")
    a = main.rows                    # (nx, ny)
    b = wiretap.rows                 # (nx, nz)
    nx, ny = a.shape
    nz = b.shape[1]
    nvar = ny * nz + 1               # vec(W) then the residual bound t

    # |A W - B| <= t, elementwise: row (x, z) of kron(A, I) is
    # sum_y a[x,y] W[y,z]; its + and - rows are interleaved per (x, z)
    aw = np.kron(a, np.eye(nz))
    t = np.full((nx * nz, 1), -1.0)
    rows_ub = np.stack((np.hstack((aw, t)), np.hstack((-aw, t))),
                       axis=1).reshape(-1, nvar)
    rhs_ub = np.stack((b.ravel(), -b.ravel()), axis=1).ravel()
    # rows of W sum to one
    rows_eq = np.hstack((np.kron(np.eye(ny), np.ones(nz)), np.zeros((ny, 1))))
    cost = np.zeros(nvar)
    cost[-1] = 1.0
    # imported here, not at module level: loading scipy's optimizers would
    # add about 0.3 s to the start of every command, not only `check`
    from scipy.optimize import linprog
    res = linprog(cost,
                  A_ub=rows_ub, b_ub=rhs_ub, A_eq=rows_eq, b_eq=np.ones(ny),
                  bounds=[(0, None)] * (ny * nz) + [(0, None)],
                  method="highs")
    if not res.success:
        raise SolverError(f"degradedness LP failed: {res.message}",
                          best_value=math.nan, residual=math.nan,
                          iterations=res.nit)
    t = float(res.x[-1])
    ok = t <= tol * (1 + 1e-6) + 1e-12
    witness = None
    if ok:
        w = res.x[:-1].reshape(ny, nz)
        w = np.maximum(w, 0.0)
        w /= w.sum(axis=1, keepdims=True)
        witness = Dmc(w)
    return DegradednessResult(is_degraded=ok, witness=witness, residual=t)


# ---------------------------------------------------------------------------
# channel-spec files
# ---------------------------------------------------------------------------

def _file_vector(raw, what: str) -> np.ndarray:
    """A probability vector read from a channel-spec file, renormalized
    exactly; ``what`` names it in the error messages."""
    # true, false, null and numeric strings are no JSON numbers, though numpy
    # would convert them; nested arrays go on to the flatness check
    if isinstance(raw, list) and not all(
            type(v) in (int, float, list) for v in raw):
        raise ChannelFileError(f"{what} must be an array of numbers")
    try:
        vals = np.asarray(raw, dtype=float)
    except OverflowError:               # an integer beyond any float
        raise ChannelFileError(
            f"{what} has negative or non-finite entries") from None
    except (TypeError, ValueError):
        raise ChannelFileError(f"{what} must be an array of numbers") from None
    if vals.ndim != 1:
        raise ChannelFileError(f"{what} must be a flat array")
    if np.any(vals < 0) or not np.all(np.isfinite(vals)):
        raise ChannelFileError(f"{what} has negative or non-finite entries")
    s = float(vals.sum())
    if abs(s - 1.0) > FILE_SUM_ATOL:
        raise ChannelFileError(
            f"{what} sums to {s:.17g} (|sum-1| > {FILE_SUM_ATOL})")
    return vals / s


def _file_rows(raw, width: int) -> np.ndarray | None:
    """The rows raw as one array, each renormalized to the bits that
    _file_vector gives it, or None when some row fails one of its checks."""
    if not all(len(r) == width and all(type(v) in (int, float) for v in r)
               for r in raw):
        return None
    try:
        m = np.array(raw, dtype=float)
    except OverflowError:
        return None
    sums = _row_sums(m, FILE_SUM_ATOL)
    return None if sums is None else m / sums[:, None]


def _load_rows(raw, name: str) -> Dmc:
    if not isinstance(raw, list) or not raw or not all(
            isinstance(r, list) for r in raw):
        raise ChannelFileError(f"'{name}' must be a nonempty array of arrays")
    width = len(raw[0])
    rows = _file_rows(raw, width)
    if rows is None:                    # the first bad row names the error
        for k, r in enumerate(raw):
            if len(r) != width:
                raise ChannelFileError(
                    f"'{name}' row {k} has {len(r)} entries, expected {width}")
            _file_vector(r, f"'{name}' row {k}")
    return Dmc(rows)


def parse_channel_spec(text: str, source: str = "<string>") -> ChannelSpec:
    """Parse and validate a channel-spec document.

    The document is JSON with fields ``input_dist`` (array), ``wiretap``
    (array of arrays, row-stochastic) and optional ``main``.  Rows are
    accepted when their sums are within ``FILE_SUM_ATOL`` of one and are
    renormalized exactly.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFileError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ChannelFileError(f"{source}: top level must be an object")
    try:
        if "input_dist" not in raw:
            raise ChannelFileError("missing required field 'input_dist'")
        if "wiretap" not in raw:
            raise ChannelFileError("missing required field 'wiretap'")
        px = _file_vector(raw["input_dist"], "'input_dist'")
        wiretap = _load_rows(raw["wiretap"], "wiretap")
        main = _load_rows(raw["main"], "main") if "main" in raw else None
        return ChannelSpec(Distribution(px), wiretap, main)
    except ChannelFileError as exc:
        raise ChannelFileError(f"{source}: {exc}") from None
    except ValueError as exc:
        raise ChannelFileError(f"{source}: {exc}") from None


def load_channel_spec(path) -> ChannelSpec:
    """Load a channel-spec file from disk; see :func:`parse_channel_spec`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_channel_spec(fh.read(), source=str(path))
