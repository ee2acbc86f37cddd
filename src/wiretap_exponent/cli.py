"""Batch command-line front end.

Subcommands: ``exponent`` (one rate pair, key-value record), ``sweep``
(rate-plane CSV with region classification), ``region`` (full-security
intervals per R1), ``gaussian`` (record or CSV sweep), ``simulate``
(finite-n ensemble estimate), ``check`` (validate a channel file and run
the degradedness check).

Each subcommand takes only the flags it reads, and no prefix of one.  Rates
are nats by default; ``--bits`` (all but ``check``) converts rate-like
quantities on both input and output.  All numeric output uses 12 significant
digits and is byte-identical across runs for identical inputs, including
seeds and worker counts.  Exit status: 0 success, 2 input validation, 3
solver non-convergence, 4 enumeration budget exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import simulate as sim
from .channels import DEFAULT_DEGRADED_TOL, check_degraded, load_channel_spec
from .errors import BudgetExceededError, ChannelFileError, SolverError
from .exponent import (DEFAULT_GAP_TOL, DEFAULT_MAX_ITER, ExponentSolver,
                       RatePair)
from .gaussian import GaussianSpec, gaussian_exponent, gaussian_grid
from .security import (DEFAULT_CLASSIFY_TOL, classify_exponent, compute_qstar,
                       full_security_interval)

LN2 = math.log(2.0)

#: every setting: its default, its lower limit and whether the limit itself
#: is allowed; a setting with an integer default takes whole numbers only
_SETTINGS = {
    "gap_tol": (DEFAULT_GAP_TOL, 0, False),
    "max_iter": (DEFAULT_MAX_ITER, 1, True),
    "classify_tol": (DEFAULT_CLASSIFY_TOL, 0, True),
    "z_budget": (sim.DEFAULT_Z_BUDGET, 1, True),
    "codebook_budget": (sim.DEFAULT_CODEBOOK_BUDGET, 1, True),
    "z_samples": (sim.DEFAULT_Z_SAMPLES, 1, True),
    "workers": (1, 1, True),
    "degraded_tol": (DEFAULT_DEGRADED_TOL, 0, True),
}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _settings(args) -> dict:
    """Every setting, validated and typed: flags over config file over
    defaults."""
    given = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ChannelFileError(f"{args.config}: line {exc.lineno}, "
                                       f"column {exc.colno}: {exc.msg}")
        if not isinstance(loaded, dict):
            raise ChannelFileError(
                f"config file {args.config}: top level must be an object")
        unknown = set(loaded) - set(_SETTINGS)
        if unknown:
            raise ChannelFileError(
                f"config file {args.config}: unknown keys {sorted(unknown)}")
        given.update(loaded)
    cfg = {}
    for key, (default, low, inclusive) in _SETTINGS.items():
        val = getattr(args, key, None)
        if val is None:
            val = given.get(key, default)
        # every setting is numeric; bool is an int subclass but no number here
        try:
            ok = (not isinstance(val, bool) and isinstance(val, (int, float))
                  and math.isfinite(val))
        except OverflowError:                 # an int beyond any float
            ok = False
        if not ok:
            raise ChannelFileError(
                f"setting {key} must be a finite number, got {val!r}")
        if isinstance(default, int) and val != int(val):
            raise ChannelFileError(
                f"setting {key} must be an integer, got {val!r}")
        if val < low or (val == low and not inclusive):
            raise ChannelFileError(
                f"setting {key} must be "
                f"{'at least' if inclusive else 'greater than'} {low}, "
                f"got {val!r}")
        cfg[key] = type(default)(val)
    return cfg


def _solver_kwargs(cfg) -> dict:
    return {key: cfg[key] for key in ("gap_tol", "max_iter")}


def _parse_grid(text: str, what: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ChannelFileError(f"{what} must be MIN:MAX:STEPS, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ChannelFileError(f"{what}: cannot parse {text!r}") from None
    # finite only when MIN and MAX both are; NaN would also pass hi < lo
    if not math.isfinite(hi - lo):
        raise ChannelFileError(
            f"{what}: MIN, MAX and MAX - MIN must be finite, got {text!r}")
    # rates and R2 fractions alike: a negative MIN is in every nonempty grid
    if lo < 0:
        raise ChannelFileError(
            f"{what}: MIN must be nonnegative, got {text!r}")
    if steps < 0 or hi < lo:
        raise ChannelFileError(f"{what}: empty or inverted grid {text!r}")
    try:
        return np.linspace(lo, hi, steps) if steps else np.array([])
    except MemoryError:
        raise ChannelFileError(f"{what}: too many steps in {text!r}") from None


def _emit(lines: list[str], output: str | None, skipped: int = 0) -> None:
    # one join, the trailing newline included: no second copy of the text
    text = "\n".join(lines + [""])
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if skipped:
        print(f"skipped {skipped} grid points with R2 > R1", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_exponent(args) -> int:
    cfg = _settings(args)
    unit = LN2 if args.bits else 1.0
    spec = load_channel_spec(args.channel)
    rates = RatePair(args.r1 * unit, args.r2 * unit)
    solver = ExponentSolver(spec, **_solver_kwargs(cfg))
    res = solver.solve(rates)
    lines = [
        f"R1 {_fmt(rates.r1 / unit)}",
        f"R2 {_fmt(rates.r2 / unit)}",
        f"E {_fmt(res.e / unit)}",
        f"E1 {_fmt(res.e1 / unit)}",
        f"E2 {_fmt(res.e2 / unit)}",
        f"E3 {_fmt(res.e3 / unit)}",
        f"branch {res.active_branch}",
        f"rep2 {_fmt(res.rep2_value / unit)}",
        f"lambda1 {_fmt(res.lambda1)}",
        f"lambda2 {_fmt(res.lambda2)}",
        f"rep_discrepancy {_fmt((res.e - res.rep2_value) / unit)}",
    ]
    _emit(lines, args.output)
    if res.gap_bound > 2.0 * cfg["gap_tol"]:
        print(f"warning: E rests on a sandwich {res.gap_bound:.3g} nats "
              f"wide, wider than 2*gap_tol = {2.0 * cfg['gap_tol']:.3g}",
              file=sys.stderr)
    return 0


_SWEEP_COLUMNS = ("R1", "R2", "E", "E1", "E2", "E3", "branch", "class")


def _sweep_rows(spec, r1_values, r2_mode, cfg,
                unit: float = 1.0) -> tuple[list, int, list]:
    """The values of _SWEEP_COLUMNS at each rate pair of the grid, rates
    and exponents divided by unit, the number of pairs with R2 > R1, and
    the sandwich widths behind E (nats) that exceed 2 gap_tol."""
    # always in-process: the rows share one solver's table and phi memo, and
    # splitting them over a process pool was slower on every plane measured
    # (41x41 to 201x201) because each worker rebuilt both
    solver = ExponentSolver(spec, **_solver_kwargs(cfg))
    tol, limit = cfg["classify_tol"], 2.0 * solver.gap_tol
    kind, r2_values = r2_mode
    rows, skipped, wide = [], 0, []
    for r1 in r1_values.tolist():
        r2s = (r2_values * r1 if kind == "fractions" else r2_values).tolist()
        for r2 in r2s:
            if r2 > r1:
                skipped += 1
                continue
            rates = RatePair(r1, r2)
            e, e1, e2, e3, branch, _, width = solver._branches(rates)
            rows.append((r1 / unit, r2 / unit, e / unit, e1 / unit, e2 / unit,
                         e3 / unit, branch, classify_exponent(e, rates, tol)))
            if width > limit:
                wide.append(width)
    return rows, skipped, wide


def _cmd_sweep(args) -> int:
    cfg = _settings(args)
    unit = LN2 if args.bits else 1.0
    spec = load_channel_spec(args.channel)
    r1_values = _parse_grid(args.r1_grid, "--r1-grid") * unit
    if (args.r2_grid is None) == (args.r2_fractions is None):
        raise ChannelFileError("exactly one of --r2-grid / --r2-fractions required")
    if args.r2_grid is not None:
        r2_mode = ("grid", _parse_grid(args.r2_grid, "--r2-grid") * unit)
    else:
        frac = _parse_grid(args.r2_fractions, "--r2-fractions")
        if frac.size and frac.max() > 1:
            raise ChannelFileError("--r2-fractions must lie in [0, 1]")
        r2_mode = ("fractions", frac)

    columns = _SWEEP_COLUMNS
    if args.columns:
        columns = tuple(c.strip() for c in args.columns.split(","))
        bad = set(columns) - set(_SWEEP_COLUMNS)
        if bad:
            raise ChannelFileError(f"unknown sweep columns {sorted(bad)}")

    rows, skipped, wide = _sweep_rows(spec, r1_values, r2_mode, cfg, unit)

    # one %-format per row, floats as _fmt prints them
    fmt = ",".join("%s" if c in ("branch", "class") else "%.12g"
                   for c in columns)
    at = [_SWEEP_COLUMNS.index(c) for c in columns]
    lines = [",".join(columns)]
    lines += [fmt % tuple([row[i] for i in at]) for row in rows]
    _emit(lines, args.output, skipped)
    if wide:
        print(f"warning: {len(wide)} of {len(rows)} rows rest on a sandwich "
              f"wider than 2*gap_tol = {2.0 * cfg['gap_tol']:.3g}; the "
              f"widest is {max(wide):.3g} nats", file=sys.stderr)
    return 0


def _cmd_region(args) -> int:
    cfg = _settings(args)
    unit = LN2 if args.bits else 1.0
    spec = load_channel_spec(args.channel)
    r1s = [float(t) * unit for t in args.r1_list.split(",")]
    solver = ExponentSolver(spec, **_solver_kwargs(cfg))
    analysis = compute_qstar(solver)
    lines = [",".join(("R1", "lower", "upper", "empty", "bracket_lower",
                       "bracket_upper", "bracket_valid", "i_qstar", "d_qstar",
                       "i_p", "verified"))]
    for r1 in r1s:
        iv = full_security_interval(solver, r1, tol=cfg["classify_tol"])
        lines.append(",".join((
            _fmt(r1 / unit), _fmt(iv.lower / unit), _fmt(iv.upper / unit),
            _fmt(iv.empty), _fmt(iv.bracket_lower / unit),
            _fmt(iv.bracket_upper / unit), _fmt(iv.bracket_valid),
            _fmt(analysis.i_qstar / unit), _fmt(analysis.d_qstar / unit),
            _fmt(analysis.i_p / unit), _fmt(iv.verified))))
    _emit(lines, args.output)
    return 0


_GAUSSIAN_COLUMNS = ("S", "sigma2", "R1", "R2", "E", "E1", "E2", "E3",
                     "rho_star", "sigma_z_star", "branch")
# the %-format of a CSV row, which a sweep prints field by field, and of a
# record; floats as _fmt prints them
_GAUSSIAN_ROW = ",".join("%s" if c == "branch" else "%.12g"
                         for c in _GAUSSIAN_COLUMNS)
_GAUSSIAN_RECORD = "\n".join(
    f"{c} {f}" for c, f in zip(_GAUSSIAN_COLUMNS, _GAUSSIAN_ROW.split(",")))


def _cmd_gaussian(args) -> int:
    unit = LN2 if args.bits else 1.0
    g = GaussianSpec(args.power, args.noise)
    if args.r1_grid or args.r2_grid:
        if (not (args.r1_grid and args.r2_grid)
                or args.r1 is not None or args.r2 is not None):
            raise ChannelFileError("sweep mode needs both --r1-grid and "
                                   "--r2-grid, and neither --r1 nor --r2")
        r1s = (_parse_grid(args.r1_grid, "--r1-grid") * unit).tolist()
        r2s = (_parse_grid(args.r2_grid, "--r2-grid") * unit).tolist()
        # in-process: the grid costs one closed form per rate value, far
        # less than starting and feeding a process pool
        rows, skipped = gaussian_grid(g, r1s, r2s)
        # _GAUSSIAN_ROW's fields, each formatted once per value it repeats
        # for: rows run R1-outer, E2 and E3 rest on R1 alone and sigma_z*
        # on rho* alone, so a pair formats only E and E1.  R1 and R2 go by
        # the grid's own float objects, which every row reuses: a value key
        # would merge 0.0 with -0.0, which print apart
        head = "%.12g,%.12g," % (g.s, g.sigma2)
        r2_text = {id(r2): "%.12g," % (r2 / unit) for r2 in r2s}
        rho_text = {}
        block = None
        lines = [",".join(_GAUSSIAN_COLUMNS)]
        for r1, r2, e, e1, e2, e3, rho, sz, branch in rows:
            if r1 is not block:
                block = r1
                r1_field = "%s%.12g," % (head, r1 / unit)
                e23_fields = ",%.12g,%.12g," % (e2 / unit, e3 / unit)
            if rho not in rho_text:
                rho_text[rho] = "%.12g,%.12g," % (rho, sz)
            lines.append("%s%s%.12g,%.12g%s%s%s" % (
                r1_field, r2_text[id(r2)], e / unit, e1 / unit, e23_fields,
                rho_text[rho], branch))
        _emit(lines, args.output, skipped)
        return 0
    if args.r1 is None or args.r2 is None:
        raise ChannelFileError("need --r1/--r2 or --r1-grid/--r2-grid")
    rates = RatePair(args.r1 * unit, args.r2 * unit)
    opt = gaussian_exponent(g, rates)
    _emit([_GAUSSIAN_RECORD % (
        g.s, g.sigma2, rates.r1 / unit, rates.r2 / unit, opt.e / unit,
        opt.e1 / unit, opt.e2 / unit, opt.e3 / unit, opt.rho_star,
        opt.sigma_z_star, opt.active_branch)], args.output)
    return 0


def _fan_out(worker, count: int, workers: int) -> list:
    """worker(lo, hi) over contiguous chunks [lo, hi) of range(count).

    One chunk per worker, at most one per item and per usable CPU; with more
    than one chunk each runs in its own process.  Results keep chunk order.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n = min(workers, count, cpus)
    chunks = [(count * k // n, count * (k + 1) // n) for k in range(n)]
    if len(chunks) <= 1:
        return [worker(lo, hi) for lo, hi in chunks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return list(pool.map(worker, *zip(*chunks)))


def _simulate_trials(es, cfg, lo, hi):
    return sim.per_trial_pc(es, budget=cfg["z_budget"],
                            z_samples=cfg["z_samples"],
                            codebook_budget=cfg["codebook_budget"],
                            trial_range=(lo, hi))


def _cmd_simulate(args) -> int:
    cfg = _settings(args)
    unit = LN2 if args.bits else 1.0
    spec = load_channel_spec(args.channel)
    rates = RatePair(args.r1 * unit, args.r2 * unit)
    comp = sim.quantize_composition(spec.input_dist.probs, args.n)
    es = sim.EnsembleSpec(n=args.n, rates=rates, p_x_type=comp,
                          channel=spec.wiretap, trials=args.trials,
                          seed=args.seed)
    parts = _fan_out(functools.partial(_simulate_trials, es, cfg),
                     args.trials, cfg["workers"])
    result = sim.summarize_trials(es, [pc for part in parts for pc in part],
                                  budget=cfg["z_budget"])
    solver = ExponentSolver(spec, **_solver_kwargs(cfg))
    asymptotic = solver.exponent_rep1(rates).e
    lines = [",".join(("n", "R1_req", "R2_req", "R1_real", "R2_real", "trials",
                       "pc_mean", "pc_stderr", "emp_exponent", "seed",
                       "E_asymptotic"))]
    lines.append(",".join((
        str(es.n), _fmt(rates.r1 / unit), _fmt(rates.r2 / unit),
        _fmt(es.realized_r1 / unit), _fmt(es.realized_r2 / unit),
        str(result.trials_used), _fmt(result.pc_mean),
        _fmt(result.pc_std_err), _fmt(result.empirical_exponent / unit),
        str(es.seed), _fmt(asymptotic / unit))))
    _emit(lines, args.output)
    return 0


def _cmd_check(args) -> int:
    cfg = _settings(args)
    spec = load_channel_spec(args.channel)
    lines = [f"channel file ok: |X| = {spec.input_dist.size}, "
             f"|Z| = {spec.wiretap.num_outputs}" +
             (f", |Y| = {spec.main.num_outputs}" if spec.main else "")]
    if spec.main is None:
        lines.append("no main channel given; degradedness check skipped")
    else:
        res = check_degraded(spec.main, spec.wiretap, tol=cfg["degraded_tol"])
        lines.append(f"degraded: {'yes' if res.is_degraded else 'no'} "
                     f"(residual {_fmt(res.residual)})")
        if not res.is_degraded:
            print("warning: wiretap channel is not a degraded version of the "
                  "main channel; exponent computations remain valid",
                  file=sys.stderr)
    _emit(lines, args.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bits", action="store_true",
                   help="rates given and reported in bits instead of nats")
    p.add_argument("--config", help="JSON file with solver settings")
    p.add_argument("--output", help="write to file instead of stdout")
    p.add_argument("--gap-tol", dest="gap_tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)


class _SubcommandParser(argparse.ArgumentParser):
    """Reports an argument it does not take under its own usage line, which
    argparse would leave to the top-level one that lists only subcommands."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


# built once per process: parsing leaves the tree unchanged, and in-process
# callers (tests, the bench, library users) would otherwise pay the six
# subcommands' construction on every `main` call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiretap-exponent",
        description="Correct-decoding exponents of the wiretap channel "
                    "decoder and the associated rate regions.")
    # no subcommand reads a prefix of a flag as the flag
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(_SubcommandParser, allow_abbrev=False))

    p = sub.add_parser("exponent", help="exponent at one rate pair")
    p.add_argument("channel")
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("sweep", help="rate-plane sweep to CSV")
    p.add_argument("channel")
    p.add_argument("--r1-grid", required=True, metavar="MIN:MAX:STEPS")
    p.add_argument("--r2-grid", metavar="MIN:MAX:STEPS")
    p.add_argument("--r2-fractions", metavar="MIN:MAX:STEPS",
                   help="R2 as fractions of each R1")
    p.add_argument("--columns", help="comma-separated column selection")
    p.add_argument("--classify-tol", dest="classify_tol", type=float)
    # accepted and ignored: the benchmark's plane warm-up still passes it
    p.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("region", help="full-security intervals per R1")
    p.add_argument("channel")
    p.add_argument("--r1-list", required=True,
                   help="comma-separated R1 values")
    p.add_argument("--classify-tol", dest="classify_tol", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("gaussian", help="Gaussian-channel exponent")
    p.add_argument("--power", "-S", type=float, required=True)
    p.add_argument("--noise", type=float, required=True, metavar="SIGMA2")
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float)
    p.add_argument("--r1-grid", metavar="MIN:MAX:STEPS")
    p.add_argument("--r2-grid", metavar="MIN:MAX:STEPS")
    p.add_argument("--bits", action="store_true",
                   help="rates given and reported in bits instead of nats")
    p.add_argument("--output", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_gaussian)

    p = sub.add_parser("simulate", help="finite-n ensemble estimate")
    p.add_argument("channel")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", dest="z_budget", type=int,
                   help="cap on |Z|^n for exact enumeration")
    p.add_argument("--z-samples", dest="z_samples", type=int,
                   help="per-trial output samples when beyond the budget")
    p.add_argument("--workers", type=int, help="processes for the trials")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check", help="validate a channel file")
    p.add_argument("channel")
    p.add_argument("--tol", dest="degraded_tol", type=float)
    p.add_argument("--config", help="JSON file with solver settings")
    p.add_argument("--output", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ChannelFileError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
