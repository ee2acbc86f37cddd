"""Workload definitions: the CLI calls each workload makes, built from a seed.

Every call a workload can make comes from a fixed pool, and the reference
output of every pool entry is stored under ``bench/ref``.  The workload seed
chooses which pool entries run and in what order, so a seed always gives
the same inputs, any seed is covered by the stored references, and the
inputs stay independent of how fast the program runs.

Calls are grouped into rounds.  A run executes whole rounds until its time
is up; each round holds one entry of every size or kind the workload
mixes, so the work mix of a run does not depend on how many rounds fit.
Warm-up calls run once before the timed rounds; they are checked but not
timed.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Seed of the pools; the workload seed only selects and orders pool entries.
POOL_SEED = 20140324
COLD_SIZES = tuple(range(2, 17))
COLD_RATE_VARIANTS = 8
GAUSSIAN_SNR_DECADES = (-3, -2, -1, 0, 1, 2, 3)
GAUSSIAN_VARIANTS = 4
ENSEMBLE_VARIANTS = 16
MAX_ROUNDS = 400

ASYM = "channels/asym3x3.json"
BSC = "channels/bsc01.json"
BSC_CROSSOVER = 0.1
PLANE_ASYM = ("sweep", ASYM, "--r1-grid", "0:1.2:101",
              "--r2-fractions", "0:1:101")
PLANE_BSC = ("sweep", BSC, "--r1-grid", "0:1:41", "--r2-fractions", "0:1:41")


@dataclass(frozen=True)
class Call:
    """One ``cli.main`` invocation.

    ``key`` names the pool entry whose reference output the call must
    reproduce.  ``units`` is the work the call completes, in the workload's
    unit.  ``part`` labels the kind of call for the per-layer table, and
    ``fanout`` marks calls that run their work in child processes.
    ``channel`` holds a generated channel document that must be written to
    the path in ``argv`` before the call runs.
    """

    key: str
    argv: tuple[str, ...]
    units: int
    part: str
    fanout: bool = False
    channel: dict | None = field(default=None, compare=False)


# The work unit each workload's throughput counts.
UNITS = {"plane": "rate points", "cold": "queries", "ensemble": "trials",
         "gaussian": "rate pairs"}


# ---------------------------------------------------------------------------
# cold: generated channels
# ---------------------------------------------------------------------------

ROW_KINDS = ("dense", "sparse", "near_deterministic")
ROW_KIND_PROBS = (0.5, 0.3, 0.2)
ZERO_MASS_PROB = 0.15


def generate_channel(rng: np.random.Generator, nx: int, nz: int) -> dict:
    """A random channel document with nx inputs and nz outputs.

    Rows are dense Dirichlet draws, Dirichlet draws on a random support
    (structural zeros), or near-deterministic rows with one entry at
    1 - eps, eps log-uniform in [1e-6, 1e-2].  Each input independently has
    zero mass with probability ZERO_MASS_PROB, keeping at least one input
    with positive mass.
    """
    rows = []
    for _ in range(nx):
        kind = ROW_KINDS[rng.choice(len(ROW_KINDS), p=ROW_KIND_PROBS)]
        row = np.zeros(nz)
        if kind == "dense":
            row[:] = rng.dirichlet(np.ones(nz))
        elif kind == "sparse":
            k = int(rng.integers(1, nz + 1))
            support = rng.choice(nz, size=k, replace=False)
            row[support] = rng.dirichlet(np.ones(k))
        else:
            eps = 10.0 ** rng.uniform(-6.0, -2.0)
            top = int(rng.integers(nz))
            row[:] = eps * rng.dirichlet(np.ones(nz))
            row[top] += 1.0 - eps
        rows.append([float(v) for v in row / row.sum()])
    px = rng.dirichlet(np.ones(nx))
    px[rng.random(nx) < ZERO_MASS_PROB] = 0.0
    if not px.any():
        px[int(rng.integers(nx))] = 1.0
    px = px / px.sum()
    return {"input_dist": [float(v) for v in px], "wiretap": rows}


def entropy_nats(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _cold_call(size: int, rates: int, work_dir: str) -> Call:
    rng = np.random.default_rng([POOL_SEED, size, 0])
    doc = generate_channel(rng, size, size)
    scale = max(entropy_nats(doc["input_dist"]), 0.05)
    rng = np.random.default_rng([POOL_SEED, size, 0, rates])
    path = os.path.join(work_dir, f"cold_{size}.json")
    key = f"cold/{size}/{rates}"
    if rng.random() < 0.7:
        r1 = float(rng.uniform(0.02, 1.2) * scale)
        r2 = float(rng.uniform(0.0, 1.0) * r1)
        argv = ("exponent", path, "--r1", repr(r1), "--r2", repr(r2))
        return Call(key, argv, 1, "exponent", channel=doc)
    r1s = sorted(float(rng.uniform(0.02, 1.2) * scale) for _ in range(2))
    argv = ("region", path, "--r1-list", ",".join(repr(v) for v in r1s))
    return Call(key, argv, 1, "region", channel=doc)


def cold_pool(work_dir: str) -> list[Call]:
    return [_cold_call(s, r, work_dir)
            for s in COLD_SIZES for r in range(COLD_RATE_VARIANTS)]


def _cold_rounds(rng, work_dir):
    # Every round solves the same channel of each size.  The table build
    # dominates a cold call and its cost is heavy-tailed across channels (up
    # to 50x within one size), so drawing the channels per seed makes the
    # work of a 20 s run depend on the seed: from measured call times, its
    # quartiles over ten seeds lay 0.31 of the median apart.  The seed draws
    # the rate points, the call kind and the order.
    for _ in range(MAX_ROUNDS):
        yield [_cold_call(int(s), int(rng.integers(COLD_RATE_VARIANTS)),
                          work_dir)
               for s in rng.permutation(COLD_SIZES)]


# ---------------------------------------------------------------------------
# plane: fixed sweeps; the seed orders the two fan-out calls
# ---------------------------------------------------------------------------

# The --workers 1/2 pair is a warm-up, outside the timed rounds: the
# --workers 2 call keeps both cores of a 2-core machine busy, and its time
# depends on what else the host runs there.  The traced run times the pair
# (cli.fanout_speedup).

def _plane_calls():
    asym = Call("plane/asym", PLANE_ASYM, 101 * 101, "asym")
    w1 = Call("plane/bsc", PLANE_BSC + ("--workers", "1"), 41 * 41, "bsc_w1")
    w2 = Call("plane/bsc", PLANE_BSC + ("--workers", "2"), 41 * 41, "bsc_w2",
              fanout=True)
    return asym, w1, w2


def plane_pool(work_dir: str) -> list[Call]:
    asym, w1, _ = _plane_calls()
    return [asym, w1]


def _plane_warmup(rng):
    _, w1, w2 = _plane_calls()
    return [w1, w2] if rng.random() < 0.5 else [w2, w1]


def _plane_rounds(rng, work_dir):
    asym, _, _ = _plane_calls()
    for _ in range(MAX_ROUNDS):
        yield [asym]


# ---------------------------------------------------------------------------
# ensemble: three parts of simulate, the seed picks the simulation seeds
# ---------------------------------------------------------------------------

# Trials are set so that a call of each part takes about the same time;
# otherwise the median call sits between two parts and jumps with noise.
ENSEMBLE_PARTS = {
    # part: (channel, n, r1, r2, trials, extra flags)
    "binary": (BSC, 12, 0.69, 0.23, 32, ()),
    "general": (ASYM, 8, 0.6, 0.2, 5, ()),
    "sampled": (ASYM, 8, 0.6, 0.2, 240, ("--budget", "1000")),
}


def _ensemble_call(part: str, variant: int) -> Call:
    channel, n, r1, r2, trials, extra = ENSEMBLE_PARTS[part]
    sim_seed = POOL_SEED + variant
    argv = ("simulate", channel, "--n", str(n), "--r1", repr(r1),
            "--r2", repr(r2), "--trials", str(trials),
            "--seed", str(sim_seed)) + extra
    return Call(f"ensemble/{part}/{variant}", argv, trials, part)


def ensemble_pool(work_dir: str) -> list[Call]:
    return [_ensemble_call(p, v)
            for p in ENSEMBLE_PARTS for v in range(ENSEMBLE_VARIANTS)]


def _ensemble_rounds(rng, work_dir):
    parts = list(ENSEMBLE_PARTS)
    for _ in range(MAX_ROUNDS):
        order = rng.permutation(len(parts))
        yield [_ensemble_call(parts[i], int(rng.integers(ENSEMBLE_VARIANTS)))
               for i in order]


# ---------------------------------------------------------------------------
# gaussian: grid sweeps, one (S, sigma2) pair per SNR decade in each round
# ---------------------------------------------------------------------------

GAUSSIAN_GRID_STEPS = 10


def _gaussian_call(decade: int, variant: int) -> Call:
    rng = np.random.default_rng([POOL_SEED, 1000 + decade, variant])
    log_s = float(rng.uniform(-3.0, 3.0))
    log_snr = decade + float(rng.uniform(-0.5, 0.5))
    s = 10.0 ** log_s
    sigma2 = 10.0 ** (log_s - log_snr)
    cap = 0.5 * math.log1p(s / sigma2)
    top = 1.5 * cap
    steps = GAUSSIAN_GRID_STEPS
    grid = f"0:{top!r}:{steps}"
    argv = ("gaussian", "--power", repr(s), "--noise", repr(sigma2),
            "--r1-grid", grid, "--r2-grid", grid)
    return Call(f"gaussian/{decade}/{variant}", argv,
                steps * (steps + 1) // 2, f"snr1e{decade}")


def gaussian_pool(work_dir: str) -> list[Call]:
    return [_gaussian_call(d, v)
            for d in GAUSSIAN_SNR_DECADES for v in range(GAUSSIAN_VARIANTS)]


def _gaussian_rounds(rng, work_dir):
    for _ in range(MAX_ROUNDS):
        order = rng.permutation(GAUSSIAN_SNR_DECADES)
        yield [_gaussian_call(int(d), int(rng.integers(GAUSSIAN_VARIANTS)))
               for d in order]


POOLS = {"plane": plane_pool, "cold": cold_pool,
         "ensemble": ensemble_pool, "gaussian": gaussian_pool}
_ROUNDS = {"plane": _plane_rounds, "cold": _cold_rounds,
           "ensemble": _ensemble_rounds, "gaussian": _gaussian_rounds}


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([POOL_SEED, seed % (1 << 64)])


def warmup(workload: str, seed: int) -> list[Call]:
    """Calls ``workload`` makes once, untimed, before its timed rounds."""
    return _plane_warmup(_rng(seed)) if workload == "plane" else []


def rounds(workload: str, seed: int, work_dir: str):
    """Rounds of calls for ``workload`` under ``seed``, as a generator."""
    return _ROUNDS[workload](_rng(seed), work_dir)


def write_channel(call: Call) -> None:
    """Write the generated channel document a call reads, if it has one."""
    if call.channel is not None:
        with open(call.argv[1], "w", encoding="utf-8") as fh:
            json.dump(call.channel, fh)
