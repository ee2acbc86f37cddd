"""Opt-in robustness scan over channels from the benchmark's generator.

    PYTHONPATH=src python tests/scan_generated.py [SEED ...]

For each seed (default 7 and 8) draws 120 channels with
``bench/workloads.generate_channel``, sizes nx, nz from ``integers(2, 9)``,
builds each solver's multiplier table and evaluates ``phi`` at 25 targets
from 0 to 1.05 * i_max and at the targets i_max - 10^-e, e = 1...9, just
below i_max.  Prints one line per failing channel and a summary.  The
summary also counts the cached inner solves of the other
channels whose certified gap exceeds ``gap_tol`` and names each of them,
worst first, with its channel and s.  Exits 1 if any channel raised
``SolverError`` or any cached solve's gap exceeds ``gap_tol``.  It then
prints the p50, p99 and max Newton steps of the cached solves in each
s-band: s = 0 (summed over its continuation levels), s in (0, 1) and
s > 1.  Then come the p50 and max of the new inner solves each ``phi``
target takes (table builds aside), the widest certified sandwich width
behind a ``phi`` value, with its channel and target, and the number of
fallbacks: targets whose sandwich stayed wider than 2 gap_tol.  Then come
the p50 and max of the halving levels each channel built below the
multiplier table, and of those the s = 0 solve built on its walk down
them, with both totals.  Then come the p50, p99 and max wall time of the
table builds (the solver constructions) of each seed, with the channel of
the slowest.  The
last line, ``digest <sha256>``, hashes every channel's cached inner solves
in (seed, channel, s) order (``log_q`` bytes, ``f``, ``gap`` and
``iterations``) and every ``SolverError`` message, so equal digests from
two versions of the solver show that they solve all scanned channels byte
for byte alike.  Takes about ten seconds per seed, so it is kept out of
the tier-1 suite (pytest does not collect this file).
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

from workloads import generate_channel  # noqa: E402

from wiretap_exponent import ExponentSolver, SolverError  # noqa: E402
from wiretap_exponent.channels import parse_channel_spec  # noqa: E402

CHANNELS_PER_SEED = 120
TARGETS = 25


def generated(seed: int):
    """(index, channel document) for every channel of one seed's scan."""
    rng = np.random.default_rng(seed)
    for k in range(CHANNELS_PER_SEED):
        nx, nz = (int(v) for v in rng.integers(2, 9, size=2))
        yield k, generate_channel(rng, nx, nz)


BANDS = (("s = 0", lambda s: s == 0.0),
         ("s in (0, 1)", lambda s: 0.0 < s < 1.0),
         ("s > 1", lambda s: s > 1.0))


def targets(solver) -> list[float]:
    """The ``phi`` targets of one channel: a grid over [0, 1.05 i_max] and
    i_max - 10^-e for e = 1...9."""
    grid = np.linspace(0.0, 1.05 * solver.i_max, TARGETS)
    near = solver.i_max - 10.0 ** -np.arange(1.0, 10.0)
    return [float(t) for t in (*grid, *near)]


def _levels(solver) -> int:
    """The halving levels built so far below the table's s > 0 entries."""
    return len(solver._ladder) - 64


def scan(seed: int, digest) -> tuple[int, list, list, list, list, list,
                                     list]:
    """Failures of one seed's channels, (gap, channel, s) for every cached
    inner solve that certified only a gap above ``gap_tol``, (s,
    iterations) for every cached solve, (wall time, channel) of every
    table build, the new inner solves of every ``phi`` target, (width,
    channel, target, fallback) of every ``phi`` sandwich and (levels,
    levels built by the s = 0 solve) of every channel; feeds every solve
    and failure to the hash ``digest``."""
    failures, honest, counts, builds, solves, widths, levels = \
        0, [], [], [], [], [], []
    for k, doc in generated(seed):
        channel = f"seed {seed} #{k} ({len(doc['wiretap'])}x" \
                  f"{len(doc['wiretap'][0])})"
        spec = parse_channel_spec(json.dumps(doc))
        try:
            start = time.perf_counter()
            solver = ExponentSolver(spec)
            builds.append((time.perf_counter() - start, channel))
            zero = _levels(solver)
            for t in targets(solver):
                before = len(solver._cache)
                solver.phi(t)
                solves.append(len(solver._cache) - before)
        except SolverError as exc:
            failures += 1
            print(f"{channel}: {exc}")
            digest.update(f"{channel}: {exc}\n".encode())
            continue
        for s in sorted(solver._cache):
            sol = solver._cache[s]
            digest.update(sol.log_q.tobytes())
            digest.update(repr((channel, s, sol.f, sol.gap,
                                sol.iterations)).encode())
        honest += [(sol.gap, channel, sol.s) for sol in solver._cache.values()
                   if sol.gap > solver.gap_tol]
        counts += [(sol.s, sol.iterations) for sol in solver._cache.values()]
        widths += [(width, channel, t, width > 2.0 * solver.gap_tol)
                   for t, (_, _, width) in solver._phi_cache.items()]
        levels.append((_levels(solver), zero))
    return failures, honest, counts, builds, solves, widths, levels


def main(argv) -> int:
    seeds = [int(a) for a in argv] or [7, 8]
    digest = hashlib.sha256()
    results = [scan(seed, digest) for seed in seeds]
    failures = sum(r[0] for r in results)
    above = [entry for r in results for entry in r[1]]
    counts = [entry for r in results for entry in r[2]]
    solves = np.array([n for r in results for n in r[4]])
    widths = [entry for r in results for entry in r[5]]
    levels = np.array([entry for r in results for entry in r[6]])
    print(f"{failures} failures in {CHANNELS_PER_SEED * len(seeds)} channels")
    print(f"{len(above)} cached inner solves above gap_tol")
    for gap, channel, s in sorted(above, reverse=True):
        print(f"gap {gap:.3g} at {channel}, s = {s:.9g}")
    for band, within in BANDS:
        its = np.array([n for s, n in counts if within(s)])
        if its.size:
            p50, p99 = np.percentile(its, [50, 99], method="lower")
            print(f"{band}: {its.size} solves, Newton steps p50 {p50} "
                  f"p99 {p99} max {its.max()}")
    if solves.size:
        print(f"phi: {solves.size} targets, new inner solves per target "
              f"p50 {int(np.percentile(solves, 50, method='lower'))} "
              f"max {solves.max()}")
    if widths:
        width, channel, t, _ = max(widths)
        print(f"widest sandwich {width:.3g} at {channel}, I = {t:.9g}; "
              f"{sum(entry[3] for entry in widths)} fallbacks")
    if levels.size:
        (p50, p50_zero), (top, top_zero) = \
            np.percentile(levels, 50, axis=0, method="lower"), levels.max(0)
        total, zero = levels.sum(axis=0)
        print(f"halving levels per channel p50 {p50} max {top}; built by "
              f"the s = 0 solve p50 {p50_zero} max {top_zero} ({zero} of "
              f"{total} levels)")
    for seed, (_, _, _, builds, *_) in zip(seeds, results):
        if builds:
            ms = 1e3 * np.array([t for t, _ in builds])
            p50, p99 = np.percentile(ms, [50, 99], method="lower")
            slowest = builds[int(ms.argmax())][1]
            print(f"seed {seed}: {ms.size} table builds, wall ms p50 "
                  f"{p50:.1f} p99 {p99:.1f} max {ms.max():.1f} ({slowest})")
    print(f"digest {digest.hexdigest()}")
    return 1 if failures or above else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
