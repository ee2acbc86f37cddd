"""Opt-in robustness scan over channels from the benchmark's generator.

    PYTHONPATH=src python tests/scan_generated.py [SEED ...]

For each seed (default 7 and 8) draws 120 channels with
``bench/workloads.generate_channel``, sizes nx, nz from ``integers(2, 9)``,
builds each solver's multiplier table and evaluates ``phi`` at 25 targets
from 0 to 1.05 * i_max.  Prints one line per failing channel and a
summary, and exits 1 if any channel raised ``SolverError``.  The summary
also counts the cached inner solves of the other channels whose certified
gap exceeds ``gap_tol`` (accepted by a stall rule) and names the worst of
them with its channel and s; those do not change the exit status.  The
last line, ``digest <sha256>``, hashes every channel's cached inner solves
in (seed, channel, s) order (``log_q`` bytes, ``f``, ``gap``,
``iterations``, ``extrapolations`` and ``fw_steps``) and every
``SolverError`` message, so equal digests from two versions of the solver
show that they solve all scanned channels byte for byte alike.  Takes
about a minute per seed, so it is kept out of the tier-1 suite (pytest
does not collect this file).
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import sys

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


def scan(seed: int, digest) -> tuple[int, list]:
    """Failures of one seed's channels, and (gap, channel, s) for every
    cached inner solve that certified only a gap above ``gap_tol``; feeds
    every solve and failure to the hash ``digest``."""
    failures, honest = 0, []
    for k, doc in generated(seed):
        channel = f"seed {seed} #{k} ({len(doc['wiretap'])}x" \
                  f"{len(doc['wiretap'][0])})"
        try:
            solver = ExponentSolver(parse_channel_spec(json.dumps(doc)))
            for t in np.linspace(0.0, 1.05 * solver.i_max, TARGETS):
                solver.phi(float(t))
        except SolverError as exc:
            failures += 1
            print(f"{channel}: {exc}")
            digest.update(f"{channel}: {exc}\n".encode())
            continue
        for s in sorted(solver._cache):
            sol = solver._cache[s]
            digest.update(sol.log_q.tobytes())
            digest.update(repr((channel, s, sol.f, sol.gap, sol.iterations,
                                sol.extrapolations, sol.fw_steps)).encode())
        honest += [(sol.gap, channel, sol.s) for sol in solver._cache.values()
                   if sol.gap > solver.gap_tol]
    return failures, honest


def main(argv) -> int:
    seeds = [int(a) for a in argv] or [7, 8]
    digest = hashlib.sha256()
    results = [scan(seed, digest) for seed in seeds]
    failures = sum(f for f, _ in results)
    above = [entry for _, honest in results for entry in honest]
    print(f"{failures} failures in {CHANNELS_PER_SEED * len(seeds)} channels")
    print(f"{len(above)} cached inner solves above gap_tol")
    if above:
        gap, channel, s = max(above)
        print(f"worst gap {gap:.3g} at {channel}, s = {s:.9g}")
    print(f"digest {digest.hexdigest()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
