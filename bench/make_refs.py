"""Regenerate the reference outputs under ``bench/ref``.

Run from the repository root, at a commit whose outputs are trusted:

    python3 bench/make_refs.py [workload ...]

Runs every pool entry of each workload (all four by default) once through
``cli.main`` and stores its exit code and stdout, gzipped.  Before writing,
every reference must pass the solver-free checks, and every row of the BSC
plane must match ``bsc_exponent_closed_form``; the script refuses to write
references that fail.  Refreshing the references changes what the
benchmark accepts as correct, so a change that does it says why.
"""
from __future__ import annotations

import gzip
import hashlib
import json
import os
import sys

import checks
import run
import workloads


def channels_sha256(pool) -> str:
    """Digest of the generated channel documents of a pool."""
    h = hashlib.sha256()
    for call in pool:
        if call.channel is not None:
            h.update(json.dumps(call.channel, sort_keys=True).encode())
    return h.hexdigest()


def main(argv) -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    from wiretap_exponent import cli
    os.makedirs(run.WORK_DIR, exist_ok=True)
    names = argv or sorted(workloads.UNITS)
    for name in names:
        pool = workloads.POOLS[name](run.WORK_DIR)
        calls, bad = {}, []
        for call in pool:
            workloads.write_channel(call)
            r = run.run_call(cli, call)
            rows = checks.parse_output(r.stdout)
            problems = [] if r.rc == 0 else [f"exit code {r.rc}"]
            problems += checks.independent_checks(call.argv, call.channel,
                                                  rows)
            if call.part.startswith("bsc_"):
                problems += checks.check_bsc_closed_form(
                    rows, workloads.BSC_CROSSOVER)
            if problems:
                bad.append(f"{call.key}: {'; '.join(problems[:3])}")
            calls[call.key] = {"rc": r.rc, "stdout": r.stdout}
        if bad:
            print(f"{name}: {len(bad)} references fail their checks:",
                  *bad, sep="\n  ", file=sys.stderr)
            return 1
        doc = {"machine": run.machine(), "channels_sha256":
               channels_sha256(pool), "calls": calls}
        with gzip.GzipFile(checks.ref_path(name), "wb", mtime=0) as fh:
            fh.write(json.dumps(doc, sort_keys=True).encode())
        print(f"{name}: {len(calls)} references written")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
