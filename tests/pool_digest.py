"""Opt-in digest of every benchmark pool output.

    python tests/pool_digest.py [WORKLOAD ...]

Runs every pool call of the named benchmark workloads (default: plane,
cold, ensemble and gaussian, from ``bench/workloads.py``), plus the plane
warm-up's ``--workers 2`` sweep, through ``cli.main`` in-process, from the
repository root and with this checkout's ``src`` first on the path.  The
generated channels of the cold pool are written to a temporary directory,
so nothing under ``bench/`` changes.  Prints one ``key rc sha256`` line per
call, the sha256 of its stdout; after each workload's calls, ``digest
<workload> <sha256>`` over that workload's lines; and last ``digest
<sha256>`` over all call lines in order.  Two checkouts that print the same
digest give every pool call the same stdout and exit code, and the
per-workload lines show which workload's outputs differ when they do not.
A workload's own digest equals the last line of a run of that workload
alone.  Takes about 7 s for all four
workloads on a 2-CPU host, so it is kept out of the tier-1 suite (pytest
does not collect this file); ``test_pool_digest.py`` pins the digests of
the plane, cold and gaussian workloads, and leaves out the ensemble's,
which takes about 3 s.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

from wiretap_exponent import cli  # noqa: E402


def calls(names, work_dir: str):
    """(key, Call) for every pool call of the named workloads, each
    followed by its warm-up's fan-out calls (the plane's ``--workers 2``
    sweep), whose key gains the call's part."""
    for name in names:
        for call in workloads.POOLS[name](work_dir):
            yield call.key, call
        for call in workloads.warmup(name, 0):
            if call.fanout:
                yield f"{call.key}/{call.part}", call


def run(call) -> tuple[int, str]:
    """Exit code and stdout of one in-process ``cli.main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(call.argv))
    return rc, out.getvalue()


def line(key: str, rc: int, out: str) -> str:
    """The digest line of one call: its key, exit code and stdout's
    sha256."""
    return f"{key} {rc} {hashlib.sha256(out.encode()).hexdigest()}\n"


def main(argv) -> int:
    names = argv or list(workloads.POOLS)
    unknown = set(names) - set(workloads.POOLS)
    if unknown:
        print(f"unknown workloads {sorted(unknown)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work_dir:
        for name in names:
            part = hashlib.sha256()
            for key, call in calls([name], work_dir):
                workloads.write_channel(call)
                text = line(key, *run(call))
                print(text, end="", flush=True)
                part.update(text.encode())
                digest.update(text.encode())
            print(f"digest {name} {part.hexdigest()}", flush=True)
    print(f"digest {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
