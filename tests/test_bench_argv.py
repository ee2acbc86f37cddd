"""Every call the benchmark makes parses with the CLI's parser.

``bench/workloads.py`` builds the argv of each workload's pool calls and
warm-up calls; a flag that the CLI stops accepting would only show up as
benchmark calls that exit 2.  The module is loaded from its file,
unmodified.
"""
import pathlib
import sys

import pytest

from wiretap_exponent import cli

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def _rejected(calls) -> list:
    """Keys and argv of the calls the parser rejects."""
    bad = []
    for call in calls:
        try:
            cli.build_parser().parse_args(list(call.argv))
        except SystemExit:
            bad.append((call.key, call.argv))
    return bad


@pytest.mark.parametrize("workload", sorted(workloads.POOLS))
def test_pool_calls_parse(capsys, workload):
    calls = workloads.POOLS[workload]("")
    assert calls
    assert _rejected(calls) == [], capsys.readouterr().err


@pytest.mark.parametrize("workload", sorted(workloads.POOLS))
def test_warmup_calls_parse(capsys, workload):
    assert _rejected(workloads.warmup(workload, 0)) == [], \
        capsys.readouterr().err


def test_plane_warmup_passes_sweep_workers():
    # the one reason sweep still accepts --workers, which it ignores: once
    # the warm-up stops passing it, the flag can go
    calls = workloads.warmup("plane", 0)
    assert len(calls) == 2
    assert all(c.argv[0] == "sweep" and "--workers" in c.argv for c in calls)
