"""Tests of the benchmark's own logic.

    python3 -m pytest bench/tests
"""
from __future__ import annotations

import json
import math
import os
import pathlib
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import checks  # noqa: E402
import make_refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return {w: checks.load_refs(w) for w in workloads.UNITS}


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    assert run.tail(range(10)) is None
    assert run.tail(range(11)) == (0, 0.0)


def test_tail_is_highest_with_ten_beyond():
    xs = list(np.random.default_rng(0).permutation(100) * 0.5)
    value, pct = run.tail(xs)
    assert sum(x > value for x in xs) == 10
    assert value == 44.5
    assert pct == pytest.approx(100.0 * 89 / 99)


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------

def _edit(text: str, row: int, col: str, fn) -> str:
    """Apply ``fn`` to one cell of a CSV output or key-value record."""
    lines = text.splitlines()
    if "," not in lines[0]:
        i = next(k for k, line in enumerate(lines)
                 if line.split(" ", 1)[0] == col)
        key, value = lines[i].split(" ", 1)
        lines[i] = f"{key} {fn(value)}"
    else:
        j = lines[0].split(",").index(col)
        cells = lines[row + 1].split(",")
        cells[j] = fn(cells[j])
        lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _shift(delta):
    return lambda v: repr(float(v) + delta)


def _plane_row(ref_text, pred):
    rows = checks.parse_output(ref_text)
    return next(i for i, r in enumerate(rows) if pred(r))


def test_reference_matches_itself(refs):
    for doc in refs.values():
        for entry in doc["calls"].values():
            assert checks.compare_output(entry["stdout"], entry["stdout"]) == []


def test_perturbed_exponent_fails_and_last_digits_pass(refs):
    text = refs["plane"]["calls"]["plane/asym"]["stdout"]
    i = _plane_row(text, lambda r: r["class"] == "PARTIAL")
    assert checks.compare_output(text, _edit(text, i, "E", _shift(1e-4)))
    assert checks.compare_output(text, _edit(text, i, "E", _shift(1e-10))) == []


def test_wrong_branch_fails(refs):
    text = refs["plane"]["calls"]["plane/asym"]["stdout"]

    def clear_e2(r):
        return (r["branch"] == "E2"
                and float(r["E1"]) > float(r["E"]) + 1e-3)
    i = _plane_row(text, clear_e2)
    assert checks.compare_output(text, _edit(text, i, "branch",
                                             lambda v: "E1"))


def test_wrong_class_fails(refs):
    text = refs["plane"]["calls"]["plane/asym"]["stdout"]
    i = _plane_row(text, lambda r: r["class"] == "PARTIAL"
                   and float(r["E"]) > 1e-3)
    assert checks.compare_output(text, _edit(text, i, "class",
                                             lambda v: "ZERO"))


def test_missing_row_fails(refs):
    text = refs["plane"]["calls"]["plane/bsc"]["stdout"]
    assert checks.compare_output(text, "\n".join(text.splitlines()[:-1]))


def test_perturbed_record_fails(refs):
    entry = next(e for k, e in refs["cold"]["calls"].items()
                 if e["stdout"].startswith("R1 "))
    text = entry["stdout"]
    assert checks.compare_output(text, _edit(text, 0, "E2", _shift(1e-3)))


def test_pc_mean_within_stderr_passes_and_beyond_fails(refs):
    text = refs["ensemble"]["calls"]["ensemble/binary/0"]["stdout"]
    se = float(checks.parse_output(text)[0]["pc_stderr"])
    assert checks.compare_output(text, _edit(text, 0, "pc_mean",
                                             _shift(se))) == []
    assert checks.compare_output(text, _edit(text, 0, "pc_mean",
                                             _shift(10 * se)))


def test_failed_exit_code_counts_as_failure(refs):
    call = workloads.plane_pool(run.WORK_DIR)[0]
    ref = refs["plane"]["calls"][call.key]
    bad = run.Result(call, 3, 1.0, "", "error: did not converge\n")
    assert run._check_one(bad, ref, seed=1)


def test_independent_check_catches_positive_e_below_mutual_information():
    rows = [{"R1": "0.1", "R2": "0.05", "E": "0.01", "E1": "0.01",
             "E2": "inf", "E3": "0.02"}]
    assert checks.check_exponent_rows(rows, lambda r: 0.2)
    assert checks.check_exponent_rows(rows, lambda r: 0.05) == []


def test_mutual_information_of_bsc():
    doc = {"input_dist": [0.5, 0.5], "wiretap": [[0.9, 0.1], [0.1, 0.9]]}
    h = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert checks.mutual_information(doc) == pytest.approx(math.log(2) - h)


# ---------------------------------------------------------------------------
# cold channel generator
# ---------------------------------------------------------------------------

def _gen(seed, n=9):
    return workloads.generate_channel(np.random.default_rng(seed), n, n)


def test_generator_is_deterministic_for_a_seed():
    assert _gen(5) == _gen(5)
    assert _gen(5) != _gen(6)


def test_generated_channels_are_valid():
    for seed in range(50):
        doc = _gen(seed)
        w = np.asarray(doc["wiretap"])
        assert (w >= 0).all() and np.allclose(w.sum(axis=1), 1, atol=1e-12)
        px = np.asarray(doc["input_dist"])
        assert (px >= 0).all() and px.sum() == pytest.approx(1.0)


def test_cold_pool_mixes_the_degenerate_cases():
    docs = [c.channel for c in workloads.cold_pool(run.WORK_DIR)]
    rows = [r for d in docs for r in d["wiretap"]]
    assert any(0 in r for r in rows)                               # zeros
    assert any(1 - 1e-2 < max(r) < 1 and min(r) > 0 for r in rows)  # near-det
    assert any(0 in d["input_dist"] for d in docs)                 # no mass


def test_cold_pool_matches_the_references(refs):
    pool = workloads.cold_pool(run.WORK_DIR)
    assert make_refs.channels_sha256(pool) == refs["cold"]["channels_sha256"]


@pytest.mark.parametrize("workload", sorted(workloads.UNITS))
def test_rounds_depend_only_on_the_seed(workload, refs):
    def keys(seed):
        rounds = workloads.rounds(workload, seed, run.WORK_DIR)
        return [c.key for c in workloads.warmup(workload, seed)] + [
            c.key for _, rnd in zip(range(3), rounds) for c in rnd]
    assert keys(7) == keys(7)
    assert set(keys(7)) <= set(refs[workload]["calls"])


def test_plane_times_no_fanout_call():
    rounds = workloads.rounds("plane", 7, run.WORK_DIR)
    assert not any(c.fanout for _, rnd in zip(range(3), rounds) for c in rnd)
    assert sorted(c.part for c in workloads.warmup("plane", 7)) == [
        "bsc_w1", "bsc_w2"]


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_scale_maps_the_mean_sample_to_the_reference():
    ref = calibrate.REF_SAMPLE_S
    assert calibrate.scale([ref, ref]) == pytest.approx(1.0)
    assert calibrate.scale([ref, 3 * ref]) == pytest.approx(0.5)


def test_sampler_pins_while_inside_and_restores():
    cpus = os.sched_getaffinity(0)
    with calibrate.Sampler() as sampler:
        assert os.sched_getaffinity(0) == {min(cpus)}
    assert os.sched_getaffinity(0) == cpus
    assert sampler.scale(0.0, 1e9) > 0


def test_sampler_scales_by_the_samples_of_the_interval():
    sampler = calibrate.Sampler()
    ref = calibrate.REF_SAMPLE_S
    sampler.starts = [0.1 * i for i in range(40)]
    sampler.samples = [ref] * 20 + [2 * ref] * 20
    assert sampler.scale(0.0, 1.9) == pytest.approx(1.0)
    assert sampler.scale(2.0, 3.9) == pytest.approx(0.5)
    # a short interval takes the MIN_SAMPLES nearest samples
    assert sampler.scale(0.5, 0.5) == pytest.approx(1.0)
    assert sampler.scale(3.95, 3.95) == pytest.approx(0.5)
    assert sampler.scale(1.95, 1.95) == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# BENCHMARK.json names the metrics the run prints
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    call = workloads.plane_pool(run.WORK_DIR)[0]
    result = run.Result(call, 0, 1.0, "R1,E\n0,0\n", "", [])
    sampler = calibrate.Sampler()
    sampler.starts, sampler.samples = [0.0], [calibrate.REF_SAMPLE_S]
    e2e, _ = run.end_to_end([result], sampler, [(0.0, 0.5)], 80.0)
    layers = run.per_layer([call], [result], [result], tracing.Tracer(), 0.5)
    for section, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        assert [m["name"] for m in spec[section]] == list(metrics)
        assert [m["unit"] for m in spec[section]] == [
            u for _, u in metrics.values()]
