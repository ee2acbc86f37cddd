"""Correctness checks of CLI outputs.

Each output is compared with the stored reference output of its pool
entry, made by ``make_refs.py`` from the code the references were generated
at.  Values may move by TOL, enough for the last-digit changes of a new
minimizer and far below the gap between two branches; a branch or class
label may differ only where the reference itself is within TOL of a tie.
``pc_mean`` may move by PC_SIGMAS combined standard errors, so a change to
the codebook sampler's random stream still passes.

Where possible each output is also checked without the solver's code: the
BSC plane against ``bsc_exponent_closed_form``, E against the mutual
information I(X;Z) computed here (E = 0 when R1 <= I(X;Z)), and the
identities that tie the printed columns together.
"""
from __future__ import annotations

import gzip
import json
import math
import os

import numpy as np

TOL = 1e-6            # exponent-like values: |a - b| <= TOL * max(1, |b|)
ARG_TOL = 1e-4        # arguments of minimizers: multipliers, rho*, sigma_z*
BSC_TOL = 1e-5        # plane BSC rows against the closed form
PC_SIGMAS = 5.0       # pc_mean against the reference, in combined stderr
CLASSIFY_TOL = 1e-6   # the CLI's default --classify-tol

ARG_COLUMNS = {"lambda1", "lambda2", "rho_star", "sigma_z_star"}
EXACT_COLUMNS = {"n", "trials", "seed", "empty", "bracket_valid", "verified"}
BRANCHES = ("E1", "E2", "E3")
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")


def ref_path(workload: str) -> str:
    return os.path.join(REF_DIR, f"{workload}.json.gz")


def load_refs(workload: str) -> dict:
    with gzip.open(ref_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def parse_output(text: str) -> list[dict]:
    """Rows of a CSV output, or the single row of a key-value record."""
    lines = text.splitlines()
    if not lines:
        return []
    if "," not in lines[0] and " " in lines[0]:
        return [dict(line.split(" ", 1) for line in lines)]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def close(x: float, y: float, tol: float) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= tol * max(1.0, abs(y))


def _f(row: dict, col: str) -> float:
    return float(row[col])


def _branch_ok(ref: dict, label: str) -> bool:
    # any branch whose reference value ties the minimum within TOL
    return label in BRANCHES and _f(ref, label) <= _f(ref, "E") + TOL * max(
        1.0, abs(_f(ref, "E")))


def _near_class_threshold(ref: dict) -> bool:
    e, r = _f(ref, "E"), _f(ref, "R1") - _f(ref, "R2")
    return any(abs(d) <= TOL for d in
               (e - CLASSIFY_TOL, r - CLASSIFY_TOL, abs(e - r) - CLASSIFY_TOL))


def _pc_ok(ref: dict, row: dict) -> bool:
    se = math.hypot(_f(row, "pc_stderr"), _f(ref, "pc_stderr"))
    if se == 0.0:
        return close(_f(row, "pc_mean"), _f(ref, "pc_mean"), TOL)
    return abs(_f(row, "pc_mean") - _f(ref, "pc_mean")) <= PC_SIGMAS * se


def _cell_ok(col: str, ref: dict, row: dict) -> bool:
    if col == "branch":
        return _branch_ok(ref, row[col])
    if col == "class":
        return _near_class_threshold(ref)
    if col == "pc_mean":
        return _pc_ok(ref, row)
    if col in ("pc_stderr", "emp_exponent"):
        return True     # follow pc_mean; tied to it by check_simulate
    if col in EXACT_COLUMNS:
        return False
    try:
        x, y = float(row[col]), float(ref[col])
    except ValueError:
        return False
    return close(x, y, ARG_TOL if col in ARG_COLUMNS else TOL)


def compare_output(ref_text: str, text: str) -> list[str]:
    """Problems of ``text`` against the reference output; empty if none."""
    ref_rows, rows = parse_output(ref_text), parse_output(text)
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (ref, row) in enumerate(zip(ref_rows, rows)):
        if list(row) != list(ref):
            problems.append(f"row {i}: columns {list(row)}, reference "
                            f"{list(ref)}")
            continue
        for col in ref:
            if row[col] != ref[col] and not _cell_ok(col, ref, row):
                problems.append(f"row {i} {col}: {row[col]}, reference "
                                f"{ref[col]}")
        if len(problems) >= 5:
            break
    return problems


# ---------------------------------------------------------------------------
# checks that do not use the solver
# ---------------------------------------------------------------------------

def mutual_information(doc: dict) -> float:
    """I(X;Z) in nats of a channel document."""
    px = np.asarray(doc["input_dist"], dtype=float)
    w = np.asarray(doc["wiretap"], dtype=float)
    w = w / w.sum(axis=1, keepdims=True)
    pz = px @ w
    joint = px[:, None] * w
    mask = joint > 0
    ratio = w[mask] / np.broadcast_to(pz, w.shape)[mask]
    return float((joint[mask] * np.log(ratio)).sum())


def check_exponent_rows(rows: list[dict], i_xz) -> list[str]:
    """E = min(E1, E2, E3), 0 <= E <= R1 - R2, and E = 0 when R1 <= I(X;Z).

    ``i_xz`` maps a row to its I(X;Z).
    """
    problems = []
    for i, row in enumerate(rows):
        e, r1, r2 = _f(row, "E"), _f(row, "R1"), _f(row, "R2")
        if not close(e, min(_f(row, b) for b in BRANCHES), 1e-11):
            problems.append(f"row {i}: E is not the smallest branch")
        if not -TOL <= e <= r1 - r2 + TOL * max(1.0, r1):
            problems.append(f"row {i}: E = {e} outside [0, R1 - R2]")
        if r1 <= i_xz(row) - TOL and e > TOL:
            problems.append(f"row {i}: E = {e} > 0 at R1 <= I(X;Z)")
        if len(problems) >= 5:
            break
    return problems


def check_region_rows(rows: list[dict], i_p: float) -> list[str]:
    problems = []
    for i, row in enumerate(rows):
        if not close(_f(row, "i_p"), i_p, 1e-9):
            problems.append(f"row {i}: i_p = {row['i_p']}, I(X;Z) = {i_p!r}")
        if not close(_f(row, "upper"), _f(row, "R1"), 1e-11):
            problems.append(f"row {i}: upper differs from R1")
        if row["empty"] == "false" and not _f(row, "lower") < _f(row, "upper"):
            problems.append(f"row {i}: nonempty interval with lower >= upper")
    return problems


def check_simulate_rows(rows: list[dict]) -> list[str]:
    problems = []
    for i, row in enumerate(rows):
        pc, n = _f(row, "pc_mean"), int(row["n"])
        if not 0.0 < pc <= 1.0:
            problems.append(f"row {i}: pc_mean = {pc} outside (0, 1]")
        elif not close(_f(row, "emp_exponent"), -math.log(pc) / n, 1e-9):
            problems.append(f"row {i}: emp_exponent is not -ln(pc_mean)/n")
        if not _f(row, "pc_stderr") >= 0.0:
            problems.append(f"row {i}: negative pc_stderr")
    return problems


def gaussian_capacity(row: dict) -> float:
    return 0.5 * math.log1p(_f(row, "S") / _f(row, "sigma2"))


def independent_checks(argv, channel: dict | None, rows) -> list[str]:
    """Solver-free checks of one call's output rows."""
    command = argv[0]
    if command == "gaussian":
        return check_exponent_rows(rows, gaussian_capacity)
    if command == "simulate":
        return check_simulate_rows(rows)
    if channel is None:
        with open(argv[1], "r", encoding="utf-8") as fh:
            channel = json.load(fh)
    i_xz = mutual_information(channel)
    if command == "region":
        return check_region_rows(rows, i_xz)
    return check_exponent_rows(rows, lambda row: i_xz)


def check_bsc_closed_form(rows: list[dict], crossover: float,
                          sample=None) -> list[str]:
    """BSC sweep rows against the closed form at BSC_TOL.

    ``sample`` lists the row indices to check; all rows when None.  The
    closed form takes about 15 ms a row, so a run checks a sample and
    ``make_refs.py`` checks every row of the reference.
    """
    from wiretap_exponent import RatePair, bsc_exponent_closed_form
    problems = []
    for i in range(len(rows)) if sample is None else sample:
        row = rows[i]
        want = bsc_exponent_closed_form(
            crossover, RatePair(_f(row, "R1"), _f(row, "R2")))
        if not abs(_f(row, "E") - want) <= BSC_TOL:
            problems.append(f"row {i}: E = {row['E']}, closed form {want!r}")
            if len(problems) >= 5:
                break
    return problems
