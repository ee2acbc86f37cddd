"""Benchmark of the wiretap-exponent command line.

Run from the repository root:

    python3 bench/run.py --workload plane --seed 1 --seconds 20 --trace 0

One process runs one workload.  It imports the package from ``src``, times
``wiretap_exponent.cli.main(argv)`` called in-process, closed loop (one call
after another, one client), and checks every output (see ``checks.py``).
The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name each
metric with its unit, sample count and the machine.

With ``--trace 0`` the run makes its warm-up calls untimed, then repeats
whole rounds of its workload (see ``workloads.py``) until ``--seconds``
have passed and reports the end-to-end metrics.  The set-up launches and
the timed calls run pinned to one CPU while a thread samples that CPU's
speed (see ``calibrate.py``).  Each time is scaled to the reference speed
by the samples taken while it ran, so that a slow stretch of the shared
host does not read as a slow program; the unscaled figures are printed
beside them.  With
``--trace 1`` it runs its warm-up calls and a fixed number of rounds
twice, call by call, once plain and once with spans around each layer (see
``tracing.py``), and reports the per-layer metrics and the tracing
overhead; the spans are written to ``.bench_work``.  Work done in the child
processes of a ``--workers 2`` call is not in the spans.

Generated channel files, spans and other run files go to ``.bench_work``
under the repository root.  ``baseline.py`` runs every workload over
several seeds and reports the spread of each metric; ``make_refs.py``
regenerates the reference outputs; ``python3 -m pytest bench/tests`` tests
the benchmark itself.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import calibrate
import checks
import tracing
import workloads
from workloads import Call

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = ".bench_work"
SETUP_LAUNCHES = 5
TAIL_BEYOND = 10
BSC_SAMPLE_ROWS = 48
TRACE_ROUNDS = {"plane": 3, "cold": 1, "ensemble": 6, "gaussian": 3}
READY = "import sys, wiretap_exponent; sys.stdout.write('r'); sys.stdout.flush()"


@dataclass
class Result:
    call: Call
    rc: int
    seconds: float
    stdout: str
    stderr: str
    problems: list | None = None
    start: float = 0.0


def run_call(cli, call: Call) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(call.argv))
        except Exception:      # a traceback is a failed call, not a crash
            traceback.print_exc()
            rc = -1
    return Result(call, rc, perf_counter() - start, out.getvalue(),
                  err.getvalue(), start=start)


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def setup_seconds() -> float:
    """Wall time from launching an interpreter to ``wiretap_exponent`` ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE) as proc:
        ready = proc.stdout.read(1)
        elapsed = perf_counter() - start
        proc.stdout.read()
    if ready != b"r" or proc.returncode != 0:
        raise RuntimeError("set-up launch did not import wiretap_exponent")
    return elapsed


def tail(values, beyond: int = TAIL_BEYOND):
    """Highest percentile of ``values`` with at least ``beyond`` samples after it.

    Returns (value, percentile) for the order statistic of 0-based index
    n - 1 - beyond, or None when there are not beyond + 1 samples.
    """
    xs = sorted(values)
    k = len(xs) - 1 - beyond
    if k < 0:
        return None
    return xs[k], 100.0 * k / max(1, len(xs) - 1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo",
                                            encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_results(results: list[Result], workload: str, seed: int) -> int:
    """Set ``problems`` on every result; an empty list means it passed.

    Returns how many outputs are byte-identical to their reference.
    """
    refs = checks.load_refs(workload)["calls"]
    done: dict = {}
    for r in results:
        memo = (r.call.key, r.rc, r.stdout)
        if memo not in done:
            done[memo] = _check_one(r, refs.get(r.call.key), seed)
        r.problems = list(done[memo])
    bsc = [r for r in results if r.call.part.startswith("bsc_")]
    for r in bsc[1:]:
        if r.stdout != bsc[0].stdout:
            r.problems.append("output depends on the worker count")
    return sum(r.stdout == refs.get(r.call.key, {}).get("stdout")
               for r in results)


def _check_one(r: Result, ref: dict | None, seed: int) -> list[str]:
    if ref is None:
        return [f"no reference output for {r.call.key}"]
    if r.rc != ref["rc"]:
        last = r.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {r.rc}, reference {ref['rc']}: {last[0]}"]
    problems = checks.compare_output(ref["stdout"], r.stdout)
    rows = checks.parse_output(r.stdout)
    problems += checks.independent_checks(r.call.argv, r.call.channel, rows)
    if r.call.part.startswith("bsc_") and rows:
        rng = np.random.default_rng([workloads.POOL_SEED, seed % (1 << 64)])
        sample = rng.choice(len(rows), size=min(BSC_SAMPLE_ROWS, len(rows)),
                            replace=False)
        problems += checks.check_bsc_closed_form(
            rows, workloads.BSC_CROSSOVER, sorted(int(i) for i in sample))
    return problems


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def timed_loop(cli, workload: str, seed: int, seconds: float):
    """Whole rounds of calls until ``seconds`` have passed."""
    results = []
    start = perf_counter()
    for rnd in workloads.rounds(workload, seed, WORK_DIR):
        for call in rnd:
            results.append(run_call(cli, call))
        if perf_counter() - start >= seconds:
            break
    return results


def traced_loop(cli, workload: str, seed: int):
    """Each call of TRACE_ROUNDS rounds, once plain and once traced.

    The two runs of a call alternate which goes first, so warm-up favours
    neither side of the overhead figure.
    """
    rounds = workloads.rounds(workload, seed, WORK_DIR)
    calls = workloads.warmup(workload, seed) + [
        c for rnd in itertools.islice(rounds, TRACE_ROUNDS[workload])
        for c in rnd]
    tracer = tracing.Tracer()
    plain, traced = [], []
    for i, call in enumerate(calls):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                plain.append(run_call(cli, call))
                continue
            tracer.install(i)
            try:
                traced.append(run_call(cli, call))
            finally:
                tracer.uninstall()
    return calls, plain, traced, tracer


def end_to_end(results, sampler, setups, rss_mb) -> tuple[dict, dict]:
    """End-to-end metrics; times are scaled to the reference speed.

    ``setups`` holds (start, seconds) of each set-up launch.  ``throughput``
    counts the work of the calls that passed their checks over the summed
    scaled time of all timed calls.  The tail percentile is printed,
    unscaled, but not reported: over the few dozen calls of a run it
    measures the host's slow stretches, not the program.
    """
    ok = [r for r in results if not r.problems]
    units = sum(r.call.units for r in ok)
    busy = sum(r.seconds for r in results)
    times = [r.seconds * 1e3 for r in results]
    scaled = [r.seconds * sampler.scale(r.start, r.start + r.seconds)
              for r in results]
    launches = [s for _, s in setups]
    metrics = {
        "throughput": (units / sum(scaled), "1/s"),
        "call_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "setup_s": (statistics.median(
            s * sampler.scale(t, t + s) for t, s in setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    k = calibrate.scale(sampler.samples)
    note = (f"{len(sampler.samples)} speed samples took "
            f"{calibrate.REF_SAMPLE_S / k * 1e3:.3f} ms on average, "
            f"reference {calibrate.REF_SAMPLE_S * 1e3:g} ms")
    notes = {
        "throughput": f"{units} {{unit}} in {busy:.3f} s of timed calls "
                      f"({units / busy:.6g} unscaled)",
        "call_p50_ms": f"median of {len(times)} calls "
                       f"({statistics.median(times):.6g} unscaled)",
        "setup_s": f"median of {len(setups)} launches, unscaled: "
                   + ", ".join(f"{s:.3f}" for s in launches),
        "peak_rss_mb": "peak resident memory of this process",
    }
    t = tail(times)
    if t is None:
        notes["call_tail_ms"] = (f"{max(times):.6g} ms unscaled, the slowest "
                                 f"of {len(times)} calls; not reported")
    else:
        notes["call_tail_ms"] = (f"{t[0]:.6g} ms unscaled, p{t[1]:.1f} of "
                                 f"{len(times)} calls; not reported")
    notes["scale"] = note
    return metrics, notes


def per_layer(calls, plain, traced, tracer, import_s) -> dict:
    spans = tracer.spans
    inproc = tracing.summarize(spans, lambda i: not calls[i].fanout)

    def layer(name, part=None):
        if part is None:
            return inproc.get(name, tracing.Layer())
        by_part = tracing.summarize(spans, lambda i: calls[i].part == part)
        return by_part.get(name, tracing.Layer())

    rows = sum(len(checks.parse_output(r.stdout))
               for r in traced if not r.call.fanout)
    rep1 = layer("exponent.rep1")
    seconds = {r.call.part: r.seconds for r in plain}
    fanout = (seconds["bsc_w1"] / seconds["bsc_w2"]
              if "bsc_w2" in seconds else 0.0)
    overhead = (sum(r.seconds for r in traced if not r.call.fanout)
                / sum(r.seconds for r in plain if not r.call.fanout) - 1.0)
    return {
        "channels.load.calls": (layer("channels.load").calls, "count"),
        "channels.load.busy_s": (layer("channels.load").busy_s, "s"),
        "exponent.table_build.calls": (
            layer("exponent.table_build").calls, "count"),
        "exponent.table_build.busy_s": (
            layer("exponent.table_build").busy_s, "s"),
        "exponent.table_build.p50_ms": (
            layer("exponent.table_build").p50() * 1e3, "ms"),
        "exponent.rep1.calls": (rep1.calls, "count"),
        "exponent.rep1.busy_s": (rep1.busy_s, "s"),
        "exponent.rep1_per_row": (rep1.calls / rows if rows else 0.0,
                                  "ratio"),
        "exponent.phi.calls": (layer("exponent.phi").calls, "count"),
        "exponent.phi.busy_s": (layer("exponent.phi").busy_s, "s"),
        "exponent.rep2.busy_s": (layer("exponent.rep2").busy_s, "s"),
        "security.classify.calls": (layer("security.classify").calls,
                                    "count"),
        "security.classify.busy_s": (layer("security.classify").busy_s, "s"),
        "security.classify.self_s": (layer("security.classify").self_s, "s"),
        "security.interval.busy_s": (layer("security.interval").busy_s, "s"),
        "security.qstar.busy_s": (layer("security.qstar").busy_s, "s"),
        "gaussian.exponent.calls": (layer("gaussian.exponent").calls,
                                    "count"),
        "gaussian.exponent.busy_s": (layer("gaussian.exponent").busy_s, "s"),
        "gaussian.exponent.p50_us": (
            layer("gaussian.exponent").p50() * 1e6, "us"),
        "simulate.sample_codebook.calls": (
            layer("simulate.sample_codebook").calls, "count"),
        "simulate.sample_codebook.busy_s": (
            layer("simulate.sample_codebook").busy_s, "s"),
        "simulate.exact_pc_binary.busy_s": (
            layer("simulate.exact_pc", "binary").busy_s, "s"),
        "simulate.exact_pc_general.busy_s": (
            layer("simulate.exact_pc", "general").busy_s, "s"),
        "simulate.sampled_pc.busy_s": (
            layer("simulate.per_trial_pc", "sampled").self_s, "s"),
        "cli.self_s": (layer("cli.main").self_s, "s"),
        "cli.fanout_speedup": (fanout, "ratio"),
        "process.import_s": (import_s, "s"),
        "trace.overhead": (overhead, "ratio"),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(
        workloads.UNITS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "wiretap_exponent", "cli.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = perf_counter()
    from wiretap_exponent import cli
    import_s = perf_counter() - start

    os.makedirs(WORK_DIR, exist_ok=True)
    for call in workloads.POOLS[args.workload](WORK_DIR):
        workloads.write_channel(call)
    work_unit = workloads.UNITS[args.workload]

    if args.trace:
        calls, plain, traced, tracer = traced_loop(cli, args.workload,
                                                   args.seed)
        spans_path = os.path.join(
            WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans_path)
        results = plain + traced
        identical = check_results(results, args.workload, args.seed)
        metrics, notes = per_layer(calls, plain, traced, tracer,
                                   import_s), {}
    else:
        warm = [run_call(cli, call)
                for call in workloads.warmup(args.workload, args.seed)]
        with calibrate.Sampler() as sampler:
            setups = [(perf_counter(), setup_seconds())
                      for _ in range(SETUP_LAUNCHES)]
            timed = timed_loop(cli, args.workload, args.seed, args.seconds)
        rss_mb = peak_rss_mb()
        results = warm + timed
        identical = check_results(results, args.workload, args.seed)
        metrics, notes = end_to_end(timed, sampler, setups, rss_mb)
    failed = [r for r in results if r.problems]

    info = machine()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    print(f"workload {args.workload}; seed {args.seed}; closed loop, one "
          f"client; {len(results)} calls")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "").format(unit=work_unit)
        print(f"  {name:34s} {value:<14.6g} {unit:6s} {note}")
    for name in ("call_tail_ms", "scale"):
        if name in notes:
            print(f"  {name:34s} {notes[name]}")
    print(f"  {'fail_frac':34s} {len(failed) / len(results):<14.6g} "
          f"{'ratio':6s} {len(failed)} of {len(results)} calls failed")
    print(f"  {'identical_frac':34s} {identical / len(results):<14.6g} "
          f"{'ratio':6s} {identical} of {len(results)} outputs "
          f"byte-identical to the reference")
    if args.trace:
        print(f"spans: {spans_path} ({len(tracer.spans)} spans; calls "
              f"with --workers 2 have none from their child processes)")
    for r in failed[:10]:
        print(f"failed {r.call.key} {' '.join(r.call.argv)}: "
              f"{'; '.join(r.problems[:3])}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
