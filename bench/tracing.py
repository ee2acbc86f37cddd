"""Per-layer spans, recorded from outside the package.

While installed, the tracer replaces the public functions of each package
module, and the methods of ``ExponentSolver``, with wrappers that record a
span: name, start, end, the span that was open when it started, and the
index of the ``cli.main`` call it belongs to.  A function that another
module imported by name (``cli`` imports ``classify_rate_point`` and
``gaussian_exponent``, for instance) is replaced in that module as well.

Spans stay in memory until the run writes them out.  Work done in the
child processes of a ``--workers 2`` call is not captured: the children
record spans into their own copy of the tracer, which is discarded.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

PACKAGE = "wiretap_exponent"

# (module, attribute path, span name)
TARGETS = (
    ("channels", "load_channel_spec", "channels.load"),
    ("exponent", "ExponentSolver.__init__", "exponent.table_build"),
    ("exponent", "ExponentSolver.exponent_rep1", "exponent.rep1"),
    ("exponent", "ExponentSolver.exponent_rep2", "exponent.rep2"),
    ("exponent", "ExponentSolver.phi", "exponent.phi"),
    ("exponent", "ExponentSolver.solve", "exponent.solve"),
    ("security", "classify_rate_point", "security.classify"),
    ("security", "full_security_interval", "security.interval"),
    ("security", "compute_qstar", "security.qstar"),
    ("gaussian", "gaussian_exponent", "gaussian.exponent"),
    ("simulate", "sample_codebook", "simulate.sample_codebook"),
    ("simulate", "exact_pc_for_codebook", "simulate.exact_pc"),
    ("simulate", "per_trial_pc", "simulate.per_trial_pc"),
    ("simulate", "estimate_ensemble_pc", "simulate.estimate"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, call)
        self.call = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.call)
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, call: int) -> None:
        self.call = call
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module, path, span in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, call) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "call": call}) + "\n")


class Layer:
    """Call count, busy time and self time of one span name."""

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []

    def p50(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


def summarize(spans, keep=lambda call: True) -> dict[str, Layer]:
    """Per-name totals over the spans whose call satisfies ``keep``.

    Busy time counts a span only when no enclosing span has the same name;
    self time is a span's duration minus that of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, call in spans:
        if parent >= 0:
            child[parent] += end - start
    layers: dict[str, Layer] = {}
    for sid, (name, start, end, parent, call) in enumerate(spans):
        if not keep(call):
            continue
        layer = layers.setdefault(name, Layer())
        dur = end - start
        layer.calls += 1
        layer.durations.append(dur)
        layer.self_s += dur - child[sid]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            layer.busy_s += dur
    return layers
