"""Span timing around zenofloquet's layer entry points, from outside the program.

A :class:`Tracer` replaces module (and class) attributes with timing
wrappers, so callers that look the function up on its module at call time,
as ``cli`` does for ``floquet``, ``gaussian`` and ``fock``, are timed too.
Spans are aggregated per name in memory: call count, total time and self
time, where self time is the span's time minus the time of wrapped calls
made inside it.  Hooks add counts read from a span's return value.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregated spans of wrapped calls; ``install``/``remove`` the wrappers."""

    def __init__(self, targets):
        """``targets``: (span name, owner, attribute name, hook or None).

        A hook is called as ``hook(counts, args, kwargs, result)`` after the
        wrapped call returns.
        """
        self.targets = list(targets)
        self.spans = {name: SpanStats() for name, *_ in self.targets}
        self.counts = Counter()
        self._children = []  # time spent in wrapped calls, one entry per open span
        self._originals = []

    def wrap(self, name, fn, hook=None):
        stats = self.spans.setdefault(name, SpanStats())
        children, clock, counts = self._children, time.perf_counter, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr, hook in self.targets:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, hook))
            else:
                wrapped = self.wrap(name, original, hook)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def remove(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


# --- zenofloquet's layer boundaries ------------------------------------------

def _count_evolve(counts, args, kwargs, traj):
    counts["gaussian.evolve.periods"] += traj.periods_completed
    counts["gaussian.evolve.diverged"] += traj.diverged


def _count_propagate(counts, args, kwargs, traj):
    counts["fock.propagate.periods"] += traj.periods_completed
    counts["fock.propagate.ok"] += traj.status == "ok"


def _count_scan(counts, args, kwargs, points):
    counts["fock.zeno_scan.points"] += len(points)
    counts["fock.zeno_scan.point_periods"] += sum(p.periods_run for p in points)
    counts["fock.zeno_scan.determinate"] += sum(p.outcome != "indeterminate"
                                               for p in points)


def _count_rows(counts, args, kwargs, result):
    counts["cli.rows"] += len(result[1])


def _count_output(counts, args, kwargs, code):
    argv = args[0] if args else kwargs["argv"]
    if "--out" in argv:
        counts["cli.output_bytes"] += os.path.getsize(argv[argv.index("--out") + 1])


def layer_targets(floquet, gaussian, fock, cli):
    """The spans the benchmark records, one per layer entry point."""
    return [
        ("floquet.schedule", floquet.DriveSchedule, "from_products", None),
        ("floquet.monodromy", floquet, "monodromy", None),
        ("floquet.classify", floquet, "classify", None),
        ("gaussian.period_map", gaussian, "two_mode_period_symplectic", None),
        ("gaussian.evolve", gaussian, "evolve", _count_evolve),
        ("fock.propagate", fock, "propagate", _count_propagate),
        ("fock.zeno_scan", fock, "zeno_threshold_scan", _count_scan),
        ("cli.main", cli, "main", _count_output),
        ("cli.run_sweep", cli, "run_sweep", _count_rows),
        ("cli.run_simulate", cli, "run_simulate", _count_rows),
    ]


def layer_metrics(tracer, traced_s, untraced_s):
    """Per-op layer metrics from op times with and without the tracer.

    ``traced_s[i]`` and ``untraced_s[i]`` time the same input back to back.
    Counts and self times are means per traced op; rates and fractions are
    over the whole traced run; the tracing overhead is the median per-input
    ratio of traced to untraced time, minus 1.
    """
    spans, counts = tracer.spans, tracer.counts
    ops, traced_wall_s = len(traced_s), sum(traced_s)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, stats in spans.items():
        out[f"{name}.calls"] = stats.calls / ops
        out[f"{name}.self_s"] = stats.self_s / ops
    for key in ("gaussian.evolve.periods", "gaussian.evolve.diverged",
                "fock.propagate.periods", "fock.zeno_scan.points",
                "fock.zeno_scan.point_periods", "cli.rows", "cli.output_bytes"):
        out[key] = counts[key] / ops
    out["gaussian.evolve.periods_per_s"] = ratio(
        counts["gaussian.evolve.periods"], spans["gaussian.evolve"].self_s)
    out["fock.propagate.periods_per_s"] = ratio(
        counts["fock.propagate.periods"], spans["fock.propagate"].self_s)
    out["fock.propagate.safe_frac"] = ratio(
        counts["fock.propagate.ok"], spans["fock.propagate"].calls)
    out["fock.zeno_scan.point_periods_per_s"] = ratio(
        counts["fock.zeno_scan.point_periods"], spans["fock.zeno_scan"].self_s)
    out["fock.zeno_scan.determinate_frac"] = ratio(
        counts["fock.zeno_scan.determinate"], counts["fock.zeno_scan.points"])
    for layer in ("floquet", "gaussian", "fock", "cli"):
        self_s = sum(s.self_s for n, s in spans.items() if n.startswith(layer + "."))
        out[f"{layer}.self_frac"] = ratio(self_s, traced_wall_s)
    out["trace.overhead_frac"] = statistics.median(
        t / u for t, u in zip(traced_s, untraced_s)) - 1.0
    return out
