"""zenofloquet benchmark: seeded closed-loop workloads, one client, in process.

One run measures one workload (see ``BENCHMARK.json`` for the workloads and
metrics)::

    python3 bench/run.py --workload chart --seed 1 --seconds 20 --trace 0

It times ``SETUP_PROBES`` fresh interpreters that import zenofloquet and run
one minimal warm-up op (``setup_s``), each followed by one that imports only
numpy and scipy.linalg (``setup_ref`` is the ratio of their medians), runs the
warm-up in process, then runs ops back to back for ``--seconds`` and checks
every output.  With ``--trace 0`` it reports the end-to-end metrics.  The
gated latency and throughput measure each op's time in units of a fixed
pure-Python loop (``reference_s``) timed right after it, because on a shared
host the machine's speed drifts by about 20% over minutes; the wall-clock
``latency_p50_s`` and ``rows_per_s`` are printed beside them.  With
``--trace 1`` it runs each input twice, once with the layer spans of
``spans.py`` installed and once without, alternating which goes first, and
reports the per-layer metrics, including the tracing overhead.  The last line of standard output is a JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it,
``detail: {...}``, holds per-op latencies, the output digest and the machine.

``--report`` runs every workload ``--runs`` times (seeds ``--seed``,
``--seed`` + 1, ...) in child processes and prints each metric's median
over the runs, the latency tail pooled over them, and one JSON summary line.

Nothing in the environment is changed: ZF_THREADS and the BLAS thread
variables are used as found and recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: Pairs of fresh interpreters (set-up, reference import) timed per run.
SETUP_PROBES = 6
#: Ops whose outputs feed the reported digest, so that runs of one seed that
#: complete different numbers of ops report the same digest.
DIGEST_OPS = 3
#: Reference loops timed after each op, by workload (default 1); their median
#: is the op's reference.  A single loop is noisier than an op of a second or
#: more, so the long-op workloads take more, for about 3% of the op's time.
REFERENCE_LOOPS = {"chart": 3, "zeno": 5}
#: Metrics printed beside the gated ones, with their units.
REPORTED_UNITS = {"latency_p50_s": "s", "rows_per_s": "1/s", "reference_s": "s",
                  "failed_frac": "frac"}
#: Percentiles tried, highest first, for the reported latency tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def latency_tail(latencies):
    """(percentile, value) of the highest percentile with ten ops beyond it."""
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            return p, statistics.quantiles(ordered, n=1000, method="inclusive")[
                round(p * 10) - 1]
    return None


def machine():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "ZF_THREADS": os.environ.get("ZF_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Tally:
    """Ops attempted, failed, their latencies, output rows and digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rows = 0
        self.latencies = []
        self.digest = hashlib.sha256()

    def op(self, workload, params, workdir):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = workload.run(params, workdir)
        except Exception:  # a crashing op is a failed op; keep measuring
            self.latencies.append(time.perf_counter() - start)
            self.failed += 1
            print(f"op {self.attempted} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        self.latencies.append(time.perf_counter() - start)
        if self.attempted <= DIGEST_OPS:
            self.digest.update(result.output)
        try:
            verdict = workload.check(params, result)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            verdict = None
            reason = f"unreadable output: {exc!r}"
        else:
            reason = verdict.reason
            self.rows += verdict.rows
        if verdict is None or not verdict.ok:
            self.failed += 1
            print(f"op {self.attempted} failed its check: {reason} ({params})",
                  file=sys.stderr)


def reference_s():
    """Seconds taken by a fixed pure-Python loop that touches nothing of the program.

    On a shared host the machine's effective speed wanders by about 20% over
    seconds to minutes, for this loop and for the ops alike; an op's time
    divided by this loop's time, taken right after the op, cancels that drift.
    """
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return time.perf_counter() - start


def setup_probe(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), *args],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_untraced(wl, seed, seconds, workdir):
    """Ops back to back for ``seconds``, the reference loop timed after each."""
    tally, references = Tally(), []
    loops = REFERENCE_LOOPS.get(wl.name, 1)
    deadline = time.perf_counter() + seconds
    for params in wl.inputs(seed):
        tally.op(wl, params, workdir)
        references.append(statistics.median(reference_s() for _ in range(loops)))
        if time.perf_counter() >= deadline:
            return tally, references


def run_traced(wl, seed, seconds, workdir, tracer):
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    for index, params in enumerate(wl.inputs(seed)):
        for use_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            if not use_tracer:
                plain.op(wl, params, workdir)
                continue
            tracer.install()
            try:
                traced.op(wl, params, workdir)
            finally:
                tracer.remove()
        if time.perf_counter() >= deadline:
            return plain, traced


def measure(name, seed, seconds, trace):
    """Run one workload; returns (correct, attempted, failed, metrics, detail)."""
    import spans
    import workloads
    from zenofloquet import cli, floquet, fock, gaussian

    wl = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        probes = [] if trace else [(setup_probe(name, workdir), setup_probe("--reference"))
                                   for _ in range(SETUP_PROBES)]
        setup = [s for s, _ in probes]
        references = []
        wl.warm_up(workdir)
        if trace:
            tracer = spans.Tracer(spans.layer_targets(floquet, gaussian, fock, cli))
            tally, traced = run_traced(wl, seed, seconds, workdir, tracer)
            metrics = spans.layer_metrics(tracer, traced.latencies, tally.latencies)
            attempted = tally.attempted + traced.attempted
            failed = tally.failed + traced.failed
        else:
            tally, references = run_untraced(wl, seed, seconds, workdir)
            # each op's time in units of the reference timed right after it
            scaled = [op / ref for op, ref in zip(tally.latencies, references)]
            metrics = {
                "setup_s": statistics.median(setup),
                # the host's speed at reading and linking modules shifts by up
                # to 40% over minutes, which the pure-Python loop does not
                # track; importing the program's libraries does
                "setup_ref": statistics.median(setup) / statistics.median(r for _, r in probes),
                "latency_p50_ref": statistics.median(scaled),
                "rows_per_ref": tally.rows / sum(scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "latency_p50_s": statistics.median(tally.latencies),
                "rows_per_s": tally.rows / sum(tally.latencies),
                "reference_s": statistics.median(references),
            }
            attempted, failed = tally.attempted, tally.failed
    metrics["failed_frac"] = failed / attempted
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "metrics": metrics, "latencies_s": tally.latencies, "references_s": references,
        "setup_probes_s": setup,
        "setup_references_s": [r for _, r in probes],
        "digest": f"sha256:{tally.digest.hexdigest()}",
        "digest_ops": min(tally.attempted, DIGEST_OPS),
        "machine": machine(),
    }
    return failed == 0, attempted, failed, metrics, detail


def _fmt(value):
    return f"{value:.6g}"


def _units(trace):
    section = SPEC["per_layer" if trace else "end_to_end"]
    return {s["name"]: s["unit"] for s in section} | REPORTED_UNITS


def _metric_line(name, value, unit, latencies, pooled=""):
    line = f"  {name:<36} {_fmt(value):>12} {unit}"
    if name == "latency_p50_s":
        tail = latency_tail(latencies)
        line += (f"   p{tail[0]:g} {_fmt(tail[1])} s (n={len(latencies)} ops{pooled})"
                 if tail else
                 f"   no percentile has ten ops beyond it (n={len(latencies)} ops{pooled})")
    return line


def print_run(name, correct, attempted, failed, metrics, detail, trace):
    section = SPEC["per_layer" if trace else "end_to_end"]
    print(f"workload {name}  seed {detail['seed']}  seconds {detail['seconds']}  "
          f"trace {trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in detail["machine"].items()))
    for metric, unit in _units(trace).items():
        if metric in metrics:
            print(_metric_line(metric, metrics[metric], unit, detail["latencies_s"]))
    print(f"  {failed} of {attempted} ops failed; digest of the first "
          f"{detail['digest_ops']} op outputs: {detail['digest']}")
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
                    for s in section},
    }))


def report(seed, runs, seconds, trace):
    """Run every workload ``runs`` times in child processes and summarise."""
    summary = {}
    for name in WORKLOAD_NAMES:
        results = []
        for r in range(runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed + r), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=seconds * 4 + 170, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} seed {seed + r}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            detail = json.loads(lines[-2].removeprefix("detail: "))
            results.append((json.loads(lines[-1]), detail))
        pooled = [x for _, d in results for x in d["latencies_s"]]
        attempted = sum(res["attempted"] for res, _ in results)
        failed = sum(res["failed"] for res, _ in results)
        units = _units(trace)
        medians = {n: statistics.median(d["metrics"][n] for _, d in results)
                   for n in units if n in results[0][1]["metrics"]}
        tail = latency_tail(pooled)
        summary[name] = {
            "medians": medians, "attempted": attempted, "failed": failed,
            "latency_tail": {"percentile": tail[0], "value_s": tail[1]} if tail else None,
            "ops_pooled": len(pooled),
            "digests": {d["seed"]: d["digest"] for _, d in results},
            "machine": results[0][1]["machine"],
        }
        print(f"{name}: {runs} runs, {attempted} ops, {failed} failed")
        for n, value in medians.items():
            print(_metric_line(n, value, units[n], pooled, ", pooled over runs"))
        for s, digest in summary[name]["digests"].items():
            print(f"  seed {s} digest {digest}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in
                                 summary[WORKLOAD_NAMES[0]]["machine"].items()))
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload --runs times and summarise")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.report == (args.workload is not None):
        parser.error("give exactly one of --workload and --report")
    sys.path.insert(0, str(BENCH))
    try:
        import workloads  # noqa: F401  (locates and imports zenofloquet)
    except ImportError as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.report:
        return report(args.seed, args.runs, args.seconds, args.trace)
    correct, attempted, failed, metrics, detail = measure(
        args.workload, args.seed, args.seconds, args.trace)
    print_run(args.workload, correct, attempted, failed, metrics, detail, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
