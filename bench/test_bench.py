"""Tests of the benchmark itself: inputs, checks, span accounting, clean-up.

Run with ``python3 -m pytest bench``.
"""

import itertools
import json
import types

import pytest

import run
import spans
import workloads
from zenofloquet import cli, floquet, fock, gaussian


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]

    def first(seed):
        return list(itertools.islice(wl.inputs(seed), 8))

    assert first(7) == first(7)
    assert first(7) != first(8)


def _trajectory_last_n_total_shifted(output):
    payload = json.loads(output)
    payload["rows"][-1]["n_total"] = payload["rows"][-1]["n_total"] * 1.001 + 1e-3
    return json.dumps(payload).encode()


def _trajectory_last_n_total_scaled(output):
    payload = json.loads(output)
    payload["rows"][-1]["n_total"] *= 1.0 + 1e-5
    return json.dumps(payload).encode()


#: A stable drive that ends 5000 periods with only ~0.018 photons.
FEW_PHOTONS = {"gamma_tau1": 0.1043956668799613, "omega_tau2": 1.5735239146463975,
               "stable": True}


def _oracle_delta_broken(output):
    lines = output.decode().splitlines()
    header = next(line for line in lines if not line.startswith("#")).split(",")
    col = header.index("delta_n_a")
    cells = lines[-1].split(",")
    cells[col] = "0.001"
    return "\n".join(lines[:-1] + [",".join(cells)]).encode()


def _chart_classification_flipped(output):
    text = output.decode()
    return text.replace(",stable,", ",unstable,", 1).encode()


class SmallChart(workloads.Chart):
    steps = 5


class Corrupted:
    """Runs ``base``'s op and passes a corrupted copy of its output on."""

    def __init__(self, base, corrupt):
        self.base, self.corrupt = base, corrupt

    def run(self, params, workdir):
        result = self.base.run(params, workdir)
        return workloads.Result(result.code, self.corrupt(result.output))

    def check(self, params, result):
        return self.base.check(params, result)


@pytest.mark.parametrize("base, corrupt, params", [
    (SmallChart(), _chart_classification_flipped, None),
    (workloads.WORKLOADS["trajectory"], _trajectory_last_n_total_shifted, None),
    (workloads.WORKLOADS["trajectory"], _trajectory_last_n_total_scaled, FEW_PHOTONS),
    (workloads.WORKLOADS["oracle"], _oracle_delta_broken, None),
    (workloads.WORKLOADS["oracle"], lambda output: b"not a csv", None),
])
def test_corrupted_output_counts_as_failed(base, corrupt, params, tmp_path):
    params = params or next(base.inputs(3))  # op 0: stable, truncation-safe
    clean, broken = run.Tally(), run.Tally()
    clean.op(base, params, str(tmp_path))
    broken.op(Corrupted(base, corrupt), params, str(tmp_path))
    assert (clean.attempted, clean.failed) == (1, 0)
    assert (broken.attempted, broken.failed) == (1, 1)


def test_trajectory_check_near_zero_photons(tmp_path):
    """At period 5000 this drive is back near vacuum (n_total ~ 8.5e-7), where
    float64 carries only ~1e-12 absolute accuracy on n_total."""
    wl = workloads.WORKLOADS["trajectory"]
    params = {"gamma_tau1": 0.47449171367333315, "omega_tau2": 0.7952218209720235,
              "stable": True}
    assert wl.check(params, wl.run(params, str(tmp_path))).ok


def test_zeno_wrong_verdict_fails():
    wl = workloads.WORKLOADS["zeno"]
    params = next(wl.inputs(3))
    g, grid = params["gamma_tau1"], params["grid"]
    good = "".join(f"{w!r},{'growth' if i in (0, 5) else 'bounded'},1.0,10\n"
                   for i, w in enumerate(grid))
    assert wl.check(params, workloads.Result(0, good.encode())).ok
    indeterminate = good.replace("growth", "indeterminate", 1)
    assert wl.check(params, workloads.Result(0, indeterminate.encode())).ok
    wrong = good.replace("bounded", "growth", 1)
    assert not wl.check(params, workloads.Result(0, wrong.encode())).ok
    assert workloads.trace_rule(g, grid[1]) == "stable"


def test_self_time_of_nested_spans(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(spans.time, "perf_counter", lambda: clock[0])
    toy = types.SimpleNamespace()

    def inner():
        clock[0] += 3.0

    def outer():
        clock[0] += 2.0
        toy.inner()
        toy.inner()
        clock[0] += 1.0

    toy.inner, toy.outer = inner, outer
    tracer = spans.Tracer([("outer", toy, "outer", None), ("inner", toy, "inner", None)])
    tracer.install()
    try:
        toy.outer()
    finally:
        tracer.remove()
    assert tracer.spans["outer"] == spans.SpanStats(calls=1, total_s=9.0, self_s=3.0)
    assert tracer.spans["inner"] == spans.SpanStats(calls=2, total_s=6.0, self_s=6.0)
    assert toy.outer is outer and toy.inner is inner


def test_wrappers_removed_after_traced_run(tmp_path):
    targets = spans.layer_targets(floquet, gaussian, fock, cli)
    before = [vars(owner)[attr] for _, owner, attr, _ in targets]
    tracer = spans.Tracer(targets)
    plain, traced = run.run_traced(workloads.WORKLOADS["oracle"], 1, 0.0,
                                   str(tmp_path), tracer)
    assert [vars(owner)[attr] for _, owner, attr, _ in targets] == before
    assert traced.attempted == plain.attempted == 1
    assert tracer.spans["fock.propagate"].calls == 1
    assert tracer.spans["cli.main"].calls == 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_cover_the_spec(trace, section):
    correct, attempted, failed, metrics, _ = run.measure("oracle", 1, 0.0, trace)
    assert correct and failed == 0 and attempted >= 1
    assert {m["name"] for m in run.SPEC[section]} <= set(metrics)
