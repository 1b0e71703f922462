"""The benchmark's four workloads: seeded inputs, one op each, and checks.

Every op goes through a public entry point of zenofloquet (``cli.main`` or
``fock.zeno_threshold_scan``), looked up on its module at call time so that
the span wrappers of ``spans.py`` see it.  The checks recompute the expected
answer without the library: the trace rule from the two products, and the
vacuum photon number from matrix powers of the benchmark's own 2x2 pair maps.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
imports zenofloquet from there; it raises ImportError when the sources are
missing.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "zenofloquet" / "__init__.py").is_file():
    raise ImportError(f"zenofloquet sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from zenofloquet import cli, fock  # noqa: E402

#: Marginal band of the trace rule; the sweep's default epsilon.
EPSILON = 1e-9


def trace_rule(gamma_tau1, omega_tau2, epsilon=EPSILON):
    """Stability verdict from ``|cos(omega*tau2) cosh(gamma*tau1)|``."""
    half_trace = abs(math.cos(omega_tau2) * math.cosh(gamma_tau1))
    if half_trace > 1.0 + epsilon:
        return "unstable"
    if half_trace < 1.0 - epsilon:
        return "stable"
    return "marginal"


def _hyperbolic(x):
    return np.array([[math.cosh(x), math.sinh(x)], [math.sinh(x), math.cosh(x)]])


def _rotation(x):
    return np.array([[math.cos(x), math.sin(x)], [-math.sin(x), math.cos(x)]])


def vacuum_photons(gamma_tau1, omega_tau2, periods):
    """Total photons from vacuum after ``periods`` periods.

    The two-mode period map is block-diagonal on the difference/sum pairs in
    an orthogonal basis, so ``|S^n|_F^2 = |P^n|_F^2 + |M^n|_F^2`` and the
    vacuum covariance ``S^n (S^n)^T / 2`` holds ``|S^n|_F^2 / 4 - 1`` photons.
    """
    plus = _rotation(-omega_tau2) @ _hyperbolic(gamma_tau1)
    minus = _rotation(omega_tau2) @ _hyperbolic(-gamma_tau1)
    fro2 = sum(float(np.sum(np.linalg.matrix_power(m, periods) ** 2))
               for m in (plus, minus))
    return fro2 / 4.0 - 1.0


def _exchange_angle(rng, gamma_tau1, half_trace):
    """An omega*tau2 in [0, pi] at which the drive has the given half-trace."""
    angle = math.acos(half_trace / math.cosh(gamma_tau1))
    return math.pi - angle if rng.random() < 0.5 else angle


def read_csv(output):
    """(meta, header, rows) of a CLI CSV output, ``rows`` an iterator.

    The rows are read as a stream, so that checking a large output does not
    hold it parsed in memory and raise the process's peak above the op's.
    """
    lines = io.TextIOWrapper(io.BytesIO(output), encoding="utf-8", newline="")
    meta = {}
    line = ""
    for line in lines:
        if not line.startswith("# "):
            break
        key, _, value = line[2:].rstrip("\n").partition("=")
        meta[key] = value
    header = next(csv.reader([line]), [])
    return meta, header, csv.reader(lines)


@dataclass(frozen=True)
class Result:
    """What one op produced: exit code (0 for library calls) and output bytes."""

    code: int
    output: bytes


@dataclass(frozen=True)
class Verdict:
    ok: bool
    rows: int
    reason: str = ""


class Workload:
    """One closed-loop workload: draw inputs, run an op, check its output."""

    name = ""

    def inputs(self, seed):
        """Endless input stream; the same seed gives the same stream."""
        rng = np.random.default_rng(seed)
        for index in itertools.count():
            yield self.draw(rng, index)

    def draw(self, rng, index):
        raise NotImplementedError

    def run(self, params, workdir) -> Result:
        raise NotImplementedError

    def check(self, params, result) -> Verdict:
        raise NotImplementedError

    def warm_up(self, workdir):
        """One minimal op at this workload's sizes, to fill lazy caches."""
        raise NotImplementedError


def _cli_op(argv, workdir):
    out = os.path.join(workdir, "op.out")
    code = cli.main(argv + ["--out", out])
    with open(out, "rb") as fh:
        return Result(code, fh.read())


def _num(x):
    return repr(float(x))


class Chart(Workload):
    """``sweep --cross-check`` on a 151x151 grid, CSV."""

    name = "chart"
    steps = 151

    def draw(self, rng, index):
        return {"gamma_max": float(rng.uniform(0.8, 1.5))}

    def _argv(self, params, steps):
        return ["sweep", "--cross-check",
                "--gamma-tau1", "0", _num(params["gamma_max"]), str(steps),
                "--omega-tau2", "0", _num(math.pi), str(steps)]

    def run(self, params, workdir):
        return _cli_op(self._argv(params, self.steps), workdir)

    def warm_up(self, workdir):
        _cli_op(self._argv({"gamma_max": 1.0}, 2), workdir)

    def check(self, params, result):
        meta, header, rows = read_csv(result.output)
        if result.code != 0 or meta.get("status") != "ok":
            return Verdict(False, 0, f"exit {result.code}, status {meta.get('status')}")
        col = {name: i for i, name in enumerate(header)}
        count = 0
        for row in rows:
            count += 1
            expected = trace_rule(float(row[col["gamma_tau1"]]),
                                  float(row[col["omega_tau2"]]))
            if row[col["classification"]] != expected:
                return Verdict(False, count, f"classification of {row}")
            if row[col["disagreement"]] != "0":
                return Verdict(False, count, f"disagreement in {row}")
        return Verdict(count == self.steps ** 2, count, f"{count} rows")


class Trajectory(Workload):
    """``simulate`` on the Gaussian backend, 5000 periods, JSON.

    Every fourth op is unstable with half-trace in (1.0001, 1.01), so the
    photon cap trips after hundreds to a few thousand periods.
    """

    name = "trajectory"
    periods = 5000

    def draw(self, rng, index):
        if index % 4 == 3:
            g = float(rng.uniform(0.2, 1.0))
            h = float(rng.uniform(1.0001, 1.01))
        else:
            g = float(rng.uniform(0.05, 1.0))
            h = float(rng.uniform(0.0, 0.999))
        return {"gamma_tau1": g, "omega_tau2": _exchange_angle(rng, g, h),
                "stable": h < 1.0}

    def _argv(self, params, periods):
        return ["simulate", "--gamma", _num(params["gamma_tau1"]), "--tau1", "1",
                "--omega", _num(params["omega_tau2"]), "--tau2", "1",
                "--periods", str(periods), "--backend", "gaussian",
                "--format", "json"]

    def run(self, params, workdir):
        return _cli_op(self._argv(params, self.periods), workdir)

    def warm_up(self, workdir):
        _cli_op(self._argv({"gamma_tau1": 0.5, "omega_tau2": 1.0}, 1), workdir)

    def check(self, params, result):
        payload = json.loads(result.output)
        rows = payload["rows"]
        status = payload["meta"]["status"]
        if not params["stable"]:
            ok = (result.code == 1 and status == "gaussian-diverged"
                  and rows[-1]["n_total"] > 1e12)
            return Verdict(ok, len(rows), "" if ok else f"exit {result.code}, status {status}")
        if result.code != 0 or status != "ok" or len(rows) != self.periods + 1:
            return Verdict(False, len(rows), f"exit {result.code}, status {status}")
        expected = vacuum_photons(params["gamma_tau1"], params["omega_tau2"],
                                  self.periods)
        # 1e-6 relative, with an absolute floor for drives that are back near
        # vacuum at the last period, where float64 holds n_total to ~1e-12
        err = abs(rows[-1]["n_total"] - expected)
        ok = err <= 1e-6 * abs(expected) + 1e-10
        return Verdict(ok, len(rows), f"n_total {rows[-1]['n_total']!r}, expected {expected!r}")


class Oracle(Workload):
    """``simulate --backend both --cutoff 30``, 100 periods, CSV."""

    name = "oracle"
    periods = 100

    def draw(self, rng, index):
        g = float(rng.uniform(0.02, 0.1))
        h = float(rng.uniform(0.0, 0.999))
        return {"gamma_tau1": g, "omega_tau2": _exchange_angle(rng, g, h)}

    def _argv(self, params, periods):
        return ["simulate", "--gamma", _num(params["gamma_tau1"]), "--tau1", "1",
                "--omega", _num(params["omega_tau2"]), "--tau2", "1",
                "--periods", str(periods), "--backend", "both", "--cutoff", "30"]

    def run(self, params, workdir):
        return _cli_op(self._argv(params, self.periods), workdir)

    def warm_up(self, workdir):
        _cli_op(self._argv({"gamma_tau1": 0.05, "omega_tau2": 1.0}, 1), workdir)

    def check(self, params, result):
        meta, header, rows = read_csv(result.output)
        rows = list(rows)
        status = meta.get("status")
        if len(rows) != self.periods + 1:
            return Verdict(False, len(rows), f"{len(rows)} rows")
        # the leakage guard tripping is expected behaviour, not a failure
        if status == "fock-truncation-unsafe" and result.code == 1:
            return Verdict(True, len(rows))
        if status != "ok" or result.code != 0:
            return Verdict(False, len(rows), f"exit {result.code}, status {status}")
        col = header.index("delta_n_a")
        worst = max(abs(float(row[col])) for row in rows)
        return Verdict(worst < 1e-6, len(rows), f"|delta_n_a| up to {worst:.2e}")


class Zeno(Workload):
    """``fock.zeno_threshold_scan`` with library defaults on six points.

    The points sit 0.1 to 0.3 in omega*tau2 from both stability boundaries
    ``b = acos(1/cosh g)`` and ``pi - b``, two on the unstable side.
    """

    name = "zeno"

    def draw(self, rng, index):
        g = float(rng.uniform(0.18, 0.22))
        b = math.acos(1.0 / math.cosh(g))
        grid = ([b + d for d in (-0.1, 0.1, 0.3)]
                + [math.pi - b + d for d in (-0.3, -0.1, 0.1)])
        return {"gamma_tau1": g, "grid": grid}

    def run(self, params, workdir):
        points = fock.zeno_threshold_scan(params["gamma_tau1"], params["grid"])
        text = "".join(f"{p.omega_tau2!r},{p.outcome},{p.n_final!r},{p.periods_run}\n"
                       for p in points)
        return Result(0, text.encode())

    def warm_up(self, workdir):
        g = 0.2
        fock.zeno_threshold_scan(g, [1.0], periods=1,
                                 cutoff=fock.default_cutoff(g, 150))

    def check(self, params, result):
        rows = [line.split(",") for line in result.output.decode().splitlines()]
        if len(rows) != len(params["grid"]):
            return Verdict(False, len(rows), f"{len(rows)} points")
        verdicts = {"unstable": "growth", "stable": "bounded"}
        for (omega, outcome, _, _), theta in zip(rows, params["grid"]):
            if float(omega) != theta:
                return Verdict(False, len(rows), f"point {omega} is not {theta!r}")
            # indeterminate points are the leakage guard working
            expected = verdicts[trace_rule(params["gamma_tau1"], theta)]
            if outcome not in ("indeterminate", expected):
                return Verdict(False, len(rows), f"{outcome} at omega_tau2={omega}")
        return Verdict(True, len(rows))


WORKLOADS = {w.name: w for w in (Chart(), Trajectory(), Oracle(), Zeno())}
