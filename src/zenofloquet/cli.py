"""Command-line front end: stability sweeps, simulation runs, coupling estimates.

Output is deterministic: CSV uses 17-significant-digit floats, LF endings
and a fixed column order; JSON mirrors the same rows under a ``rows`` key
next to a ``meta`` object carrying the resolved-config hash and tool
version.  Exit codes: 0 success, 1 numerical guard tripped (divergence or
truncation), 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import floquet, fock, gaussian
from ._version import __version__


class ConfigError(ValueError):
    """Invalid configuration file or flag combination (exit code 2)."""


class RunResult(NamedTuple):
    """Output table of one subcommand and its run status.

    ``status`` is ``"ok"`` or the ``;``-joined guards that tripped; anything
    but ``"ok"`` exits with code 1.
    """

    header: list
    rows: list
    status: str = "ok"


# --- config plumbing ---------------------------------------------------------

def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _deep_update(base, extra, path=""):
    for key, value in extra.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            _deep_update(base[key], value, path + key + ".")
        else:
            base[key] = value
    return base


def _config_hash(resolved) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _meta(command, resolved, status="ok"):
    return {
        "tool": "zenofloquet",
        "version": __version__,
        "command": command,
        "schema": f"{command}.v1",
        "config_hash": _config_hash(resolved),
        "status": status,
    }


def _require_number(cfg, key, *, positive=False, nonnegative=False):
    value = cfg.get(key)
    if value is None:
        raise ConfigError(f"missing required value {key!r}")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} must be a number, got {cfg[key]!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key!r} must be finite")
    if positive and value <= 0:
        raise ConfigError(f"{key!r} must be positive")
    if nonnegative and value < 0:
        raise ConfigError(f"{key!r} must be non-negative")
    return value


def _is_int(value):
    """True for a JSON integer; JSON booleans load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


# --- output ------------------------------------------------------------------

def _write_output(out_path, fmt, meta, header, rows):
    if fmt == "csv":
        buf = io.StringIO()
        for key in ("tool", "version", "command", "schema", "config_hash", "status"):
            buf.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        # np.float64 is a float subclass, so it takes the .17g branch too
        writer.writerows(["%.17g" % v if isinstance(v, float) else str(v)
                          for v in row] for row in rows)
        text = buf.getvalue()
    else:
        payload = {
            "meta": meta,
            "rows": [dict(zip(header, (_json_cell(v) for v in row))) for row in rows],
        }
        text = json.dumps(payload, indent=1) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_cell(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


# --- sweep -------------------------------------------------------------------

SWEEP_DEFAULTS = {
    "gamma_tau1": {"min": 0.0, "max": 1.5, "steps": 151},
    "omega_tau2": {"min": 0.0, "max": math.pi, "steps": 151},
    "epsilon": 1e-9,
    "cross_check": {
        "enabled": False,
        "periods": 10000,
        "photon_cap": 1e12,
    },
}


def _axis_values(axis_cfg, name):
    lo = _require_number(axis_cfg, "min", nonnegative=True)
    hi = _require_number(axis_cfg, "max", nonnegative=True)
    steps = axis_cfg.get("steps")
    if not _is_int(steps) or steps < 2:
        raise ConfigError(f"{name}.steps must be an integer >= 2")
    if not lo < hi:
        raise ConfigError(f"{name}: require min < max")
    return np.linspace(lo, hi, steps)


def _mul(x, y):
    """2x2 products of two stacks held as their entry arrays ``(a, b, c, d)``."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (xa * ya + xb * yc, xa * yb + xb * yd,
            xc * ya + xd * yc, xc * yb + xd * yd)


def _bounded_outcomes(plus, minus, periods, photon_cap):
    """Vectorized Gaussian boundedness check from vacuum.

    ``plus`` and ``minus`` are ``(N, 2, 2)`` stacks of the decoupled pair
    maps of N drives.  Tracks per-point powers at doubling checkpoints and at
    ``periods`` (photon growth of an unstable map is eventually monotone, so
    checkpoint crossings catch every divergence); points whose total photon
    number passes the cap are frozen to the identity to avoid overflow.  The
    powers are multiplied as four entry arrays, each holding both pairs of
    every point, because batched ``@`` on 2x2 stacks is slow.
    """
    diverged = np.zeros(plus.shape[0], dtype=bool)

    def check(mats):
        # photons from vacuum after n periods: the pm basis is orthogonal, so
        # |S^n|_F^2 / 4 - 1 = (|P^n|_F^2 + |M^n|_F^2) / 4 - 1
        fro2 = sum(e * e for e in mats).sum(axis=0)
        diverged[fro2 / 4.0 - 1.0 > photon_cap] = True
        for e, unit in zip(mats, (1.0, 0.0, 0.0, 1.0)):
            e[:, diverged] = unit

    # step holds S^n for n = 1, 2, 4, ...; power collects S^periods from them
    step = tuple(np.stack([plus[:, i, j], minus[:, i, j]])
                 for i in (0, 1) for j in (0, 1))
    power = None
    n = 1
    while True:
        check(step)
        if periods & n:
            power = step if power is None else _mul(step, power)
        if 2 * n > periods:
            break
        step = _mul(step, step)
        n *= 2
    check(power)
    return diverged


def _require_gamma_tau1(name, value):
    if value > floquet.MAX_GAMMA_TAU1:
        raise ConfigError(
            f"{name} = {value!r} exceeds {floquet.MAX_GAMMA_TAU1!r}, the largest "
            "gamma*tau1 whose squared pair-map entries float64 can hold")


def run_sweep(cfg) -> RunResult:
    """Stability map over the (gamma*tau1, omega*tau2) grid.

    The whole grid is classified in one pass, and the cross-check evolves
    the plus and minus pair maps of every grid point together.
    """
    gammas = _axis_values(cfg["gamma_tau1"], "gamma_tau1")
    _require_gamma_tau1("gamma_tau1.max", float(gammas[-1]))
    thetas = _axis_values(cfg["omega_tau2"], "omega_tau2")
    epsilon = _require_number(cfg, "epsilon", positive=True)
    cross = cfg["cross_check"]
    if not isinstance(cross.get("enabled"), bool):
        raise ConfigError("cross_check.enabled must be true or false")
    if cross["enabled"]:
        periods = cross.get("periods")
        if not _is_int(periods) or periods < 1:
            raise ConfigError("cross_check.periods must be a positive integer")
        cap = _require_number(cross, "photon_cap", positive=True)

    header = ["gamma_tau1", "omega_tau2", "half_trace", "classification",
              "floquet_exponent"]
    # unit segment durations, as DriveSchedule.from_products: period 2
    half_trace, classes, exponent = floquet.classify_stack(
        floquet.pair_map(gammas, thetas), 2.0, epsilon)
    half_trace, classes = half_trace.ravel(), classes.ravel()
    columns = [np.repeat(gammas, thetas.size).tolist(),
               np.tile(thetas, gammas.size).tolist(),
               half_trace.tolist(), classes.tolist(), exponent.ravel().tolist()]

    if cross["enabled"]:
        plus, minus = gaussian.pm_pair_maps(gammas, thetas)
        diverged = _bounded_outcomes(plus.reshape(-1, 2, 2),
                                     minus.reshape(-1, 2, 2), periods, cap)
        header += ["gaussian_outcome", "disagreement"]
        unstable = classes == floquet.Classification.UNSTABLE.value
        disagree = (np.abs(half_trace - 1.0) > 1e-3) & (unstable != diverged)
        columns += [np.where(diverged, "diverged", "bounded").tolist(),
                    disagree.astype(int).tolist()]
    return RunResult(header, [list(row) for row in zip(*columns)])


# --- simulate ----------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "schedule": {"gamma": None, "tau1": None, "omega": None, "tau2": None,
                 "periods": None},
    "modes": 2,
    "backend": "gaussian",
    "cutoff": None,
    "initial": {"type": "vacuum", "alpha": None, "occupations": None},
    "photon_cap": 1e12,
}


def _schedule_from_config(cfg):
    sched = cfg["schedule"]
    periods = sched.get("periods")
    if not _is_int(periods) or periods < 0:
        raise ConfigError("schedule.periods must be a non-negative integer")
    try:
        schedule = floquet.DriveSchedule(
            gamma=_require_number(sched, "gamma", nonnegative=True),
            tau1=_require_number(sched, "tau1", nonnegative=True),
            omega=_require_number(sched, "omega", nonnegative=True),
            tau2=_require_number(sched, "tau2", nonnegative=True),
            periods=periods,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _require_gamma_tau1("gamma*tau1", schedule.gamma_tau1)
    return schedule


def _initial_gaussian(initial, modes):
    kind = initial.get("type", "vacuum")
    if kind == "vacuum":
        return gaussian.vacuum_state(modes)
    if kind == "coherent":
        alpha = initial.get("alpha")
        if alpha is None:
            raise ConfigError("initial.alpha required for a coherent state")
        alphas = _parse_alphas(alpha, modes)
        return gaussian.coherent_state(alphas)
    raise ConfigError(f"initial state type {kind!r} not supported by the "
                      "gaussian backend (use vacuum or coherent)")


def _parse_alphas(alpha, modes):
    arr = np.asarray(alpha, dtype=float)
    if arr.shape != (modes, 2):
        raise ConfigError(
            f"initial.alpha must be a list of {modes} [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _initial_fock(initial, modes, cutoff):
    kind = initial.get("type", "vacuum")
    try:
        if kind == "vacuum":
            return fock.vacuum_state(cutoff, modes)
        if kind == "coherent":
            alpha = initial.get("alpha")
            if alpha is None:
                raise ConfigError("initial.alpha required for a coherent state")
            return fock.coherent_state(cutoff, _parse_alphas(alpha, modes))
        if kind == "number":
            occ = initial.get("occupations")
            if (not isinstance(occ, list) or len(occ) != modes
                    or not all(_is_int(n) for n in occ)):
                raise ConfigError(f"initial.occupations must list {modes} integers")
            return fock.number_state(cutoff, *occ)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown initial state type {kind!r}")


def run_simulate(cfg) -> RunResult:
    """Per-period photon record for one schedule."""
    schedule = _schedule_from_config(cfg)
    modes = cfg["modes"]
    if not _is_int(modes) or modes not in (1, 2):
        raise ConfigError("modes must be 1 or 2")
    backend = cfg["backend"]
    if backend not in ("gaussian", "fock", "both"):
        raise ConfigError("backend must be gaussian, fock or both")
    report = floquet.classify_schedule(schedule)

    gauss_traj = fock_traj = None
    photon_cap = _require_number(cfg, "photon_cap", positive=True)
    if backend in ("gaussian", "both"):
        state = _initial_gaussian(cfg["initial"], modes)
        gauss_traj = gaussian.evolve(state, schedule, record_states=False,
                                     photon_cap=photon_cap)
    if backend in ("fock", "both"):
        cutoff = cfg.get("cutoff")
        if not _is_int(cutoff) or cutoff < 1:
            raise ConfigError("the fock backend requires an integer cutoff >= 1")
        state = _initial_fock(cfg["initial"], modes, cutoff)
        fock_traj = fock.propagate(state, schedule, record_states=False,
                                   photon_cap=photon_cap)

    mode_cols = ["n_a", "n_b"] if modes == 2 else ["n"]
    header = ["period"] + mode_cols + ["n_total", "half_trace", "classification"]
    if backend == "fock":
        header += ["norm_drift", "leakage"]
    if backend == "both":
        header += ["delta_" + mode_cols[0]]

    lengths = []
    if gauss_traj is not None:
        lengths.append(gauss_traj.photon_totals.size)
    if fock_traj is not None:
        lengths.append(fock_traj.n_total.size)
    steps = min(lengths)

    rows = []
    for n in range(steps):
        if backend == "gaussian":
            per_mode = list(gauss_traj.photons_per_mode[n])
            total = gauss_traj.photon_totals[n]
        else:
            per_mode = list(fock_traj.n_per_mode[n])
            total = fock_traj.n_total[n]
        row = [n] + [float(v) for v in per_mode] + [
            float(total), report.half_trace, report.classification.value]
        if backend == "fock":
            row += [float(fock_traj.norm_drift[n]), float(fock_traj.leakage[n])]
        if backend == "both":
            row += [float(fock_traj.n_per_mode[n][0] -
                          gauss_traj.photons_per_mode[n][0])]
        rows.append(row)

    status = []
    if gauss_traj is not None and gauss_traj.diverged:
        status.append("gaussian-diverged")
    if fock_traj is not None and fock_traj.status != "ok":
        status.append(f"fock-{fock_traj.status}")
    return RunResult(header, rows, ";".join(status) or "ok")


# --- estimate ----------------------------------------------------------------

ESTIMATE_DEFAULTS = {
    "eta": None,             # medium impedance, ohm
    "chi2": None,            # second-order susceptibility, C V^-2
    "omega_a": None,         # signal angular frequency, 1/s
    "omega_b": None,         # idler angular frequency, 1/s
    "pump_intensity": None,  # W m^-2
    "length": None,          # crystal length, m
}


def coupling_rate(eta, chi2, omega_a, omega_b, pump_intensity) -> float:
    """Classical nonlinear coupling rate per unit length (MKS).

    ``Gamma_c = sqrt(eta^3 / 2 * chi2^2 * omega_a * omega_b * I_p)`` in 1/m.
    """
    for name, v in (("eta", eta), ("chi2", chi2), ("omega_a", omega_a),
                    ("omega_b", omega_b), ("pump_intensity", pump_intensity)):
        if not math.isfinite(v) or v <= 0:
            raise ValueError(f"{name} must be positive and finite")
    return math.sqrt(eta**3 / 2.0 * chi2**2 * omega_a * omega_b * pump_intensity)


def run_estimate(cfg) -> RunResult:
    values = {k: _require_number(cfg, k, positive=True) for k in ESTIMATE_DEFAULTS}
    gamma_c = coupling_rate(values["eta"], values["chi2"], values["omega_a"],
                            values["omega_b"], values["pump_intensity"])
    gamma_tau1 = gamma_c * values["length"]
    header = list(ESTIMATE_DEFAULTS) + ["gamma_c_per_m", "gamma_tau1"]
    rows = [[values[k] for k in ESTIMATE_DEFAULTS] + [gamma_c, gamma_tau1]]
    return RunResult(header, rows)


# --- argument parsing ---------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="zenofloquet",
        description="Stability maps and simulations of the switched "
                    "amplification/exchange drive.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="stability map over the product grid")
    _add_common(sweep)
    sweep.add_argument("--gamma-tau1", nargs=3, metavar=("MIN", "MAX", "STEPS"))
    sweep.add_argument("--omega-tau2", nargs=3, metavar=("MIN", "MAX", "STEPS"))
    sweep.add_argument("--epsilon", type=float)
    sweep.add_argument("--cross-check", action="store_true", default=None,
                       help="add a Gaussian bounded/diverged column")
    sweep.add_argument("--cross-check-periods", type=int)

    sim = sub.add_parser("simulate", help="per-period photon record of one run")
    _add_common(sim)
    sim.add_argument("--gamma", type=float)
    sim.add_argument("--tau1", type=float)
    sim.add_argument("--omega", type=float)
    sim.add_argument("--tau2", type=float)
    sim.add_argument("--periods", type=int)
    sim.add_argument("--modes", type=int, choices=(1, 2))
    sim.add_argument("--backend", choices=("gaussian", "fock", "both"))
    sim.add_argument("--cutoff", type=int)

    est = sub.add_parser("estimate", help="MKS coupling-constant estimate")
    _add_common(est)
    est.add_argument("--eta", type=float)
    est.add_argument("--chi2", type=float)
    est.add_argument("--omega-a", type=float)
    est.add_argument("--omega-b", type=float)
    est.add_argument("--pump-intensity", type=float)
    est.add_argument("--length", type=float)
    return parser


def _axis_override(raw, name):
    try:
        return {"min": float(raw[0]), "max": float(raw[1]), "steps": int(raw[2])}
    except ValueError:
        raise ConfigError(f"--{name} expects MIN MAX STEPS numbers")


def _resolve(defaults, args, overrides):
    cfg = json.loads(json.dumps(defaults))  # deep copy
    if args.config:
        _deep_update(cfg, _load_config(args.config))
    _deep_update(cfg, overrides)
    return cfg


def _sweep_overrides(args):
    out = {}
    if args.gamma_tau1:
        out["gamma_tau1"] = _axis_override(args.gamma_tau1, "gamma-tau1")
    if args.omega_tau2:
        out["omega_tau2"] = _axis_override(args.omega_tau2, "omega-tau2")
    if args.epsilon is not None:
        out["epsilon"] = args.epsilon
    cross = {}
    if args.cross_check is not None:
        cross["enabled"] = True
    if args.cross_check_periods is not None:
        cross["periods"] = args.cross_check_periods
        cross.setdefault("enabled", True)
    if cross:
        out["cross_check"] = cross
    return out


def _simulate_overrides(args):
    out = {}
    sched = {}
    for key in ("gamma", "tau1", "omega", "tau2", "periods"):
        value = getattr(args, key)
        if value is not None:
            sched[key] = value
    if sched:
        out["schedule"] = sched
    for key in ("modes", "backend", "cutoff"):
        value = getattr(args, key)
        if value is not None:
            out[key] = value
    return out


def _estimate_overrides(args):
    out = {}
    for key, attr in (("eta", "eta"), ("chi2", "chi2"), ("omega_a", "omega_a"),
                      ("omega_b", "omega_b"), ("pump_intensity", "pump_intensity"),
                      ("length", "length")):
        value = getattr(args, attr)
        if value is not None:
            out[key] = value
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, so that a wrapper installed on the module is used
    defaults, overrides, run = {
        "sweep": (SWEEP_DEFAULTS, _sweep_overrides, run_sweep),
        "simulate": (SIMULATE_DEFAULTS, _simulate_overrides, run_simulate),
        "estimate": (ESTIMATE_DEFAULTS, _estimate_overrides, run_estimate),
    }[args.command]
    try:
        cfg = _resolve(defaults, args, overrides(args))
        result = run(cfg)
    except ConfigError as exc:
        print(f"zenofloquet {args.command}: {exc}", file=sys.stderr)
        return 2
    meta = _meta(args.command, cfg, result.status)
    _write_output(args.out, args.format, meta, result.header, result.rows)
    return int(result.status != "ok")


if __name__ == "__main__":
    sys.exit(main())
