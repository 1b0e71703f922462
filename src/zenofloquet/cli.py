"""Command-line front end: stability sweeps, simulation runs, coupling estimates.

Output is deterministic: CSV uses 17-significant-digit floats, LF endings
and a fixed column order; JSON mirrors the same rows under a ``rows`` key
next to a ``meta`` object carrying the resolved-config hash and tool
version.  Exit codes: 0 success, 1 numerical guard tripped (divergence or
truncation), 2 usage/config error or a request too big to allocate.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import re
import sys
from typing import NamedTuple

import numpy as np

from . import floquet, fock, gaussian
from ._version import __version__


class ConfigError(ValueError):
    """Invalid configuration file or flag combination (exit code 2)."""


class RunResult(NamedTuple):
    """Output table of one subcommand and its run status.

    ``rows`` is a 1-D structured array with one field per ``header`` name,
    each ``float64``, ``int64`` or ``str``.  ``status`` is ``"ok"`` or the
    ``;``-joined guards that tripped; anything but ``"ok"`` exits with code 1.
    """

    header: list
    rows: np.ndarray
    status: str = "ok"


def _table(header, columns):
    """The equal-length ``columns`` as rows of one structured array."""
    columns = [np.asarray(column) for column in columns]
    rows = np.empty(len(columns[0]), [(k, c.dtype) for k, c in zip(header, columns)])
    for key, column in zip(header, columns):
        rows[key] = column
    return rows


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
        if isinstance(value, bool):  # a JSON true/false is never a number
            raise TypeError
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

#: Rows per formatted block of CSV or JSON output: bounds the text held at once.
_BLOCK_ROWS = 4096
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: Characters in a field that can make csv.writer quote it.
_CSV_SPECIAL = re.compile('[,"\r\n]').search


def _csv_field(text):
    """``text`` as csv.writer writes it in a row of two or more fields."""
    if not _CSV_SPECIAL(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _csv_texts(field):
    """The cells of one typed field as csv.writer writes them in a row of two
    or more fields, each distinct cell formatted once."""
    if field.dtype.kind == "f":
        # keyed by bit pattern, so 0.0 and -0.0 stay apart; .17g needs no quotes
        keys, inverse = np.unique(field.view(np.int64), return_inverse=True)
        texts = np.array(["%.17g" % v for v in keys.view(np.float64).tolist()],
                         dtype=object)
        return texts[inverse].tolist()
    cells = field.tolist()
    texts = {v: _csv_field(str(v)) for v in set(cells)}
    return list(map(texts.__getitem__, cells))


def _write_csv(fh, meta, header, rows):
    for key in ("tool", "version", "command", "schema", "config_hash", "status"):
        fh.write(f"# {key}={meta[key]}\n")
    csv.writer(fh, lineterminator="\n").writerow(header)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        columns = [_csv_texts(block[name]) for name in rows.dtype.names]
        if len(columns) == 1:  # csv.writer quotes a lone empty field
            columns = [[text or '""' for text in columns[0]]]
        fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _json_texts(field):
    """The cells of one typed field as ``json.dumps(indent=1)`` writes them."""
    cells = field.tolist()
    if field.dtype.kind == "f":
        texts = list(map(float.__repr__, cells))
        return list(map(_JSON_NONFINITE.get, texts, texts))
    if field.dtype.kind == "i":
        return list(map(int.__repr__, cells))
    return list(map(json.encoder.encode_basestring_ascii, cells))


def _write_json(fh, meta, header, rows):
    fh.write(json.dumps({"meta": meta}, indent=1)[:-2])  # without the final "\n}"
    if not len(rows):
        fh.write(',\n "rows": []\n}\n')
        return
    fh.write(',\n "rows": [\n')
    keys = (json.encoder.encode_basestring_ascii(k).replace("%", "%%") for k in header)
    template = "  {\n%s\n  }" % ",\n".join(f"   {k}: %s" for k in keys)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        columns = [_json_texts(block[name]) for name in rows.dtype.names]
        fh.write((",\n" if start else "")
                 + ",\n".join(template % cells for cells in zip(*columns)))
    fh.write("\n ]\n}\n")


def _write_output(out_path, fmt, meta, header, rows):
    """Write the table to ``out_path`` (stdout for None or "-") as it is formatted."""
    write = _write_csv if fmt == "csv" else _write_json
    if out_path is None or out_path == "-":
        write(sys.stdout, meta, header, rows)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            write(fh, meta, header, rows)


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
    columns = [np.repeat(gammas, thetas.size), np.tile(thetas, gammas.size),
               half_trace, classes, exponent.ravel()]

    if cross["enabled"]:
        diverged = gaussian.vacuum_diverges(gammas, thetas, periods, cap).ravel()
        header += ["gaussian_outcome", "disagreement"]
        unstable = classes == floquet.Classification.UNSTABLE.value
        disagree = (np.abs(half_trace - 1.0) > 1e-3) & (unstable != diverged)
        columns += [np.where(diverged, "diverged", "bounded"),
                    disagree.astype(np.int64)]
    return RunResult(header, _table(header, columns))


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
        return gaussian.coherent_state(_parse_alphas(initial, modes))
    raise ConfigError(f"initial state type {kind!r} not supported by the "
                      "gaussian backend (use vacuum or coherent)")


def _parse_alphas(initial, modes):
    alpha = initial.get("alpha")
    if alpha is None:
        raise ConfigError("initial.alpha required for a coherent state")
    cells = np.asarray(alpha, dtype=object)
    try:
        arr = cells.astype(float)
    except (TypeError, ValueError):
        arr = np.empty(0)  # not numbers: fails the shape test below
    if (arr.shape != (modes, 2) or not np.isfinite(arr).all()
            or any(isinstance(v, bool) for v in cells.flat)):
        raise ConfigError(
            f"initial.alpha must be a list of {modes} [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _initial_fock(initial, modes, cutoff):
    kind = initial.get("type", "vacuum")
    try:
        if kind == "vacuum":
            return fock.vacuum_state(cutoff, modes)
        if kind == "coherent":
            return fock.coherent_state(cutoff, _parse_alphas(initial, modes))
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
        gauss_traj = gaussian.evolve(state, schedule, photon_cap=photon_cap)
    if backend in ("fock", "both"):
        cutoff = cfg.get("cutoff")
        if not _is_int(cutoff) or cutoff < 1:
            raise ConfigError("the fock backend requires an integer cutoff >= 1")
        state = _initial_fock(cfg["initial"], modes, cutoff)
        try:
            fock_traj = fock.propagate(state, schedule, photon_cap=photon_cap)
        except ValueError as exc:  # an initial state that is not cutoff-safe
            raise ConfigError(str(exc)) from exc

    mode_cols = ["n_a", "n_b"] if modes == 2 else ["n"]
    header = ["period"] + mode_cols + ["n_total", "half_trace", "classification"]
    if backend == "fock":
        header += ["norm_drift", "leakage"]
    if backend == "both":
        header += ["delta_" + mode_cols[0]]

    # the fock record is printed whenever it exists; a run stopped by a guard
    # records fewer periods, and the table ends with the shorter record
    if backend == "gaussian":
        per_mode, total = gauss_traj.photons_per_mode, gauss_traj.photon_totals
    else:
        per_mode, total = fock_traj.n_per_mode, fock_traj.n_total
    steps = total.size
    if backend == "both":
        steps = min(steps, gauss_traj.photon_totals.size)
    columns = [np.arange(steps), *per_mode[:steps].T, total[:steps],
               np.full(steps, report.half_trace),
               np.full(steps, report.classification.value)]
    if backend == "fock":
        columns += [fock_traj.norm_drift[:steps], fock_traj.leakage[:steps]]
    if backend == "both":
        columns.append(fock_traj.n_per_mode[:steps, 0]
                       - gauss_traj.photons_per_mode[:steps, 0])

    status = []
    if gauss_traj is not None and gauss_traj.diverged:
        status.append("gaussian-diverged")
    if fock_traj is not None and fock_traj.status != "ok":
        status.append(f"fock-{fock_traj.status}")
    return RunResult(header, _table(header, columns), ";".join(status) or "ok")


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
    Every input must be finite and > 0; a rate that overflows float64 or
    underflows to 0 is a ``ValueError``.
    """
    for name, v in (("eta", eta), ("chi2", chi2), ("omega_a", omega_a),
                    ("omega_b", omega_b), ("pump_intensity", pump_intensity)):
        floquet._require_real(name, v, positive=True)
    try:
        rate = math.sqrt(eta**3 / 2.0 * chi2**2 * omega_a * omega_b * pump_intensity)
    except OverflowError:  # a float ** raises where * gives inf
        rate = math.inf
    if not math.isfinite(rate):
        raise ValueError("coupling rate Gamma_c overflows float64")
    if rate == 0.0:
        raise ValueError("coupling rate Gamma_c underflows float64 to 0")
    return rate


def run_estimate(cfg) -> RunResult:
    values = {k: _require_number(cfg, k, positive=True) for k in ESTIMATE_DEFAULTS}
    try:
        gamma_c = coupling_rate(values["eta"], values["chi2"], values["omega_a"],
                                values["omega_b"], values["pump_intensity"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    gamma_tau1 = gamma_c * values["length"]
    if not math.isfinite(gamma_tau1):
        raise ConfigError("gamma_tau1 = Gamma_c * length overflows float64")
    if gamma_tau1 == 0.0:
        raise ConfigError("gamma_tau1 = Gamma_c * length underflows float64 to 0")
    header = list(ESTIMATE_DEFAULTS) + ["gamma_c_per_m", "gamma_tau1"]
    cells = [values[k] for k in ESTIMATE_DEFAULTS] + [gamma_c, gamma_tau1]
    return RunResult(header, _table(header, [[v] for v in cells]))


# --- argument parsing ---------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.lru_cache(maxsize=None)
def _build_parser():
    """Each subcommand flag's dest is the config key it overrides, dotted for
    a nested key; metavar keeps such a flag's --help text free of the dots.

    Built once per process: parsing reads the parser and never changes it."""
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
    sweep.add_argument("--cross-check", dest="cross_check.enabled",
                       action="store_true", default=None,
                       help="add a Gaussian bounded/diverged column")
    sweep.add_argument("--cross-check-periods", dest="cross_check.periods",
                       metavar="CROSS_CHECK_PERIODS", type=int)

    sim = sub.add_parser("simulate", help="per-period photon record of one run")
    _add_common(sim)
    sim.add_argument("--gamma", dest="schedule.gamma", metavar="GAMMA", type=float)
    sim.add_argument("--tau1", dest="schedule.tau1", metavar="TAU1", type=float)
    sim.add_argument("--omega", dest="schedule.omega", metavar="OMEGA", type=float)
    sim.add_argument("--tau2", dest="schedule.tau2", metavar="TAU2", type=float)
    sim.add_argument("--periods", dest="schedule.periods", metavar="PERIODS", type=int)
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


def _overrides(args):
    """The config overrides of the given flags, nested by the dots of a dest."""
    flat = {key: value for key, value in vars(args).items() if value is not None
            and key not in ("command", "config", "out", "format")}
    for key in ("gamma_tau1", "omega_tau2"):
        if key in flat:
            flat[key] = _axis_override(flat[key], key.replace("_", "-"))
    if "cross_check.periods" in flat:
        flat["cross_check.enabled"] = True  # the periods flag turns the check on
    out = {}
    for key, value in flat.items():
        *parents, leaf = key.split(".")
        node = out
        for parent in parents:
            node = node.setdefault(parent, {})
        node[leaf] = value
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, so that a wrapper installed on the module is used
    defaults, run = {
        "sweep": (SWEEP_DEFAULTS, run_sweep),
        "simulate": (SIMULATE_DEFAULTS, run_simulate),
        "estimate": (ESTIMATE_DEFAULTS, run_estimate),
    }[args.command]
    try:
        overrides = _overrides(args)
        cfg = json.loads(json.dumps(defaults))  # deep copy
        if args.config:
            _deep_update(cfg, _load_config(args.config))
        _deep_update(cfg, overrides)
        result = run(cfg)
    except ConfigError as exc:
        print(f"zenofloquet {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a request too big to allocate is a usage error
        print(f"zenofloquet {args.command}: out of memory: "
              f"{str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    meta = _meta(args.command, cfg, result.status)
    _write_output(args.out, args.format, meta, result.header, result.rows)
    return int(result.status != "ok")


if __name__ == "__main__":
    sys.exit(main())
