"""Command-line front end: stability sweeps, simulation runs, coupling estimates.

Output is deterministic: CSV uses 17-significant-digit floats, LF endings
and a fixed column order; JSON mirrors the same rows under a ``rows`` key
next to a ``meta`` object carrying the resolved-config hash and tool
version.  Exit codes: 0 success, 1 numerical guard tripped (divergence or
truncation), 2 usage/config error, a request too big to allocate or an
output that cannot be written.

Each subcommand returns its table as its columns (``Columns``): float64,
int64, or object arrays of str whose cells are a few shared label strings.
Both formats are streamed by one writer, ``_write_rows``, which slices each
block of ``_BLOCK_ROWS`` CSV rows or ``_JSON_BLOCK_ROWS`` JSON rows straight
from the columns; each format gives it its row head, separators, row tail,
the text between rows, float formatter and string escape.  A column with one
value in every row is written into the separators once.  In a block, each
distinct float of the other float columns, told apart by bit pattern, is
formatted once (``_float_texts``): from ``_G17_FLOOR`` distinct values on by
the exact vectorised kernel of ``_g17``, as ``%.17g`` for CSV and as the
shortest round-trip ``repr`` for JSON, and below that by ``%`` and ``repr``
themselves.  Each block is one join.
"""

from __future__ import annotations

import argparse
import contextlib
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

from . import floquet, gaussian
from ._version import __version__


class ConfigError(ValueError):
    """Invalid configuration file or flag combination (exit code 2)."""


class Columns(dict):
    """An ordered mapping from each header name to its column, contiguous 1-D
    arrays of one length: ``rows[name]`` is a column, and ``len(rows)`` is
    that length, the table's row count, not the number of columns."""

    __slots__ = ()

    def __len__(self):
        return len(next(iter(self.values())))


class RunResult(NamedTuple):
    """Output table of one subcommand and its run status.

    ``rows`` is the :class:`Columns` of the table, one per ``header`` name in
    header order, each ``float64``, ``int64`` or an object array of ``str``.
    ``status`` is ``"ok"`` or the ``;``-joined guards that tripped; anything
    but ``"ok"`` exits with code 1.
    """

    header: list
    rows: Columns
    status: str = "ok"


def _table(columns, status="ok"):
    """The run result of ``columns``, an ordered mapping from each header name
    to its column; the equal-length columns are kept as they are, each made
    contiguous, with no copy of one that already is."""
    rows = Columns((name, np.ascontiguousarray(column)) for name, column in columns.items())
    return RunResult(list(rows), rows, status)


# --- config plumbing ---------------------------------------------------------

def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an int too long
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


@contextlib.contextmanager
def _usage_errors():
    """Re-raise the ``ValueError`` of a library input rule as a ``ConfigError``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _is_int(value):
    """True for a JSON integer; JSON booleans load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_float(value):
    """A JSON integer as a float (inf beyond float64); any other value as it is."""
    try:
        return float(value) if _is_int(value) else value
    except OverflowError:
        return math.inf


def _require_number(cfg, key, *, positive=False):
    """``cfg[key]``, ``key`` dotted for a nested key, as a float: a JSON number,
    never a bool or a string, that ``floquet._require_real`` takes."""
    value = functools.reduce(dict.get, key.split("."), cfg)
    if value is None:
        raise ConfigError(f"missing required value {key}")
    if not (_is_int(value) or isinstance(value, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    value = _json_float(value)
    with _usage_errors():
        floquet._require_real(key, value, positive)
    return value


def _require_count(cfg, key, lo, hi=math.inf):
    """``cfg[key]``, ``key`` dotted for a nested key: a JSON integer (never a
    float or a bool) in ``[lo, hi]`` by ``floquet._require_int``."""
    value = functools.reduce(dict.get, key.split("."), cfg)
    if not _is_int(value):
        raise ConfigError(f"{key} must be an integer in [{lo}, {hi}], got {value!r}")
    with _usage_errors():
        return floquet._require_int(key, value, lo, hi)


# --- output ------------------------------------------------------------------

#: Rows per formatted block of CSV or JSON output: bounds the text held at once.
_BLOCK_ROWS = 4096
#: A JSON row's text is several times a CSV row's, and a JSON block holds the
#: texts of its floats while its text is made, so JSON blocks are half as long.
_JSON_BLOCK_ROWS = _BLOCK_ROWS // 2
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


def _float_texts(fields, to_texts):
    """The cells of equal-length float fields as ``to_texts`` writes them, one
    list per field, each distinct value of all the fields formatted once.

    Values are told apart by bit pattern, so 0.0 and -0.0 stay apart.
    ``to_texts`` takes a float array and returns its texts, as a list or as
    an object array, which is indexed as it is.
    """
    bits = np.concatenate([field.view(np.int64) for field in fields])
    keys, inverse = np.unique(bits, return_inverse=True)
    cells = np.asarray(to_texts(keys.view(np.float64)), dtype=object)[inverse]
    size = len(fields[0])
    return [cells[k * size:(k + 1) * size].tolist() for k in range(len(fields))]


#: Distinct floats of a block's float fields from which the kernel of
#: :mod:`zenofloquet._g17` formats them.  On a 2-vCPU host, in ``%.17g`` mode
#: (CSV) the kernel costs about 0.1 ms a call, a few us more for each (sign,
#: decade) run, and 0.15-0.3 us a value; ``%`` costs 0.5-0.9 us a value.  They
#: break even near 300 values in one decade of each sign and near 500 over
#: all 40 runs; at 1000 values the kernel takes about half the time of ``%``,
#: and at 4096 a third.  In shortest mode (JSON) the kernel costs 0.15-0.35 ms
#: a call and 0.3-0.4 us a value; ``repr`` costs 0.8-1.0 us a value.  They
#: break even near 300 values in one decade of each sign and 700-900 over all
#: 40 runs; at 1024 values the kernel takes 0.5-0.8 of the time of ``repr``,
#: and at 4096 0.35-0.45.  The floor is 1024, not 500: numpy keeps freed
#: data buffers of under 1 KiB for reuse, seven of each size, and a call on
#: fewer values leaves boolean masks of a new size there whenever the count
#: changes, which raised a chart run's RSS by about 1 MB over 400 ops.
_G17_FLOOR = 1024


def _g17_percent(values):
    """``"%.17g" % v`` of each value of a float64 array, as a list of str."""
    return ["%.17g" % v for v in values.tolist()]


def _csv_float_texts(values):
    """The distinct floats of a CSV block as ``"%.17g"`` writes them: by the
    kernel of :mod:`zenofloquet._g17` from ``_G17_FLOOR`` values on, with
    :func:`_g17_percent` for the values outside its range."""
    if len(values) < _G17_FLOOR:
        return _g17_percent(values)
    # imported on first use: a run that formats no large float block never
    # compiles or loads the kernel
    from . import _g17
    return _g17.texts(values, _g17_percent)


def _json_repr(values):
    """Floats as ``json.dumps`` writes them: ``repr``, and ``NaN`` and
    ``Infinity`` for the values that have no JSON number."""
    texts = list(map(float.__repr__, values.tolist()))
    if np.isfinite(values).all():
        return texts
    return list(map(_JSON_NONFINITE.get, texts, texts))


def _json_float_texts(values):
    """The distinct floats of a JSON block as ``json.dumps`` writes them: by
    the shortest round-trip kernel of :mod:`zenofloquet._g17` from
    ``_G17_FLOOR`` values on, with :func:`_json_repr` for the values that it
    leaves."""
    if len(values) < _G17_FLOOR:
        return _json_repr(values)
    from . import _g17  # on first use, as for CSV
    return _g17.texts(values, _json_repr, shortest=True)


def _cell_texts(fields, float_texts, escape):
    """The cells of a block's fields as text, one list per field: the floats
    of all its float fields through one :func:`_float_texts`, ints by
    ``repr``, and each distinct str cell by ``escape``, once; a str field
    that ``escape`` leaves as it is is its own texts, the very str objects
    of its cells."""
    floats = [field for field in fields if field.dtype.kind == "f"]
    float_cells = iter(_float_texts(floats, float_texts) if floats else ())
    out = []
    for field in fields:
        if field.dtype.kind == "f":
            out.append(next(float_cells))
        elif field.dtype.kind == "i":
            out.append(list(map(int.__repr__, field.tolist())))
        else:
            cells = field.tolist()
            texts = {cell: escape(cell) for cell in set(cells)}
            plain = all(cell == text for cell, text in texts.items())
            out.append(cells if plain else list(map(texts.__getitem__, cells)))
    return out


def _one_value(column):
    """True if every cell of ``column`` equals its first, floats by bit
    pattern.  Str cells are compared by Python's ``==``, which meets a shared
    label string by identity and is faster than numpy's compare of object
    cells; a str column whose last cell differs from its first is not even
    listed."""
    if column.dtype.kind == "O":
        first = column[0]
        return column[-1] == first and column.tolist().count(first) == len(column)
    same = column.view(np.int64) if column.dtype.kind == "f" else column
    return bool((same == same[0]).all())


def _write_rows(fh, rows, head, seps, tail, between, float_texts, escape, block_rows):
    """Write each row of the :class:`Columns` ``rows`` as ``head``, its cells
    with ``seps`` between them, and ``tail``, with ``between`` between rows,
    in blocks of ``block_rows`` rows.

    A column with one value in every row has its text written into the text
    around the other cells, once.  The cells of each block are sliced from
    the columns and made text by :func:`_cell_texts`, and the block is one
    join.
    """
    size = len(rows)
    if not size:
        return
    # the texts around the cells that vary, one more than those columns
    fixed, varying = [head], []
    for column, sep in zip(rows.values(), [*seps, tail]):
        if _one_value(column):
            fixed[-1] += _cell_texts([column[:1]], float_texts, escape)[0][0] + sep
        else:
            varying.append(column)
            fixed.append(sep)
    # a row: the text between rows and the head, then each cell and the text after it
    unit = [between + fixed[0]] + [piece for text in fixed[1:] for piece in (None, text)]
    for start in range(0, size, block_rows):
        stop = min(start + block_rows, size)
        parts = unit * (stop - start)
        if not start:
            parts[0] = fixed[0]
        texts = _cell_texts([column[start:stop] for column in varying], float_texts, escape)
        for i in range(len(varying)):
            parts[2 * i + 1::len(unit)] = texts[i]
        fh.write("".join(parts))
        # freed before the next block's texts are made: kept alive beside
        # them, they left the allocator's arenas fragmented and raised a
        # chart run's peak RSS by about 1 MB
        del parts, texts


def _write_csv(fh, meta, header, rows):
    for key in ("tool", "version", "command", "schema", "config_hash", "status"):
        fh.write(f"# {key}={meta[key]}\n")
    csv.writer(fh, lineterminator="\n").writerow(header)
    # csv.writer quotes a lone empty field
    escape = _csv_field if len(header) > 1 else lambda text: _csv_field(text) or '""'
    _write_rows(fh, rows, "", [","] * (len(header) - 1), "\n", "",
                _csv_float_texts, escape, _BLOCK_ROWS)


def _write_json(fh, meta, header, rows):
    fh.write(json.dumps({"meta": meta}, indent=1)[:-2])  # without the final "\n}"
    if not len(rows):
        fh.write(',\n "rows": []\n}\n')
        return
    fh.write(',\n "rows": [\n')
    escape = json.encoder.encode_basestring_ascii
    keys = [escape(key) + ": " for key in header]
    _write_rows(fh, rows, "  {\n   " + keys[0], [",\n   " + key for key in keys[1:]],
                "\n  }", ",\n", _json_float_texts, escape, _JSON_BLOCK_ROWS)
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
    "epsilon": floquet.DEFAULT_EPSILON,
    "cross_check": {
        "enabled": False,
        "periods": 10000,
        "photon_cap": gaussian.PHOTON_CAP,
    },
}


def _axis_values(cfg, name):
    lo = _require_number(cfg, f"{name}.min")
    hi = _require_number(cfg, f"{name}.max")
    steps = _require_count(cfg, f"{name}.steps", 2)
    if not lo < hi:
        raise ConfigError(f"{name}: require min < max")
    return np.linspace(lo, hi, steps)


#: The cross-check's verdicts, indexed by "diverged": shared label strings.
_OUTCOMES = np.array(["bounded", "diverged"], dtype=object)


def run_sweep(cfg) -> RunResult:
    """Stability map over the (gamma*tau1, omega*tau2) grid.

    The grid's pair maps are built once; the whole stack is classified in
    one pass, and the cross-check evolves the same stack, every grid point
    together.
    """
    gammas = _axis_values(cfg, "gamma_tau1")
    with _usage_errors():
        floquet._require_gamma_tau1(gammas[-1])
    thetas = _axis_values(cfg, "omega_tau2")
    epsilon = _require_number(cfg, "epsilon", positive=True)
    enabled = cfg["cross_check"]["enabled"]
    if not isinstance(enabled, bool):
        raise ConfigError("cross_check.enabled must be true or false")
    periods = _require_count(cfg, "cross_check.periods", 1)
    cap = _require_number(cfg, "cross_check.photon_cap", positive=True)

    # unit segment durations, as DriveSchedule.from_products: period 2
    pair = floquet.pair_map(gammas, thetas)
    half_trace, classes, exponent = floquet.classify_stack(pair, 2.0, epsilon)
    half_trace, classes = half_trace.ravel(), classes.ravel()
    columns = {"gamma_tau1": np.repeat(gammas, thetas.size),
               "omega_tau2": np.tile(thetas, gammas.size),
               "half_trace": half_trace, "classification": classes,
               "floquet_exponent": exponent.ravel()}
    if enabled:
        diverged = gaussian._pair_stack_diverges(pair, periods, cap).ravel()
        unstable = floquet._band_index(half_trace, epsilon) == 2
        disagree = (np.abs(half_trace - 1.0) > 1e-3) & (unstable != diverged)
        columns["gaussian_outcome"] = _OUTCOMES[diverged.view(np.int8)]
        columns["disagreement"] = disagree.astype(np.int64)
    return _table(columns)


# --- simulate ----------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "schedule": {"gamma": None, "tau1": None, "omega": None, "tau2": None,
                 "periods": None},
    "modes": 2,
    "backend": "gaussian",
    "cutoff": None,
    "initial": {"type": "vacuum", "alpha": None, "occupations": None},
    "photon_cap": gaussian.PHOTON_CAP,
}


def _schedule_from_config(cfg):
    periods = _require_count(cfg, "schedule.periods", 0)
    values = {key: _require_number(cfg, f"schedule.{key}")
              for key in ("gamma", "tau1", "omega", "tau2")}
    with _usage_errors():
        schedule = floquet.DriveSchedule(**values, periods=periods)
        floquet._require_gamma_tau1(schedule.gamma_tau1)
    return schedule


def _parse_alphas(alpha, modes):
    """``initial.alpha`` as one complex amplitude per mode: ``modes`` [re, im]
    pairs of finite numbers by ``floquet._require_finite``."""
    cells = np.asarray(alpha, dtype=object)
    if cells.shape != (modes, 2) or any(isinstance(v, (list, dict)) for v in cells.flat):
        raise ConfigError(f"initial.alpha must be a list of {modes} [re, im] pairs")
    with _usage_errors():  # as floats: an int beyond int64 would make an object array
        arr = floquet._require_finite("initial.alpha", list(map(_json_float, cells.flat)))
    return arr[0::2] + 1j * arr[1::2]


def _read_initial(initial, modes):
    """The initial block's type, amplitudes and occupations; a non-null
    ``alpha`` or ``occupations`` is checked whatever the type and backend."""
    kind, alphas, occupations = initial["type"], initial["alpha"], initial["occupations"]
    if alphas is not None:
        alphas = _parse_alphas(alphas, modes)
    elif kind == "coherent":
        raise ConfigError("initial.alpha required for a coherent state")
    if (occupations is not None or kind == "number") and (
            not isinstance(occupations, list) or len(occupations) != modes
            or not all(_is_int(n) for n in occupations)):
        raise ConfigError(f"initial.occupations must list {modes} integers")
    return kind, alphas, occupations


def _initial_gaussian(initial, modes):
    kind, alphas, _ = _read_initial(initial, modes)
    if kind == "vacuum":
        return gaussian.vacuum_state(modes)
    if kind == "coherent":
        with _usage_errors():
            return gaussian.coherent_state(alphas)
    raise ConfigError(f"initial state type {kind!r} not supported by the "
                      "gaussian backend (use vacuum or coherent)")


def _initial_fock(initial, modes, cutoff):
    from . import fock  # on first use: a Gaussian run never loads it
    kind, alphas, occupations = _read_initial(initial, modes)
    with _usage_errors():
        if kind == "vacuum":
            return fock.vacuum_state(cutoff, modes)
        if kind == "coherent":
            return fock.coherent_state(cutoff, alphas)
        if kind == "number":
            return fock.number_state(cutoff, *occupations)
    raise ConfigError(f"unknown initial state type {kind!r}")


def run_simulate(cfg) -> RunResult:
    """Per-period photon record for one schedule."""
    schedule = _schedule_from_config(cfg)
    modes = _require_count(cfg, "modes", 1, 2)
    backend = cfg["backend"]
    if backend not in ("gaussian", "fock", "both"):
        raise ConfigError("backend must be gaussian, fock or both")
    cutoff = cfg["cutoff"]
    if cutoff is not None or backend != "gaussian":  # the fock backend needs one
        from . import fock  # on first use, as in _initial_fock
        cutoff = _require_count(cfg, "cutoff", 1, fock.MAX_CUTOFF[modes])
    photon_cap = _require_number(cfg, "photon_cap", positive=True)
    report = floquet.classify_schedule(schedule)

    gauss_traj = fock_traj = None
    if backend in ("gaussian", "both"):
        state = _initial_gaussian(cfg["initial"], modes)
        gauss_traj = gaussian.evolve(state, schedule, photon_cap=photon_cap)
    if backend in ("fock", "both"):
        state = _initial_fock(cfg["initial"], modes, cutoff)
        with _usage_errors():  # an initial state that is not cutoff-safe
            fock_traj = fock.propagate(state, schedule, photon_cap=photon_cap)

    # the fock record is printed whenever it exists; a run stopped by a guard
    # records fewer periods, and the table ends with the shorter record
    if backend == "gaussian":
        per_mode, total = gauss_traj.photons_per_mode, gauss_traj.photon_totals
    else:
        per_mode, total = fock_traj.n_per_mode, fock_traj.n_total
    steps = total.size
    if backend == "both":
        steps = min(steps, gauss_traj.photon_totals.size)
    mode_cols = ["n_a", "n_b"] if modes == 2 else ["n"]
    # np.full would cast the label to a fixed-width array and back, one new
    # str per cell; repeat shares the one label string
    label = np.array([report.classification.value], dtype=object)
    columns = {"period": np.arange(steps), **dict(zip(mode_cols, per_mode[:steps].T)),
               "n_total": total[:steps], "half_trace": np.full(steps, report.half_trace),
               "classification": label.repeat(steps)}
    if backend == "fock":
        columns["norm_drift"] = fock_traj.norm_drift[:steps]
        columns["leakage"] = fock_traj.leakage[:steps]
    if backend == "both":
        columns["delta_" + mode_cols[0]] = (fock_traj.n_per_mode[:steps, 0]
                                            - gauss_traj.photons_per_mode[:steps, 0])

    status = []
    if gauss_traj is not None and gauss_traj.diverged:
        status.append("gaussian-diverged")
    if fock_traj is not None and fock_traj.status != "ok":
        status.append(f"fock-{fock_traj.status}")
    return _table(columns, ";".join(status) or "ok")


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
    floquet._require_real("coupling rate Gamma_c", rate, positive=True)
    return rate


def run_estimate(cfg) -> RunResult:
    values = {k: _require_number(cfg, k, positive=True) for k in ESTIMATE_DEFAULTS}
    with _usage_errors():
        gamma_c = coupling_rate(values["eta"], values["chi2"], values["omega_a"],
                                values["omega_b"], values["pump_intensity"])
        gamma_tau1 = gamma_c * values["length"]
        floquet._require_real("gamma_tau1 = Gamma_c * length", gamma_tau1, positive=True)
    cells = {**values, "gamma_c_per_m": gamma_c, "gamma_tau1": gamma_tau1}
    return _table({name: [value] for name, value in cells.items()})


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
    try:
        _write_output(args.out, args.format, meta, result.header, result.rows)
    except OSError as exc:
        print(f"zenofloquet {args.command}: cannot write {args.out or 'stdout'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    return int(result.status != "ok")


if __name__ == "__main__":
    sys.exit(main())
