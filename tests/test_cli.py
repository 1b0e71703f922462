"""CLI subcommands: deterministic output, schemas, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shlex
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from zenofloquet import _g17, cli, floquet, fock, gaussian


SCHEDULE = {"gamma": 0.1, "tau1": 1.0, "omega": 0.5, "tau2": 1.0, "periods": 3}


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(body))
    return meta, rows[0], rows[1:]


@pytest.mark.parametrize("run, cfg, status", [
    (cli.run_sweep, cli.SWEEP_DEFAULTS, "ok"),
    (cli.run_simulate, {**cli.SIMULATE_DEFAULTS, "schedule": {
        "gamma": 0.5, "tau1": 1.0, "omega": 0.1, "tau2": 1.0, "periods": 3000}},
     "gaussian-diverged"),
    (cli.run_estimate, dict.fromkeys(cli.ESTIMATE_DEFAULTS, 1.0), "ok"),
])
def test_subcommands_return_one_result_shape(run, cfg, status):
    result = run(cfg)
    assert isinstance(result, cli.RunResult)
    assert result[1] is result.rows
    assert list(result.rows) == result.header
    assert result.status == status


def _row_tuples(rows):
    """The rows of a column table as tuples of Python values, as a row loop
    would build them."""
    return list(zip(*(column.tolist() for column in rows.values())))


SMALL_SWEEP = {**cli.SWEEP_DEFAULTS,
               "gamma_tau1": {"min": 0.0, "max": 1.5, "steps": 3},
               "omega_tau2": {"min": 0.0, "max": 3.0, "steps": 4},
               "cross_check": {"enabled": True, "periods": 50, "photon_cap": 1e12}}


@pytest.mark.parametrize("run, cfg, count", [
    (cli.run_sweep, {**SMALL_SWEEP, "cross_check": cli.SWEEP_DEFAULTS["cross_check"]}, 12),
    (cli.run_sweep, SMALL_SWEEP, 12),
    *[(cli.run_simulate, {**cli.SIMULATE_DEFAULTS, "schedule": SCHEDULE,
                          "modes": modes, "backend": backend, "cutoff": 10}, 4)
      for modes in (1, 2) for backend in ("gaussian", "fock", "both")],
    (cli.run_simulate, {**cli.SIMULATE_DEFAULTS, "schedule": {
        "gamma": 0.5, "tau1": 1.0, "omega": 0.1, "tau2": 1.0, "periods": 3000}}, 30),
    (cli.run_estimate, dict.fromkeys(cli.ESTIMATE_DEFAULTS, 1.0), 1),
], ids=["sweep", "sweep-cross-check"] + [
    f"simulate-{backend}-{modes}" for modes in (1, 2)
    for backend in ("gaussian", "fock", "both")] + ["simulate-diverged", "estimate"])
def test_rows_are_one_typed_field_per_header_name(run, cfg, count):
    """``rows`` holds the columns: ``len`` counts the table rows, and each
    header name, in header order, is a contiguous column of that length of
    float64, int64 or str cells."""
    header, rows, _ = run(cfg)
    assert isinstance(rows, cli.Columns)
    assert len(rows) == count
    assert list(rows) == header
    for name, column in rows.items():
        assert column.shape == (count,) and column.flags.c_contiguous, name
        assert column.dtype in (np.float64, np.int64) or (
            column.dtype == object and {type(cell) for cell in column.tolist()} == {str}), (
            name, column.dtype)


@pytest.mark.parametrize("run, cfg, count", [
    (cli.run_sweep, SMALL_SWEEP, 12),
    (cli.run_simulate, {**cli.SIMULATE_DEFAULTS, "schedule": SCHEDULE}, 4),
    (cli.run_estimate, dict.fromkeys(cli.ESTIMATE_DEFAULTS, 1.0), 1),
], ids=["sweep", "simulate", "estimate"])
def test_len_of_rows_is_the_row_count(run, cfg, count):
    """``bench/spans.py`` counts a run's rows as ``len(result[1])``: that
    is the number of rows, not of columns (7, 6 and 8 here)."""
    result = run(cfg)
    assert len(result[1]) == count != len(result.header)
    assert all(len(column) == count for column in result[1].values())


def test_label_cells_are_shared_value_strings():
    """The sweep's label cells are the ``Classification`` value objects and
    the two outcome strings themselves, not copies, and so are a simulate
    run's; the sweep's ``disagreement`` equals the one computed from
    fixed-width copies of the labels."""
    header, rows, _ = cli.run_sweep({**SMALL_SWEEP, "gamma_tau1": {
        "min": 0.0, "max": 1.5, "steps": 31}, "omega_tau2": {"min": 0.0, "max": 3.0, "steps": 29}})
    values = {c.value: c.value for c in floquet.Classification}
    classes = rows["classification"]
    assert classes.dtype == object and rows["gaussian_outcome"].dtype == object
    assert all(cell is values[cell] for cell in classes.tolist())
    assert set(classes.tolist()) == set(values)
    outcomes = rows["gaussian_outcome"].tolist()
    assert set(outcomes) == {"bounded", "diverged"}
    assert len({id(cell) for cell in outcomes}) == 2
    labels, verdicts = classes.astype("U8"), rows["gaussian_outcome"].astype("U8")
    disagree = (np.abs(rows["half_trace"] - 1.0) > 1e-3) & (
        (labels == "unstable") != (verdicts == "diverged"))
    assert rows["disagreement"].tolist() == disagree.astype(np.int64).tolist()
    assert rows["disagreement"].any()
    simulated = cli.run_simulate({**cli.SIMULATE_DEFAULTS, "schedule": SCHEDULE}).rows
    assert all(cell is values["stable"] for cell in simulated["classification"].tolist())


class TestEstimate:
    def test_reference_inputs_reproduce_quoted_orders(self, tmp_path):
        """Hand-evaluated: eta^3/2 * chi2^2 * wa * wb * Ip = 1.91664e-3 m^-2."""
        out = tmp_path / "est.csv"
        code = run_cli([
            "estimate", "--eta", "220", "--chi2", "2e-23",
            "--omega-a", "3e15", "--omega-b", "3e15",
            "--pump-intensity", "1e5", "--length", "1e-2",
            "--out", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        gamma_c = float(record["gamma_c_per_m"])
        assert gamma_c == pytest.approx(math.sqrt(1.91664e-3), rel=1e-12)
        # quoted orders: ~0.1 1/m and ~0.001, both within a factor of 3
        assert 0.1 / 3 <= gamma_c <= 0.1 * 3
        gamma_tau1 = float(record["gamma_tau1"])
        assert gamma_tau1 == pytest.approx(gamma_c * 1e-2, rel=1e-12)
        assert 0.001 / 3 <= gamma_tau1 <= 0.001 * 3

    def test_pump_power_square_root_scaling(self, tmp_path):
        values = []
        for ip in ("1e5", "2e5"):
            out = tmp_path / f"est{ip}.csv"
            run_cli(["estimate", "--eta", "220", "--chi2", "2e-23",
                     "--omega-a", "3e15", "--omega-b", "3e15",
                     "--pump-intensity", ip, "--length", "1e-2",
                     "--out", str(out)])
            _, header, rows = read_csv(out)
            values.append(float(dict(zip(header, rows[0]))["gamma_c_per_m"]))
        assert values[1] / values[0] == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_nonpositive_input_is_usage_error(self, tmp_path):
        code = run_cli(["estimate", "--eta", "-220", "--chi2", "2e-23",
                        "--omega-a", "3e15", "--omega-b", "3e15",
                        "--pump-intensity", "1e5", "--length", "1e-2"])
        assert code == 2

    def test_missing_input_is_usage_error(self):
        assert run_cli(["estimate", "--eta", "220"]) == 2

    @pytest.mark.parametrize("inputs, message", [
        (["--eta", "1e200", "--chi2", "1", "--omega-a", "1", "--omega-b", "1",
          "--pump-intensity", "1", "--length", "1"], "Gamma_c must be finite and > 0, got inf"),
        (["--eta", "1", "--chi2", "1", "--omega-a", "1e300", "--omega-b", "1e300",
          "--pump-intensity", "1", "--length", "1"], "Gamma_c must be finite and > 0, got inf"),
        (["--eta", "1", "--chi2", "1", "--omega-a", "1", "--omega-b", "1",
          "--pump-intensity", "10", "--length", "1e308"], "gamma_tau1"),
    ], ids=["power-overflow", "product-overflow", "length-overflow"])
    def test_overflow_is_usage_error(self, capsys, inputs, message):
        """An overflowing rate is a usage error, never a traceback or an inf."""
        assert run_cli(["estimate", *inputs]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("inputs, message", [
        (["--eta", "1e-200", "--chi2", "1", "--omega-a", "1", "--omega-b", "1",
          "--pump-intensity", "1", "--length", "1"], "Gamma_c must be finite and > 0, got 0.0"),
        (["--eta", "1e-100", "--chi2", "1", "--omega-a", "1", "--omega-b", "1",
          "--pump-intensity", "1", "--length", "1e-200"],
         "gamma_tau1 = Gamma_c * length must be finite and > 0, got 0.0"),
    ], ids=["power-underflow", "length-underflow"])
    def test_underflow_is_usage_error(self, capsys, inputs, message):
        """A rate that underflows to 0 is a usage error, never a silent 0."""
        assert run_cli(["estimate", *inputs]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_photon_cap_defaults_are_the_library_default():
    """One default cap: both CLI keys read ``gaussian.PHOTON_CAP``."""
    assert cli.SWEEP_DEFAULTS["cross_check"]["photon_cap"] is gaussian.PHOTON_CAP
    assert cli.SIMULATE_DEFAULTS["photon_cap"] is gaussian.PHOTON_CAP


class TestSweep:
    def test_output_is_byte_identical_across_runs(self, tmp_path):
        args = ["sweep", "--gamma-tau1", "0", "1.5", "31",
                "--omega-tau2", "0", "3.141592653589793", "31"]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert run_cli(args + ["--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_columns_and_boundary_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["sweep", "--gamma-tau1", "0", "1.0", "3",
                 "--omega-tau2", "0", "1.0", "3", "--out", str(out)])
        meta, header, rows = read_csv(out)
        assert header == ["gamma_tau1", "omega_tau2", "half_trace",
                          "classification", "floquet_exponent"]
        assert meta["schema"] == "sweep.v1"
        assert len(meta["config_hash"]) == 64
        table = {(float(r[0]), float(r[1])): r for r in rows}
        # no-pump line is never unstable
        for key, row in table.items():
            if key[0] == 0.0:
                assert row[3] in ("stable", "marginal")
        # pure pump line is unstable with positive growth rate
        row = table[(1.0, 0.0)]
        assert row[3] == "unstable"
        assert float(row[4]) > 0
        assert float(row[2]) == pytest.approx(math.cosh(1.0), abs=1e-12)

    def test_known_unstable_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["sweep", "--gamma-tau1", "0.5", "0.6", "2",
                 "--omega-tau2", "0.1", "0.2", "2", "--out", str(out)])
        _, header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["classification"] == "unstable"
        assert float(record["half_trace"]) == pytest.approx(
            math.cos(0.1) * math.cosh(0.5), abs=1e-12)

    def test_vertical_line_crossing_matches_arccosh(self, tmp_path):
        """Scanning down in gamma*tau1 at omega*tau2 = 1 turns stable at
        arccosh(1/cos 1) = 1.22619..."""
        out = tmp_path / "line.csv"
        run_cli(["sweep", "--gamma-tau1", "0", "1.5", "151",
                 "--omega-tau2", "1.0", "1.0000001", "2", "--out", str(out)])
        _, header, rows = read_csv(out)
        crossing = math.acosh(1.0 / math.cos(1.0))
        for row in rows:
            record = dict(zip(header, row))
            if abs(float(record["omega_tau2"]) - 1.0) > 1e-6:
                continue
            g = float(record["gamma_tau1"])
            if abs(g - crossing) < 1e-9:
                continue
            expected = "stable" if g < crossing else "unstable"
            assert record["classification"] == expected, g

    def test_cross_check_never_contradicts_outside_band(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "gamma_tau1": {"min": 0.0, "max": 1.5, "steps": 31},
            "omega_tau2": {"min": 0.0, "max": math.pi, "steps": 31},
            "cross_check": {"enabled": True, "periods": 2000},
        }))
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header[-2:] == ["gaussian_outcome", "disagreement"]
        for row in rows:
            record = dict(zip(header, row))
            assert record["disagreement"] == "0"
            if abs(float(record["half_trace"]) - 1.0) > 1e-3:
                expected = "diverged" if record["classification"] == "unstable" \
                    else "bounded"
                assert record["gaussian_outcome"] == expected

    def test_large_gamma_tau1_keeps_determinant_within_rounding(self, tmp_path):
        """Past gamma*tau1 ~ 8.5, a*d - b*c of a correct map misses 1 by more
        than 1e-9; the determinant rule must allow its rounding."""
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--gamma-tau1", "0", "12", "3",
                        "--omega-tau2", "0", "1", "2", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [r[3] for r in rows] == ["marginal", "stable"] + ["unstable"] * 4

    @pytest.mark.filterwarnings("error")
    def test_gamma_tau1_at_the_limit_stays_finite(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--cross-check",
                        "--gamma-tau1", "0", repr(floquet.MAX_GAMMA_TAU1), "2",
                        "--omega-tau2", "0", repr(math.pi / 2), "3",
                        "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        for row in rows[3:]:
            record = dict(zip(header, row))
            assert record["classification"] == "unstable"
            assert math.isfinite(float(record["floquet_exponent"]))
            assert record["gaussian_outcome"] == "diverged"

    def test_cross_check_cap_near_float_range_is_quiet(self, tmp_path):
        """With a cap near float64's range the cross-check's squared entries
        overflow to inf, which still marks the drive diverged; no numpy
        warning reaches stderr, and stdout keeps the digest it had while
        the warnings were printed."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cross_check": {
            "enabled": True, "periods": 500, "photon_cap": 1e300}}))
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "zenofloquet", "sweep", "--config", str(cfg)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, timeout=300)
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert hashlib.sha256(proc.stdout).hexdigest() == \
            "5b42bebaabce9f5df28d23e2c19f25d42cb11f5da98b138f0195b82b017a982b"

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        run_cli(["sweep", "--gamma-tau1", "0", "1", "2",
                 "--omega-tau2", "0", "1", "2", "--format", "json",
                 "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["meta"]["tool"] == "zenofloquet"
        assert payload["meta"]["command"] == "sweep"
        assert len(payload["rows"]) == 4
        assert set(payload["rows"][0]) == {
            "gamma_tau1", "omega_tau2", "half_trace", "classification",
            "floquet_exponent"}

    def test_invalid_range_is_usage_error(self):
        assert run_cli(["sweep", "--gamma-tau1", "1", "0", "5"]) == 2
        assert run_cli(["sweep", "--gamma-tau1", "0", "1", "1"]) == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for extra, key in (({"gamma_tau": {"min": 0}}, "gamma_tau"),
                           ({"cross_check": {"cutoff": None}}, "cross_check.cutoff")):
            cfg.write_text(json.dumps(extra))
            assert run_cli(["sweep", "--config", str(cfg)]) == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_zf_threads_env(self, tmp_path, monkeypatch):
        """ZF_THREADS is retired: the sweep neither reads nor validates it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "gamma_tau1": {"min": 0.0, "max": 1.0, "steps": 5},
            "omega_tau2": {"min": 0.0, "max": 1.0, "steps": 5},
            "cross_check": {"enabled": True, "periods": 100},
        }))
        out = tmp_path / "s.csv"
        monkeypatch.delenv("ZF_THREADS", raising=False)
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        unset = out.read_bytes()
        monkeypatch.setenv("ZF_THREADS", "zzz")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes() == unset

    @pytest.mark.parametrize("cfg", [
        {"gamma_tau1": {"steps": True}},
        {"omega_tau2": {"steps": True}},
        {"cross_check": {"enabled": True, "periods": True}},
    ])
    def test_json_boolean_is_not_an_integer(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["sweep", "--config", str(path)]) == 2

    @pytest.mark.parametrize("cfg, key, value", [
        ({"epsilon": True}, "epsilon", True),
        ({"gamma_tau1": {"min": False, "max": 1.0, "steps": 3}}, "gamma_tau1.min", False),
        ({"cross_check": {"enabled": True, "periods": 5, "photon_cap": True}},
         "cross_check.photon_cap", True),
        ({"epsilon": "0.1"}, "epsilon", "0.1"),
    ], ids=["epsilon", "axis-min", "cross-check-cap", "epsilon-string"])
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, cfg, key, value):
        grid = {"gamma_tau1": {"min": 0.0, "max": 1.0, "steps": 2},
                "omega_tau2": {"min": 0.0, "max": 1.0, "steps": 2}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**grid, **cfg}))
        assert run_cli(["sweep", "--config", str(path)]) == 2
        assert f": {key} must be a number, got {value!r}\n" in capsys.readouterr().err


class TestSimulate:
    def test_vacuum_without_pump_is_flat_zero(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", "--gamma", "0", "--tau1", "1",
                        "--omega", "0.5", "--tau2", "1", "--periods", "6",
                        "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header[:4] == ["period", "n_a", "n_b", "n_total"]
        assert len(rows) == 7
        for row in rows:
            assert float(dict(zip(header, row))["n_total"]) == pytest.approx(
                0.0, abs=1e-12)

    def test_pure_squeezing_series_closed_form(self, tmp_path):
        out = tmp_path / "run.csv"
        run_cli(["simulate", "--gamma", "0.1", "--tau1", "1", "--omega", "0",
                 "--tau2", "1", "--periods", "10", "--out", str(out)])
        _, header, rows = read_csv(out)
        for row in rows:
            record = dict(zip(header, row))
            n = int(record["period"])
            assert float(record["n_a"]) == pytest.approx(
                math.sinh(0.1 * n) ** 2, rel=1e-9, abs=1e-15)

    def test_stable_point_long_run_bounded(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", "--gamma", "0.1", "--tau1", "1",
                        "--omega", "1.0", "--tau2", "1", "--periods", "1000",
                        "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        totals = [float(dict(zip(header, r))["n_total"]) for r in rows]
        assert len(totals) == 1001
        assert max(totals) < 1.0

    def test_both_backends_agree(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", "--gamma", "0.05", "--tau1", "1",
                        "--omega", "0.9", "--tau2", "1", "--periods", "10",
                        "--backend", "both", "--cutoff", "30",
                        "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header[-1] == "delta_n_a"
        for row in rows:
            assert abs(float(dict(zip(header, row))["delta_n_a"])) < 1e-6

    def test_fock_backend_columns_and_drift(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", "--gamma", "0.05", "--tau1", "1",
                        "--omega", "0.3", "--tau2", "1", "--periods", "5",
                        "--backend", "fock", "--cutoff", "25",
                        "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header[-2:] == ["norm_drift", "leakage"]
        for row in rows:
            record = dict(zip(header, row))
            assert abs(float(record["norm_drift"])) < 1e-12
            assert float(record["leakage"]) < 1e-8

    def test_truncation_guard_exit_code_and_marking(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", "--gamma", "0.4", "--tau1", "1",
                        "--omega", "0", "--tau2", "1", "--periods", "30",
                        "--backend", "fock", "--cutoff", "12",
                        "--out", str(out)])
        assert code == 1
        meta, _, rows = read_csv(out)
        assert meta["status"] == "fock-truncation-unsafe"
        assert rows  # partial output still emitted

    def test_divergence_guard_exit_code(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", "--gamma", "0.5", "--tau1", "1",
                        "--omega", "0.1", "--tau2", "1", "--periods", "3000",
                        "--out", str(out)])
        assert code == 1
        meta, _, rows = read_csv(out)
        assert meta["status"] == "gaussian-diverged"
        assert len(rows) < 3001

    def test_large_gamma_tau1_ends_in_divergence_guard(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", "--gamma", "30", "--tau1", "1",
                        "--omega", "0", "--tau2", "1", "--periods", "3",
                        "--out", str(out)])
        assert code == 1
        meta, _, rows = read_csv(out)
        assert meta["status"] == "gaussian-diverged"
        assert len(rows) == 2

    def test_single_mode_schema(self, tmp_path):
        out = tmp_path / "run.csv"
        run_cli(["simulate", "--gamma", "0.1", "--tau1", "1", "--omega", "0",
                 "--tau2", "1", "--periods", "4", "--modes", "1",
                 "--out", str(out)])
        _, header, rows = read_csv(out)
        assert header[:3] == ["period", "n", "n_total"]
        record = dict(zip(header, rows[-1]))
        assert float(record["n"]) == pytest.approx(math.sinh(0.4) ** 2, rel=1e-9)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schedule": {"gamma": 0.1, "tau1": 1.0, "omega": 0.0,
                         "tau2": 1.0, "periods": 5},
        }))
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", "--config", str(cfg), "--periods", "3",
                        "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 4  # flag override wins over config file

    def test_coherent_initial_state_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schedule": {"gamma": 0.0, "tau1": 1.0, "omega": 0.7,
                         "tau2": 1.0, "periods": 8},
            "initial": {"type": "coherent", "alpha": [[1.0, 0.0], [0.0, 0.0]]},
        }))
        out = tmp_path / "run.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        totals = [float(dict(zip(header, r))["n_total"]) for r in rows]
        np.testing.assert_allclose(totals, 1.0, atol=1e-12)  # sum conserved

    @pytest.mark.parametrize("backend", ["gaussian", "fock"])
    @pytest.mark.parametrize("alpha, message", [
        ([["a", 0], [0, 0]], "initial.alpha must be finite and real, got "),
        ([[1, 0], [0]], "initial.alpha must be a list of 2 [re, im] pairs\n"),
        ([[None, 0], [0, 0]], "initial.alpha must be finite and real, got "),
        ([[1e400, 0], [0, 0]], "initial.alpha must be finite and real, got "),
        ([[True, 0], [0, 0]], "initial.alpha must be finite and real, got "),
    ], ids=[f"alpha{i}" for i in range(5)])
    def test_malformed_alpha_is_usage_error(self, tmp_path, capsys, backend, alpha, message):
        """A ragged list is the CLI's shape error; a bad entry is the
        library's finite-real rule under the full key."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"initial": {"type": "coherent", "alpha": alpha}}))
        code = run_cli(["simulate", "--config", str(cfg), "--gamma", "0.1", "--tau1", "1",
                        "--omega", "0.5", "--tau2", "1", "--periods", "2",
                        "--backend", backend, "--cutoff", "6"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"zenofloquet simulate: {message}")

    def test_request_too_big_to_allocate_is_usage_error(self, capsys):
        """A sweep axis of 1e18 steps needs 8e18 bytes, more than any address
        space, so its first allocation fails at once: one stderr line and
        exit 2, not a traceback and not the guard code 1."""
        assert run_cli(["sweep", "--gamma-tau1", "0", "1.5", str(10**18)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("zenofloquet sweep: out of memory: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("modes", [1, 2])
    def test_cutoff_above_the_ceiling_is_usage_error(self, capsys, modes):
        """The cutoff ceiling of the mode count is checked before the state
        is allocated: one stderr line naming the bound, and exit 2."""
        ceiling = fock.MAX_CUTOFF[modes]
        assert run_cli(["simulate", "--gamma", "0.1", "--tau1", "1",
                        "--omega", "0.5", "--tau2", "1", "--periods", "2",
                        "--modes", str(modes), "--backend", "fock",
                        "--cutoff", str(ceiling + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"zenofloquet simulate: cutoff {ceiling + 1} "
                                f"outside [1, {ceiling}]\n")

    @pytest.mark.parametrize("occupations", [[10], [10, 0]], ids=["one-mode", "two-modes"])
    def test_leaky_initial_state_is_usage_error(self, tmp_path, capsys, occupations):
        """An initial state with population above 90% of the cutoff is
        refused before the run: one stderr line and exit 2."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"initial": {"type": "number",
                                               "occupations": occupations}}))
        assert run_cli(["simulate", "--config", str(cfg), "--gamma", "0.1",
                        "--tau1", "1", "--omega", "0.5", "--tau2", "1",
                        "--periods", "2", "--modes", str(len(occupations)),
                        "--backend", "fock", "--cutoff", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("zenofloquet simulate: initial state is not "
                                "cutoff-safe (leakage 1.00e+00 at cutoff 10)\n")

    def test_memory_error_without_message_is_named(self, capsys, monkeypatch):
        def run(cfg):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_simulate", run)
        assert run_cli(["simulate"]) == 2
        assert capsys.readouterr().err == \
            "zenofloquet simulate: out of memory: allocation failed\n"

    def test_fock_requires_cutoff(self):
        assert run_cli(["simulate", "--gamma", "0.1", "--tau1", "1",
                        "--omega", "0", "--tau2", "1", "--periods", "2",
                        "--backend", "fock"]) == 2

    def test_number_state_rejected_for_gaussian(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schedule": {"gamma": 0.1, "tau1": 1.0, "omega": 0.0,
                         "tau2": 1.0, "periods": 2},
            "initial": {"type": "number", "occupations": [1, 0]},
        }))
        assert run_cli(["simulate", "--config", str(cfg)]) == 2

    def test_missing_schedule_is_usage_error(self):
        assert run_cli(["simulate", "--gamma", "0.1"]) == 2

    def test_number_state_for_fock_backend(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schedule": {"gamma": 0.0, "tau1": 1.0, "omega": 0.5,
                         "tau2": 1.0, "periods": 5},
            "backend": "fock",
            "cutoff": 10,
            "initial": {"type": "number", "occupations": [1, 0]},
        }))
        out = tmp_path / "run.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        totals = [float(dict(zip(header, r))["n_total"]) for r in rows]
        np.testing.assert_allclose(totals, 1.0, atol=1e-10)

    @pytest.mark.parametrize("cfg", [
        {"schedule": {**SCHEDULE, "periods": True}},
        {"cutoff": True},
        {"modes": True},
        {"initial": {"type": "number", "occupations": [True, 0]}},
    ])
    def test_json_boolean_is_not_an_integer(self, tmp_path, cfg):
        base = {"schedule": SCHEDULE, "backend": "fock", "cutoff": 10, **cfg}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base))
        assert run_cli(["simulate", "--config", str(path),
                        "--out", str(tmp_path / "run.csv")]) == 2
        # with 1 in place of the boolean the config is valid (at cutoff 1
        # the leakage guard may trip, exit 1)
        path.write_text(json.dumps(base).replace("true", "1"))
        assert run_cli(["simulate", "--config", str(path),
                        "--out", str(tmp_path / "run.csv")]) in (0, 1)

    @pytest.mark.parametrize("cfg, key, value", [
        ({"schedule": {**SCHEDULE, "gamma": True}}, "schedule.gamma", True),
        ({"schedule": {**SCHEDULE, "omega": False}}, "schedule.omega", False),
        ({"photon_cap": True}, "photon_cap", True),
        ({"schedule": {**SCHEDULE, "gamma": "0.1"}}, "schedule.gamma", "0.1"),
    ], ids=["schedule-gamma", "schedule-omega", "photon-cap", "schedule-gamma-string"])
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, cfg, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schedule": SCHEDULE, **cfg}))
        assert run_cli(["simulate", "--config", str(path)]) == 2
        assert f": {key} must be a number, got {value!r}\n" in capsys.readouterr().err


#: An initial amplitude whose ``|alpha|^2`` overflows float64.
HUGE_ALPHA = {"schedule": SCHEDULE, "cutoff": 10,
              "initial": {"type": "coherent", "alpha": [[1e200, 0.0], [0.0, 0.0]]}}
#: An amplitude whose ``|alpha|^2`` float64 holds, but not the squared
#: quadrature mean ``2 |alpha|^2`` that the Gaussian engine forms.
BIG_MEAN_ALPHA = {**HUGE_ALPHA, "initial": {"type": "coherent",
                                            "alpha": [[1.2e154, 0.0], [0.0, 0.0]]}}
#: ``(id, argv, config or None)`` of usage errors, a config as an object or
#: as JSON text: the manifest's usage cases, the two overflowing amplitudes
#: on each backend, one bad value for each config reader (number, count,
#: amplitude) and two JSON integers that no float holds.
USAGE_CASES = [
    (case["id"], case["argv"], case.get("config"))
    for case in json.loads(Path(__file__).with_name("cli_manifest.json").read_text())
    if case["id"].startswith("usage-")
] + [
    (f"{name}-{backend}", ["simulate", "--backend", backend], cfg)
    for name, cfg in (("huge-alpha", HUGE_ALPHA), ("big-mean-alpha", BIG_MEAN_ALPHA))
    for backend in ("gaussian", "fock", "both")
] + [
    ("number-reader", ["simulate", "--gamma", "-1"], {"schedule": SCHEDULE}),
    ("count-reader", ["sweep", "--gamma-tau1", "0", "1", "1"], None),
    ("amplitude-reader", ["simulate"], {**HUGE_ALPHA, "initial": {
        "type": "coherent", "alpha": [[True, 0], [0, 0]]}}),
    ("alpha-int-beyond-float64", ["simulate"], {**HUGE_ALPHA, "initial": {
        "type": "coherent", "alpha": [[10 ** 400, 0], [0, 0]]}}),
    ("int-too-long-to-read", ["sweep"], '{"epsilon": %s}' % ("1" * 5000)),
]


@pytest.mark.parametrize("argv, config", [case[1:] for case in USAGE_CASES],
                         ids=[case[0] for case in USAGE_CASES])
def test_usage_error_is_one_stderr_line(tmp_path, capsys, argv, config):
    """Every usage error exits 2 and writes exactly one stderr line,
    ``zenofloquet <command>: ...``: no output, no warning (recorded here
    whatever the filters) and no traceback (an exception out of ``main``)."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = [*argv, "--config", str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, caught) == (2, "", [])
    assert captured.err.startswith(f"zenofloquet {argv[0]}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("target", ["missing/out.csv", "."])
def test_unwritable_out_path_is_usage_error(tmp_path, capsys, target):
    """An ``--out`` path that cannot be opened, in a missing directory or a
    directory itself, exits 2 with one stderr line naming the path, as a
    config error does, and no traceback (an exception out of ``main``)."""
    out = str(tmp_path / target)
    code = cli.main(["sweep", "--gamma-tau1", "0", "1", "3", "--omega-tau2", "0", "1", "3",
                     "--out", out])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"zenofloquet sweep: cannot write {out}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("argv", [
    ["sweep", "--gamma-tau1", "400", "401", "2", "--omega-tau2", "0", "1", "2"],
    ["sweep", "--gamma-tau1", "711", "712", "2", "--omega-tau2", "0", "1", "2"],
    ["simulate", "--gamma", "800", "--tau1", "1", "--omega", "0", "--tau2", "1",
     "--periods", "3"],
    ["simulate", "--gamma", "1e200", "--tau1", "1e200", "--omega", "0",
     "--tau2", "1", "--periods", "3"],
])
def test_gamma_tau1_beyond_float64_range_is_usage_error(argv, capsys):
    """cosh(gamma*tau1)^2 overflows near 355: reject, naming the limit."""
    assert run_cli(argv) == 2
    assert repr(floquet.MAX_GAMMA_TAU1) in capsys.readouterr().err


def _grid_axis(lo, hi, steps):
    return {"min": lo, "max": hi, "steps": steps}


@settings(max_examples=60, deadline=None)
@given(g_lo=st.just(0.0) | st.floats(0.0, 2.0), g_span=st.floats(0.01, 1.5),
       g_steps=st.integers(2, 5), w_lo=st.just(0.0) | st.floats(0.0, 3.0),
       w_hi=st.just(math.pi) | st.floats(0.1, 6.0), w_steps=st.integers(2, 5),
       epsilon=st.sampled_from([1e-9, 1e-6, 1e-3, 0.05]),
       periods=st.sampled_from([1, 2, 3, 777]))
@example(g_lo=0.0, g_span=1.5, g_steps=4, w_lo=0.0, w_hi=math.pi, w_steps=5,
         epsilon=1e-9, periods=777)
def test_sweep_matches_pointwise_references(g_lo, g_span, g_steps, w_lo, w_hi,
                                            w_steps, epsilon, periods):
    """The whole-grid sweep equals the per-point references: ``classify`` of
    each point's monodromy bit for bit, and, outside the 1e-3 band, the
    photon-cap verdict of the 4x4 period map's ``periods``-th power."""
    assume(w_lo < w_hi)
    cap = 1e12
    header, rows, status = cli.run_sweep({
        "gamma_tau1": _grid_axis(g_lo, g_lo + g_span, g_steps),
        "omega_tau2": _grid_axis(w_lo, w_hi, w_steps),
        "epsilon": epsilon,
        "cross_check": {"enabled": True, "periods": periods, "photon_cap": cap},
    })
    assert status == "ok"
    gammas = np.linspace(g_lo, g_lo + g_span, g_steps).tolist()
    thetas = np.linspace(w_lo, w_hi, w_steps).tolist()
    assert list(zip(rows["gamma_tau1"].tolist(), rows["omega_tau2"].tolist())) == [
        (g, w) for g in gammas for w in thetas]
    for cells in _row_tuples(rows):
        row = dict(zip(header, cells))
        schedule = floquet.DriveSchedule.from_products(float(row["gamma_tau1"]),
                                                       float(row["omega_tau2"]))
        report = floquet.classify(floquet.monodromy(schedule), 2.0, epsilon)
        assert row["half_trace"] == report.half_trace
        assert row["classification"] == report.classification.value
        assert row["floquet_exponent"] == report.floquet_exponent
        if abs(report.half_trace - 1.0) <= 1e-3:
            assert row["disagreement"] == 0
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            power = np.linalg.matrix_power(
                gaussian.two_mode_period_symplectic(schedule), periods)
            diverged = not np.sum(power**2) / 4.0 - 1.0 <= cap
        unstable = report.classification is floquet.Classification.UNSTABLE
        assert row["gaussian_outcome"] == ("diverged" if diverged else "bounded")
        assert row["disagreement"] == int(unstable != diverged)


# --- each flag is its config key ----------------------------------------------

FLAG_BASES = {
    "sweep": {"gamma_tau1": {"min": 0.5, "max": 1.5, "steps": 3},
              "omega_tau2": {"min": 0.5, "max": 2.5, "steps": 4},
              "cross_check": {"periods": 40}},
    "simulate": {"schedule": SCHEDULE, "cutoff": 14},
    "estimate": {"eta": 220.0, "chi2": 2e-23, "omega_a": 3e15, "omega_b": 3e15,
                 "pump_intensity": 1e5, "length": 0.01},
}


def _merged(base, extra):
    """``base`` with the keys of ``extra`` set, nested objects merged."""
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict):
            value = _merged(base.get(key, {}), value)
        out[key] = value
    return out


FLAG_CASES = [
    ("sweep", ["--gamma-tau1", "0", "1", "5"],
     {"gamma_tau1": {"min": 0.0, "max": 1.0, "steps": 5}}),
    ("sweep", ["--omega-tau2", "0", "1", "5"],
     {"omega_tau2": {"min": 0.0, "max": 1.0, "steps": 5}}),
    ("sweep", ["--epsilon", "0.001"], {"epsilon": 0.001}),
    ("sweep", ["--cross-check"], {"cross_check": {"enabled": True}}),
    ("sweep", ["--cross-check-periods", "5"],
     {"cross_check": {"enabled": True, "periods": 5}}),
    ("simulate", ["--gamma", "0.2"], {"schedule": {"gamma": 0.2}}),
    ("simulate", ["--tau1", "0.5"], {"schedule": {"tau1": 0.5}}),
    ("simulate", ["--omega", "0.7"], {"schedule": {"omega": 0.7}}),
    ("simulate", ["--tau2", "1.5"], {"schedule": {"tau2": 1.5}}),
    ("simulate", ["--periods", "4"], {"schedule": {"periods": 4}}),
    ("simulate", ["--modes", "1"], {"modes": 1}),
    ("simulate", ["--backend", "both"], {"backend": "both"}),
    ("simulate", ["--cutoff", "20"], {"cutoff": 20}),
    ("estimate", ["--eta", "300"], {"eta": 300.0}),
    ("estimate", ["--chi2", "3e-23"], {"chi2": 3e-23}),
    ("estimate", ["--omega-a", "2e15"], {"omega_a": 2e15}),
    ("estimate", ["--omega-b", "4e15"], {"omega_b": 4e15}),
    ("estimate", ["--pump-intensity", "2e5"], {"pump_intensity": 2e5}),
    ("estimate", ["--length", "0.02"], {"length": 0.02}),
]


@pytest.mark.parametrize("command, flag, key", FLAG_CASES,
                         ids=[flag[0] for _, flag, _ in FLAG_CASES])
def test_flag_equals_its_config_key(tmp_path, command, flag, key):
    """A flag gives the bytes of a config file holding its key, config_hash
    line included; the key is also not already the base config's value."""
    base = tmp_path / "base.json"
    base.write_text(json.dumps(FLAG_BASES[command]))
    merged = tmp_path / "merged.json"
    merged.write_text(json.dumps(_merged(FLAG_BASES[command], key)))
    outputs = []
    for argv in (["--config", str(base), *flag], ["--config", str(merged)],
                 ["--config", str(base)]):
        out = tmp_path / f"out{len(outputs)}.csv"
        assert cli.main([command, *argv, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] != outputs[2]


#: A valid config of each subcommand: a 3x3 sweep with the cross-check off,
#: a Gaussian run from a coherent state, and the reference estimate inputs.
EVERY_KEY_BASES = {
    "sweep": {"gamma_tau1": _grid_axis(0.0, 1.5, 3), "omega_tau2": _grid_axis(0.0, 3.0, 3)},
    "simulate": {"schedule": SCHEDULE,
                 "initial": {"type": "coherent", "alpha": [[0.5, 0.0], [0.0, 0.0]]}},
    "estimate": FLAG_BASES["estimate"],
}
DEFAULTS = {"sweep": cli.SWEEP_DEFAULTS, "simulate": cli.SIMULATE_DEFAULTS,
            "estimate": cli.ESTIMATE_DEFAULTS}


def _leaf_keys(defaults, prefix=""):
    """The dotted name of every key of ``defaults`` that holds a value."""
    for key, value in defaults.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


#: Each number and count key of each subcommand, with a value of its JSON
#: kind outside its range.
OUT_OF_RANGE = {
    "sweep": {"gamma_tau1.min": -1.0, "gamma_tau1.max": -1.0, "gamma_tau1.steps": 1,
              "omega_tau2.min": -1.0, "omega_tau2.max": -1.0, "omega_tau2.steps": 1,
              "epsilon": 0.0, "cross_check.periods": 0, "cross_check.photon_cap": 0.0},
    "simulate": {"schedule.gamma": -1.0, "schedule.tau1": -1.0, "schedule.omega": -1.0,
                 "schedule.tau2": -1.0, "schedule.periods": -1, "modes": 3,
                 "cutoff": fock.MAX_CUTOFF[2] + 1, "photon_cap": 0.0},
    "estimate": dict.fromkeys(FLAG_BASES["estimate"], 0.0),
}
#: Each leaf key of each subcommand set to JSON true and to the string "1"
#: (a bool is the one valid kind of cross_check.enabled); each number and
#: count key set to NaN, +-inf and its out-of-range value; and one
#: ``initial.alpha`` cell set to each bad kind, then amplitudes whose
#: ``2 sum |alpha|^2`` overflows float64.
EVERY_KEY_CASES = [(command, key, value) for command, defaults in DEFAULTS.items()
                   for key in _leaf_keys(defaults) for value in (True, "1")
                   if (key, value) != ("cross_check.enabled", True)] + [
    (command, key, value) for command, keys in OUT_OF_RANGE.items()
    for key, bad in keys.items() for value in (math.nan, math.inf, -math.inf, bad)
] + [("simulate", "initial.alpha", [[cell, 0.0], [0.0, 0.0]])
     for cell in (math.nan, math.inf, -math.inf, True, 1e200, 1.2e154)]


def test_every_key_bases_are_valid(tmp_path):
    for command, base in EVERY_KEY_BASES.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(base))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command, key, value", EVERY_KEY_CASES,
                         ids=[f"{c}-{k}-{json.dumps(v)}" for c, k, v in EVERY_KEY_CASES])
def test_every_config_key_is_checked(tmp_path, capsys, command, key, value):
    """A key holding a value of the wrong kind is a usage error naming the
    key, whether or not the run reads it."""
    *parents, leaf = key.split(".")
    extra = {leaf: value}
    for parent in reversed(parents):
        extra = {parent: extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_merged(EVERY_KEY_BASES[command], extra)))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert leaf in captured.err and captured.out == ""


# --- simulate's columns equal the per-period row loop --------------------------

def _row_loop(cfg):
    """Rows of ``run_simulate`` as the per-period loop that its columns replaced."""
    schedule = cli._schedule_from_config(cfg)
    modes, backend, cap = cfg["modes"], cfg["backend"], cfg["photon_cap"]
    report = floquet.classify_schedule(schedule)
    gauss_traj = fock_traj = None
    if backend in ("gaussian", "both"):
        gauss_traj = gaussian.evolve(cli._initial_gaussian(cfg["initial"], modes),
                                     schedule, photon_cap=cap)
    if backend in ("fock", "both"):
        state = cli._initial_fock(cfg["initial"], modes, cfg["cutoff"])
        fock_traj = fock.propagate(state, schedule, photon_cap=cap)
    lengths = []
    if gauss_traj is not None:
        lengths.append(gauss_traj.photon_totals.size)
    if fock_traj is not None:
        lengths.append(fock_traj.n_total.size)
    rows = []
    for n in range(min(lengths)):
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
    return rows


def _bits(rows):
    return [[v.hex() if isinstance(v, float) else v for v in row] for row in rows]


def _simulate_cfg(**cfg):
    return _merged(cli.SIMULATE_DEFAULTS, cfg)


COHERENT = {"type": "coherent", "alpha": [[0.6, -0.2], [0.1, 0.3]]}


@pytest.mark.parametrize("cfg", [
    pytest.param(_simulate_cfg(
        schedule={**SCHEDULE, "periods": 25}, modes=modes, backend=backend,
        cutoff=12, initial={**COHERENT, "alpha": COHERENT["alpha"][:modes]}),
        id=f"{backend}-{modes}-modes")
    for backend in ("gaussian", "fock", "both") for modes in (1, 2)
] + [
    pytest.param(_simulate_cfg(schedule={"gamma": 0.5, "tau1": 1.0, "omega": 0.1,
                                         "tau2": 1.0, "periods": 3000}),
                 id="gaussian-diverged"),
])
def test_simulate_columns_equal_row_loop(cfg):
    assert _bits(_row_tuples(cli.run_simulate(cfg).rows)) == _bits(_row_loop(cfg))


def test_simulate_ends_with_the_shorter_record():
    """The Gaussian record stops at the cap after 8 periods (9 entries); the
    Fock record runs all 60 (61 entries: its leakage guard trips but does not
    stop it)."""
    cfg = _simulate_cfg(schedule={"gamma": 0.3, "tau1": 1.0, "omega": 0.2,
                                  "tau2": 1.0, "periods": 60},
                        backend="both", cutoff=8, photon_cap=20)
    result = cli.run_simulate(cfg)
    assert _bits(_row_tuples(result.rows)) == _bits(_row_loop(cfg))
    assert len(result.rows) == 9
    assert result.status == "gaussian-diverged;fock-truncation-unsafe"


# --- the README's command-line examples run ------------------------------------

def _readme_cli_examples():
    """``(argv, config)`` for every command and JSON config block in the
    README's command-line section; a config block runs its subsection's
    subcommand."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command-line interface\n")[1].split("\n## ")[0]
    examples, subcommand, block = [], None, None
    for line in section.splitlines():
        if line.startswith("### "):
            subcommand = line[4:].strip()
        elif line.startswith("```"):
            if block is None:
                block, is_json = [], line == "```json"
                continue
            if is_json:
                examples.append(([subcommand], json.loads("\n".join(block))))
            else:
                commands = "\n".join(block).replace("\\\n", " ")
                examples += [(shlex.split(c)[1:], None) for c in commands.splitlines()
                             if c.startswith("zenofloquet ")]
            block = None
        elif block is not None:
            block.append(line)
    return examples


README_CLI_EXAMPLES = _readme_cli_examples()


def test_readme_lists_cli_examples():
    assert sum(config is None for _, config in README_CLI_EXAMPLES) >= 5
    assert [argv for argv, config in README_CLI_EXAMPLES if config is not None] == [
        ["sweep"], ["simulate"]]


@pytest.mark.parametrize("argv, config", README_CLI_EXAMPLES, ids=[
    f"{argv[0]}-{'config' if config else 'command'}"
    for argv, config in README_CLI_EXAMPLES])
def test_readme_cli_example_runs(tmp_path, argv, config):
    argv = list(argv)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path / "out")
    else:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0


# --- the streaming writer against the whole-text writer it replaced -----------

def _reference_output(fmt, meta, header, rows):
    """Output text as the writer built it before streaming: csv.writer with
    the per-cell .17g/str rule, or ``json.dumps(indent=1)`` of the payload,
    over the rows as Python values."""
    rows = _row_tuples(rows)
    if fmt == "csv":
        buf = io.StringIO()
        for key in ("tool", "version", "command", "schema", "config_hash", "status"):
            buf.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(["%.17g" % v if isinstance(v, float) else str(v)
                          for v in row] for row in rows)
        return buf.getvalue()
    payload = {"meta": meta, "rows": [dict(zip(header, row)) for row in rows]}
    return json.dumps(payload, indent=1) + "\n"


def _assert_writes_reference(tmp_path, fmt, meta, header, rows):
    expected = _reference_output(fmt, meta, header, rows)
    out = tmp_path / f"out.{fmt}"
    cli._write_output(str(out), fmt, meta, header, rows)
    assert out.read_bytes() == expected.encode("utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli._write_output(None, fmt, meta, header, rows)
    assert stdout.getvalue() == expected


def typed_table(header, columns, kinds):
    """``(header, rows)`` with ``rows`` the run-result columns of ``columns``,
    each of its kind: "float" and "int" as float64 and int64, "str" as an
    object array of str.  The writers read columns by position, so the
    columns are named ``f0, f1, ...`` whatever the header holds."""
    arrays = [np.array(c, dtype=TYPED_DTYPES[k]) for c, k in zip(columns, kinds)]
    return header, cli._table({f"f{i}": array for i, array in enumerate(arrays)}).rows


TYPED_DTYPES = {"float": np.float64, "int": np.int64, "str": object}
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                  1e308, -1.7976931348623157e308, 0.1]
INT64 = st.sampled_from([0, -1, 2**63 - 1, -2**63, 2**53 + 1]) | st.integers(-2**63, 2**63 - 1)
#: A text of up to six characters, drawn as one string: of the characters
#: that CSV and JSON escape or quote, or of any but surrogates.
TEXT = (st.text(st.sampled_from(list(',"\r\n %\\é中 ab1')), max_size=6)
        | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
FIELD_CELLS = {
    "float": st.sampled_from(SPECIAL_FLOATS) | st.floats(),
    "int": INT64,
    "str": TEXT,
}
#: Per kind, the values that a "repeats" field draws its pool of 2-4 cells
#: from: cells that are equal, or hash equal, but print differently, and
#: strings that csv.writer quotes, so that a repeated cell meets each case
#: again.
REPEAT_SOURCES = {
    "float": [0.0, -0.0, math.nan, math.inf],
    "int": [0, 1, -1, -2],  # hash(-1) == hash(-2)
    "str": ["", ",", '"', "a"],
}


#: Row counts of a random table, each as likely as another: quantiles of the
#: geometric law of mean 5 that st.lists draws a length from, and 60.
ROW_COUNTS = tuple(int(math.log(1.0 - (k + 0.5) / 40) / math.log(5 / 6)) for k in range(39)) + (60,)
#: (fields, rows) of a random table, drawn as one choice.
TABLE_SHAPES = [(width, size) for width in range(1, 9) for size in ROW_COUNTS]


@st.composite
def tables(draw):
    """A random table whose number of Hypothesis choices follows from its
    shape.  Hypothesis drops as an overrun an example that needs more
    choices than it allows: for its first max_examples / 10 examples, five
    times those of the simplest continuation of a new prefix, and for an
    example that copies one span over another of the same label, the
    choices of the example it copied.  So the shape is one choice, each
    text one string, and every field draws a repeat pool and two choices
    per cell, whether it repeats or not.  The per-field and per-cell draws
    are plain loops, not ``st.lists``: every list element is a span of one
    label, and copying a one-choice element or a list's empty end over a
    two-choice cell would leave the copy short of choices."""
    width, size = draw(st.sampled_from(TABLE_SHAPES))
    kinds = [draw(st.sampled_from(sorted(FIELD_CELLS))) for _ in range(width)]
    repeats = [draw(st.booleans()) for _ in range(width)]
    # unique names without a filter: a repeated name gets its position appended
    header = []
    for i in range(width):
        name = draw(TEXT)
        while name in header:
            name += str(i)
        header.append(name)
    columns = []
    for kind, repeat in zip(kinds, repeats):
        pool = draw(st.permutations(REPEAT_SOURCES[kind]))[:draw(st.integers(2, 4))]
        cells = FIELD_CELLS[kind]
        if repeat:
            # a branch and a pick, as a fresh cell takes a branch and a value
            cells = st.sampled_from(pool) | st.sampled_from(pool[::-1])
        columns.append([draw(cells) for _ in range(size)])
    return typed_table(header, columns, kinds)


META = cli._meta("simulate", {"a": 1}, "gaussian-diverged;fock-truncation-unsafe")


def one_value_fields(size):
    """A ``size``-row table whose fields each hold one value in every row
    (NaN, -0.0, an int, a string that needs escaping), next to a float field
    that mixes 0.0 and -0.0."""
    return typed_table(
        ["nan", "minus_zero", "zeros", "int", "text"],
        [[math.nan] * size, [-0.0] * size, [(0.0, -0.0)[k % 3 == 1] for k in range(size)],
         [-7] * size, ['%s "1,%%"'] * size],
        ["float", "float", "float", "int", "str"])


#: Floats that are finite in the first block and not in the second, and the
#: other way round, beside a field that is finite in both.
NONFINITE_IN_ONE_BLOCK = typed_table(
    ["late_nan", "early_inf", "finite"],
    [[0.5 * k for k in range(4096)] + [math.nan],
     [-math.inf] + [1.5] * 4096, [0.25 * k for k in range(4097)]],
    ["float", "float", "float"])

#: A str field that needs no quotes in the first block and holds "a,b" in the
#: second, beside an int field and a str field of one value.
QUOTED_IN_SECOND_BLOCK = typed_table(
    ["late_comma", "index", "same"],
    [["ab"[k % 2] for k in range(4096)] + ["a,b"], list(range(4097)), ["x"] * 4097],
    ["str", "int", "str"])


#: Two float fields that share a value across the seam of two blocks (row
#: 4095 of the first, row 4096 of the second), beside a field with NaNs.
SHARED_ACROSS_SEAM = typed_table(
    ["early", "late", "nan"],
    [[0.25 * k for k in range(4097)], [0.25 * (k - 1) for k in range(4097)],
     [(1.5, math.nan)[k % 2] for k in range(4097)]],
    ["float", "float", "float"])


#: Tables pinned as examples of the reference-writer test, each written in
#: both formats: a lone empty str field, empty tables, header names and cells
#: holding ``%``, quoted str cells, ints that hash equal, one-value fields over
#: block seams, non-finite floats, signed zeros, and floats shared across
#: fields and across a seam.
PINNED_TABLES = [
    typed_table(["a"], [["", "x", ""]], ["str"]),
    typed_table(["a", "b"], [[], []], ["float", "str"]),
    typed_table(["a", "b"], [[], []], ["int", "str"]),
    typed_table(["%s", "b%%", '"\n'], [[1.5], ["%d"], [1]], ["float", "str", "int"]),
    typed_table(["x", "y"], [[0.0, -0.0, 0.0], ["", ",", '"']], ["float", "str"]),
    typed_table(["x", "y"], [[-1, -2, -1], ["a", "a", "a"]], ["int", "str"]),
    one_value_fields(4097),
    one_value_fields(8193),
    NONFINITE_IN_ONE_BLOCK,
    QUOTED_IN_SECOND_BLOCK,
    typed_table(["a", "b", "c", "d"], [[math.inf], [-0.0], [-5], ["x%"]],
                ["float", "float", "int", "str"]),
    typed_table(["%s", "%%", "%r"], [["%s%%"] * 3, [1.5, 2.5, 1.5], ["a", "%%", "a"]],
                ["str", "float", "str"]),
    typed_table(["a", "b", "i"], [[0.1, 2.5, 0.1], [0.1, 2.5, 0.1], [1, 2, 3]],
                ["float", "float", "int"]),
    typed_table(["plus", "minus"], [[0.0, 1.0, 0.0], [-0.0, 1.0, -0.0]], ["float", "float"]),
    SHARED_ACROSS_SEAM,
]


def _pinned_in_both_formats(test):
    """``test`` with each of ``PINNED_TABLES`` as an example in each format."""
    for table in reversed(PINNED_TABLES):
        for fmt in ("json", "csv"):
            test = example(fmt=fmt, table=table)(test)
    return test


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# the table first, so that a new prefix never ends before the table's shape
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
@_pinned_in_both_formats
def test_streamed_output_equals_reference_writer(tmp_path, fmt, table):
    _assert_writes_reference(tmp_path, fmt, META, *table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("size", [4095, 4096, 4097, 8193])
def test_streamed_output_across_json_block_seams(tmp_path, fmt, size):
    rng = np.random.default_rng(size)
    floats = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    floats[::97] = math.nan
    floats[::89] = -math.inf
    k = np.arange(size)
    table = typed_table(["period", "n", "n_total", "label", "flag"],
                        [k, floats, -floats, np.where(k % 1000 == 3, "ab,c", "ok"), k % 2],
                        ["int", "float", "float", "str", "int"])
    _assert_writes_reference(tmp_path, fmt, META, *table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_shared_label_cells_across_block_seams(tmp_path, fmt):
    """A column of a few shared str objects, as the subcommands build their
    labels: each label needs CSV quotes and JSON escapes, and the first
    block of either format (2048 JSON rows, 4096 CSV rows) holds one label,
    the next ones three; beside a column of one shared label that needs
    both."""
    size = 2 * cli._BLOCK_ROWS + 1
    labels = np.array(['say "hi"', "a,b", "caf\u00e9\n\u4e2d"], dtype=object)
    k = np.arange(size)
    pick = np.where(k < cli._JSON_BLOCK_ROWS, 0, k % 3)
    header = ["period", "label", "same"]
    rows = cli._table({"period": k, "label": labels[pick],
                       "same": labels[np.ones(size, dtype=np.intp)]}).rows
    assert rows["label"].dtype == object and rows["label"][-1] is labels[2]
    _assert_writes_reference(tmp_path, fmt, META, header, rows)


def _assert_chart_writes_reference(tmp_path, axes, size):
    out = tmp_path / "chart.csv"
    argv = ["sweep", "--cross-check", "--out", str(out)]
    for name, axis in axes.items():
        argv += ["--" + name.replace("_", "-"), *map(str, axis.values())]
    assert cli.main(argv) == 0
    cfg = _merged(cli.SWEEP_DEFAULTS, {"cross_check": {"enabled": True}, **axes})
    header, rows, status = cli.run_sweep(cfg)
    assert len(rows) == size
    expected = _reference_output("csv", cli._meta("sweep", cfg, status), header, rows)
    assert out.read_bytes() == expected.encode("utf-8")


def test_cross_check_chart_equals_reference_writer(tmp_path):
    """The default chart: 22801 rows over 5 block seams, columns of 1-151
    distinct cells next to columns of thousands."""
    _assert_chart_writes_reference(tmp_path, {}, 22801)


def test_fine_cross_check_chart_equals_reference_writer(tmp_path):
    """A 201x201 chart over a narrower gamma*tau1 range: 40401 rows over 9
    block seams, with fewer unstable points than the default chart."""
    axes = {"gamma_tau1": {"min": 0.0, "max": 0.8, "steps": 201},
            "omega_tau2": {"min": 0.0, "max": math.pi, "steps": 201}}
    _assert_chart_writes_reference(tmp_path, axes, 40401)


@pytest.mark.parametrize("gamma, omega, code, fmt", [
    pytest.param(0.05, 0.3, 0, "json", id="0.05-0.3-0"),
    pytest.param(0.5, 0.1, 1, "json", id="0.5-0.1-1"),
    pytest.param(0.05, 0.3, 0, "csv", id="csv-0.05-0.3-0"),
    pytest.param(0.5, 0.1, 1, "csv", id="csv-0.5-0.1-1"),
])
def test_trajectory_json_equals_reference_writer(tmp_path, gamma, omega, code, fmt):
    """5000 periods of a stable and of a diverging drive, as JSON and as
    CSV: photon columns next to one-value half_trace and classification
    fields.  The stable run's first CSV block holds 4096 distinct photon
    numbers per column; the diverging run stops after 30 periods, at photon
    numbers up to the 1e12 cap."""
    schedule = {"gamma": gamma, "tau1": 1.0, "omega": omega, "tau2": 1.0,
                "periods": 5000}
    out = tmp_path / f"trajectory.{fmt}"
    argv = ["simulate", "--format", fmt, "--out", str(out)]
    for key, value in schedule.items():
        argv += [f"--{key}", str(value)]
    assert cli.main(argv) == code
    cfg = _merged(cli.SIMULATE_DEFAULTS, {"schedule": schedule})
    header, rows, status = cli.run_simulate(cfg)
    assert (len(rows) == 5001) == (code == 0)
    expected = _reference_output(fmt, cli._meta("simulate", cfg, status), header, rows)
    assert out.read_bytes() == expected.encode("utf-8")


# --- the vectorised %.17g and repr against the % operator and repr ----------

def _percent_texts(values):
    """The reference: ``"%.17g" % v`` of each value."""
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def _repr_texts(values):
    """The reference: ``repr(v)`` of each value."""
    return list(map(float.__repr__, np.asarray(values, dtype=np.float64).tolist()))


def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _below(power):
    """The largest float below ``power``, a Fraction."""
    x = float(power)
    return x if Fraction(x) < power else math.nextafter(x, 0.0)


def _neighbours(values):
    return [y for x in values for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]


#: Each power of ten whose ``%g`` text has no exponent, with both neighbours.
POWERS_OF_TEN = [float(f"1e{k}") for k in range(-4, 16)]
POWER_NEIGHBOURS = _neighbours(POWERS_OF_TEN)
#: For each decade of the kernel's range, its float nearest the next decade.
DECADE_TOPS = [_below(Fraction(10) ** k) for k in range(-3, 17)]
#: The powers of two of the kernel's range and one beyond each end, with both neighbours.
POWERS_OF_TWO = _neighbours([2.0**k for k in range(-14, 55)])
#: The edges of the kernel's range and the values beside them.
RANGE_EDGES = [math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e16, 0.0), 1e16, -1e-4]
#: Signed zeros, subnormals, NaN and the infinities: outside the range.
SPECIALS = [-0.0, 0.0, 5e-324, -2.5e-310, math.nan, math.inf, -math.inf]
FLOATS = st.lists(st.integers(0, 2**64 - 1).map(_float_of_bits) | st.floats(),
                  min_size=1, max_size=64)


@settings(max_examples=300, deadline=None)
@given(values=FLOATS)
@example(values=[1 + 2**-17])  # 1.00000762939453125: the tie rounds to even, ...312
@example(values=POWER_NEIGHBOURS)
@example(values=RANGE_EDGES)
@example(values=DECADE_TOPS + [-x for x in DECADE_TOPS])
@example(values=SPECIALS)
def test_g17_kernel_equals_percent(values):
    assert list(_g17.texts(np.array(values), _percent_texts)) == _percent_texts(values)


@settings(max_examples=300, deadline=None)
@given(values=FLOATS)
@example(values=POWERS_OF_TWO)
# 17 digits: the exact value ends in ...2734375, half a unit of the 17th
# digit, and rounds to even, ...273438; then ties between two texts of 16
# digits that both read back as the value, 600000000000000.2 and .3
@example(values=[25282171205.2734375, 600000000000000.25, -74767544477515.375])
@example(values=[1.0, -2.0, 1e15, 9007199254740996.0, 9999999999999998.0])  # integral
@example(values=DECADE_TOPS + [-x for x in DECADE_TOPS])
@example(values=[0.1, 0.3, -0.2, 2.675, 1.1, 123.456, 0.0001234, 1e-3, 1e5])  # short decimals
@example(values=POWER_NEIGHBOURS)
@example(values=RANGE_EDGES)
@example(values=SPECIALS)
def test_g17_kernel_equals_repr(values):
    assert list(_g17.texts(np.array(values), _repr_texts, shortest=True)) == _repr_texts(values)


def test_kernel_decades_are_exact():
    """The kernel's two premises.  Its decimal exponent counts the floats of
    ``1e-3 .. 1e15`` at or below a value, which is exact because each power
    of ten from ``1e-4`` rounds up to its float or is one, so no float lies
    between a power and its float.  And it has no carry step: no float of
    ``[1e-4, 1e16)`` lies within half a unit of its 17th significant digit
    below the next power of ten, the only floats whose 17 digits could
    round up to it."""
    for k, power in zip(range(-4, 16), POWERS_OF_TEN):
        assert Fraction(power) >= Fraction(10) ** k
    for k, top in zip(range(-3, 17), DECADE_TOPS):
        assert Fraction(top) < Fraction(10) ** k - Fraction(10) ** (k - 17) / 2
    assert list(_g17.texts(np.array(DECADE_TOPS), _percent_texts)) == _percent_texts(DECADE_TOPS)


def _short_decimals(rng, count):
    """Floats read from random decimal strings of 1 to 16 significant digits,
    with magnitudes ``10**U(-5, 17)`` and random signs: ``repr`` writes most
    of them with fewer than 17 digits."""
    places = rng.integers(1, 17, count)
    significands = rng.integers(10 ** (places - 1), 10**places)
    exponents = rng.integers(-5, 17, count) - places + 1
    signs = rng.choice(["", "-"], count)
    return np.array([float(f"{sign}{digits}e{exp}") for sign, digits, exp
                     in zip(signs.tolist(), significands.tolist(), exponents.tolist())])


def test_g17_kernel_on_a_million_values_of_each_kind():
    """10^6 random bit patterns, 10^6 values ``+-10**U(-5, 17)`` and 2 * 10^5
    short decimals (:func:`_short_decimals`), sorted by bit pattern as the
    writers pass them, and a tenth of each also in the drawn order, each
    through both modes.  The fallback returns each value that it is given
    in place of its text, so each value comes back where it was, and each
    text that the kernel writes itself is compared with the reference."""
    rng = np.random.default_rng(30)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    decades = 10.0 ** rng.uniform(-5.0, 17.0, 10**6) * rng.choice([-1.0, 1.0], 10**6)
    short = _short_decimals(rng, 2 * 10**5)
    for values in (bits, decades, short):
        for k, chunk in enumerate(np.array_split(values, len(values) // 10**4)):
            distinct = np.unique(chunk.view(np.int64)).view(np.float64)
            for drawn in (distinct, chunk)[:1 + (k % 10 == 0)]:
                for reference, shortest in ((_percent_texts, False), (_repr_texts, True)):
                    cells = _g17.texts(drawn, np.ndarray.tolist, shortest)
                    own = np.array([isinstance(cell, str) for cell in cells])
                    left = np.array([cell for cell in cells if not isinstance(cell, str)])
                    assert left.view(np.int64).tolist() == drawn[~own].view(np.int64).tolist()
                    assert [cell for cell in cells if isinstance(cell, str)] == reference(drawn[own])


def test_g17_kernel_formats_nearly_all_of_the_chart(monkeypatch):
    """A kernel that sent every value to ``%`` would write the same bytes,
    so only a count shows it: of the distinct floats that the CSV writer
    passes per block of the default chart, all its float fields at once,
    fewer than 0.1% reach the ``%`` formatter."""
    cfg = _merged(cli.SWEEP_DEFAULTS, {})
    header, rows, status = cli.run_sweep(cfg)
    float_texts, percent, passed, sent = cli._csv_float_texts, cli._g17_percent, [], []

    def record(values):
        texts = float_texts(values)
        assert list(texts) == _percent_texts(values)
        passed.append(len(values))
        return texts

    monkeypatch.setattr(cli, "_csv_float_texts", record)
    monkeypatch.setattr(cli, "_g17_percent", lambda values: sent.append(len(values)) or percent(values))
    cli._write_csv(io.StringIO(), cli._meta("sweep", cfg, status), header, rows)
    assert len(passed) == -(-len(rows) // cli._BLOCK_ROWS)  # one call per block
    distinct = sum(passed)
    assert distinct > 20000 and sum(sent) < 1e-3 * distinct


def test_g17_kernel_formats_most_of_a_trajectory(monkeypatch):
    """As for the chart: of the distinct floats that the JSON writer passes
    per block of a stable 5000-period trajectory, at least 95% reach the
    kernel's shortest mode.  Nearly all the rest are photon numbers below
    ``1e-4``, near the dips of the record, which ``repr`` writes with an
    exponent."""
    schedule = {"gamma": 0.05, "tau1": 1.0, "omega": 0.3, "tau2": 1.0, "periods": 5000}
    cfg = _merged(cli.SIMULATE_DEFAULTS, {"schedule": schedule})
    header, rows, status = cli.run_simulate(cfg)
    float_texts, fallback, blocks, sent = cli._json_float_texts, cli._json_repr, [], []

    def record(values):
        sent.clear()
        texts = float_texts(values)
        assert list(texts) == _repr_texts(values)
        blocks.append((len(values), sum(sent)))
        return texts

    monkeypatch.setattr(cli, "_json_float_texts", record)
    monkeypatch.setattr(cli, "_json_repr", lambda values: sent.append(len(values)) or fallback(values))
    cli._write_json(io.StringIO(), cli._meta("simulate", cfg, status), header, rows)
    blocks = [block for block in blocks if block[0] > 1]  # not the one-value half_trace
    assert len(blocks) == -(-len(rows) // cli._JSON_BLOCK_ROWS)  # one call per block
    for distinct, left in blocks:
        assert distinct >= cli._G17_FLOOR and left <= 0.05 * distinct


@pytest.mark.parametrize("fmt, formatter, block_rows", [
    ("csv", "_csv_float_texts", cli._BLOCK_ROWS),
    ("json", "_json_float_texts", cli._JSON_BLOCK_ROWS),
])
def test_each_distinct_float_of_a_block_is_formatted_once(monkeypatch, fmt, formatter, block_rows):
    """The bytes do not show how often a float is formatted, so count the
    formatter's calls: the one-value field once per table, then one call per
    block with each distinct bit pattern of the block's other float fields
    once, values shared across fields and the seam included."""
    size = 4097
    header, rows = typed_table(
        ["early", "late", "same", "mixed", "index"],
        [[0.25 * k for k in range(size)], [0.25 * (k - 1) for k in range(size)],
         [2.5] * size, [(1.5, math.nan, -0.0)[k % 3] for k in range(size)], range(size)],
        ["float", "float", "float", "float", "int"])
    to_texts, calls = getattr(cli, formatter), []
    monkeypatch.setattr(cli, formatter,
                        lambda values: calls.append(values.view(np.int64).tolist()) or to_texts(values))
    out = io.StringIO()
    {"csv": cli._write_csv, "json": cli._write_json}[fmt](out, META, header, rows)
    assert out.getvalue() == _reference_output(fmt, META, header, rows)
    varying = ["f0", "f1", "f3"]  # early, late and mixed
    blocks = [np.unique(np.concatenate([rows[name][start:start + block_rows].view(np.int64)
                                        for name in varying])).tolist()
              for start in range(0, size, block_rows)]
    assert calls == [np.array([2.5]).view(np.int64).tolist()] + blocks


@pytest.mark.parametrize("argv", [
    ["sweep", "--cross-check"],
    ["sweep", "--cross-check", "--format", "json"],
    ["simulate", "--gamma", "0.05", "--tau1", "1", "--omega", "0.3", "--tau2", "1",
     "--periods", "5000", "--format", "json"],
])
def test_stdout_and_out_file_give_the_same_bytes(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = cli.main(argv + ["--out", str(out)])
    capsys.readouterr()
    assert cli.main(argv) == code
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
