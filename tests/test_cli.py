"""CLI subcommands: deterministic output, schemas, exit codes."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zenofloquet import cli, floquet, gaussian


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
    assert len(result.header) == len(result.rows[0])
    assert result.status == status


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
    assert [row[:2] for row in rows] == [[g, w] for g in gammas for w in thetas]
    for row in rows:
        schedule = floquet.DriveSchedule.from_products(row[0], row[1])
        report = floquet.classify(floquet.monodromy(schedule), 2.0, epsilon)
        assert row[2:5] == [report.half_trace, report.classification.value,
                            report.floquet_exponent]
        if abs(report.half_trace - 1.0) <= 1e-3:
            assert row[6] == 0
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            power = np.linalg.matrix_power(
                gaussian.two_mode_period_symplectic(schedule), periods)
            diverged = not np.sum(power**2) / 4.0 - 1.0 <= cap
        unstable = report.classification is floquet.Classification.UNSTABLE
        assert row[5:] == ["diverged" if diverged else "bounded",
                           int(unstable != diverged)]
