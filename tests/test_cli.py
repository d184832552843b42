"""Command-line interface: configs, outputs, and exit codes."""

import json
import math
import subprocess
import sys

import pytest

import polarpark.cli as cli
from polarpark import CertReport, Frame, IntegratorKind, SimConfig
from polarpark.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_SIM = {
    "controller": "globa",
    "gains": [1.0, 1.0, 1.0, 1.0],
    "initial_conditions": [
        {"rho": 1.0, "delta": 0.5, "gamma": -0.5},
        {"x": -2.0, "y": 0.0, "theta": 0.0},
    ],
    "sim": {"dt": 0.05, "t_final": 10.0},
}


class TestSimulate:
    def test_happy_path_outputs(self, tmp_path):
        cfg = write_config(tmp_path, BASE_SIM)
        out = tmp_path / "results"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "simulate"
        assert summary["controller"] == "globa"
        assert len(summary["results"]) == 2
        for i, entry in enumerate(summary["results"]):
            assert entry["ic_index"] == i
            assert (out / entry["file"]).exists()
            assert entry["status"] in ("captured", "horizon_reached")
            assert entry["V_monotone"] is True
            assert entry["path_length"] > 0.0
        csv_head = (out / "ic_000.csv").read_text().splitlines()[0]
        assert csv_head == "t,x,y,theta,rho,delta,gamma,v,omega,V"

    def test_outputs_are_byte_stable(self, tmp_path):
        cfg = write_config(tmp_path, BASE_SIM)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "ic_000.csv").read_bytes() == (b / "ic_000.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_frame_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, BASE_SIM)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--frame", "cartesian"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["frame"] == "cartesian"

    def test_bad_ic_gets_error_entry_without_failing_run(self, tmp_path):
        payload = dict(BASE_SIM)
        payload["controller"] = "barfli"
        payload["initial_conditions"] = [
            {"rho": 1.0, "delta": 0.5, "gamma": 0.0},
            {"rho": 1.0, "delta": math.pi, "gamma": 0.0},  # on the barrier
        ]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        entries = json.loads((out / "summary.json").read_text())["results"]
        assert "file" in entries[0]
        assert "error" in entries[1] and "outside the open space" in entries[1]["error"]
        assert not (out / "ic_001.csv").exists()

    def test_no_runnable_ic_exits_1(self, tmp_path, capsys):
        payload = dict(BASE_SIM)
        payload["controller"] = "barfli"
        payload["initial_conditions"] = [{"rho": 1.0, "delta": math.pi, "gamma": 0.0}]
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "no initial condition" in capsys.readouterr().err

    def test_all_boundary_stops_exit_3(self, tmp_path, capsys):
        payload = dict(BASE_SIM)
        payload["controller"] = "barfli"
        payload["initial_conditions"] = [
            {"rho": 1.0, "delta": math.pi - 1e-13, "gamma": 0.1}]
        payload["sim"] = {"dt": 0.05, "t_final": 1.0}
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "stopped on a barrier" in capsys.readouterr().err

    def test_overflowing_V_is_judged_on_log1p(self, tmp_path):
        # the exponential merge overflows from delta0 = 3.0, so V is inf on
        # every row; its monotonicity is judged on log(1 + V) = log1p(rho^2)
        # + V_dg, which falls by 7.8e3 per row at least (inf - inf was NaN,
        # reported as V_monotone false)
        payload = {**BASE_SIM, "controller": "bagal", "compositor": "exp_product",
                   "initial_conditions": [{"rho": 1.0, "delta": 3.0, "gamma": 0.0}],
                   "sim": {"t_final": 1.0}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()
        entry = json.loads(text, parse_constant=_reject_constant)["results"][0]
        assert entry["V_monotone"] is True
        assert entry["max_V_increase"] == pytest.approx(-7.822e3, rel=1e-3)
        assert "nonfinite" not in entry
        rows = (out / "ic_000.csv").read_text().splitlines()[1:]
        assert len(rows) == 21 and all(row.endswith(",inf") for row in rows)

    def test_diverging_rk4_run_exits_3_with_strict_json(self, tmp_path, capsys):
        # gamma overflows after t = 269 (math.cos(inf) raised ValueError out
        # of the run), and so does V: log(1 + V) is taken without a warning
        payload = {**BASE_SIM, "gains": [5.0, 5.0, 5.0, 5.0],
                   "initial_conditions": [{"rho": 1.0, "delta": 2.0, "gamma": 2.0}],
                   "sim": {"dt": 1.0, "t_final": 400.0, "integrator": "rk4"}}
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 3
        assert "stopped on a barrier" in capsys.readouterr().err
        text = (out / "summary.json").read_text()
        entry = json.loads(text, parse_constant=_reject_constant)["results"][0]
        assert entry["status"] == "boundary_stop"
        assert entry["note"].endswith("; rk4 step from t=269 left the domain: math domain error")

    def test_initial_step_overflow_exits_3_with_the_note(self, tmp_path, capsys):
        # k4 = 1e150 overflows HINIT's norm of f(y0): an OverflowError traceback
        payload = {**BASE_SIM, "gains": [1.0, 1.0, 1.0, 1e150],
                   "initial_conditions": [{"rho": 1.0, "delta": 0.5, "gamma": -0.5}],
                   "sim": {"t_final": 1.0}}
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 3
        assert "stopped on a barrier" in capsys.readouterr().err
        text = (out / "summary.json").read_text()
        entry = json.loads(text, parse_constant=_reject_constant)["results"][0]
        assert entry["status"] == "boundary_stop"
        assert entry["note"] == (
            "initial-step estimate overflowed at t=0: (34, 'Numerical result out of range')")

    def test_summary_records_the_smallest_barrier_distance(self, tmp_path):
        # BAGAL started 0.05 from its delta barrier turns away from it;
        # GLOBA's space S has no barrier
        start = {"rho": 1.0, "delta": math.pi - 0.05, "gamma": 0.0}
        distances = []
        for controller in ("bagal", "globa"):
            payload = {**BASE_SIM, "controller": controller, "initial_conditions": [start],
                       "sim": {"dt": 0.05, "t_final": 5.0}}
            out = tmp_path / controller
            assert main(["simulate", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 0
            entry = json.loads((out / "summary.json").read_text())["results"][0]
            distances.append(entry["min_barrier_distance"])
        assert distances[0] == pytest.approx(0.05, abs=1e-12)
        assert distances[1] is None

    def test_run_decayed_to_1e_100_writes_a_positive_distance(self, tmp_path):
        # integrated as rho itself, this capture ended with final_state.rho = -6.61e-9
        payload = {"controller": "globa", "gains": [9.131091197638991, 0.20999528827318054,
                                                     0.04023654929931615, 0.14293948552702837],
                   "initial_conditions": [{"rho": 3.0, "delta": 2.0, "gamma": -1.5}],
                   "sim": {"capture_radius": 2e-4}}
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        entry = json.loads((out / "summary.json").read_text())["results"][0]
        assert entry["status"] == "captured" and 0.0 < entry["final_state"]["rho"] < 1e-100

    def test_non_finite_summary_values_are_null_with_a_reason(self):
        entry = cli._null_nonfinite({"a": math.inf, "b": 1.0, "c": math.nan}, {"a": "overflow"})
        assert entry["a"] is None and entry["b"] == 1.0 and entry["c"] is None
        assert entry["nonfinite"] == {
            "a": {"value": "inf", "reason": "overflow"},
            "c": {"value": "nan", "reason": "overflow or NaN in the run"}}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestConfigValidation:
    def test_absent_sim_settings_take_the_simconfig_defaults(self):
        assert cli._parse_sim({}, None) == SimConfig()
        assert cli._parse_sim({"sim": {}}, None) == SimConfig()
        assert SimConfig().frame is Frame.POLAR
        assert SimConfig().integrator is IntegratorKind.RK45_ADAPTIVE
        assert cli._parse_sim({"sim": {"atol": 1e-9}}, "cartesian") == SimConfig(
            atol=1e-9, frame=Frame.CARTESIAN)

    def exit_code(self, tmp_path, payload, capsys):
        cfg = write_config(tmp_path, payload)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert err.startswith("error:")
        return code, err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_integer_past_the_conversion_limit(self, tmp_path, capsys):
        # json.load raises a plain ValueError here, which escaped as a traceback
        path = tmp_path / "big.json"
        path.write_text('{"gains": [' + "1" * 5000 + ", 1, 1, 1]}")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_controller(self, tmp_path, capsys):
        code, err = self.exit_code(
            tmp_path, {**BASE_SIM, "controller": "pid"}, capsys)
        assert code == 1 and "unknown controller" in err

    def test_wrong_gain_count(self, tmp_path, capsys):
        code, err = self.exit_code(
            tmp_path, {**BASE_SIM, "gains": [1.0, 2.0]}, capsys)
        assert code == 1 and "exactly 4" in err

    def test_unknown_gain_key(self, tmp_path, capsys):
        code, err = self.exit_code(
            tmp_path, {**BASE_SIM, "gains": {"k1": 1.0, "k9": 2.0}}, capsys)
        assert code == 1 and "unknown gain keys" in err

    @pytest.mark.parametrize("key, value", [("t_final", math.inf), ("capture_radius", math.nan)])
    def test_non_finite_sim_setting(self, tmp_path, capsys, key, value):
        # json.load reads Infinity and NaN
        code, err = self.exit_code(tmp_path, {**BASE_SIM, "sim": {key: value}}, capsys)
        assert code == 1 and f"{key} must be finite" in err

    def test_horizon_past_the_float_range(self, tmp_path, capsys):
        # t_final/dt overflows; simulate used to raise OverflowError as a traceback
        code, err = self.exit_code(
            tmp_path, {**BASE_SIM, "sim": {"dt": 0.05, "t_final": 1e308}}, capsys)
        assert code == 1 and "invalid config: bad sim settings" in err

    def test_horizon_past_the_sample_cap(self, tmp_path, capsys):
        # 2e10 sampling intervals; the run used to grow its samples until memory ran out
        code, err = self.exit_code(
            tmp_path, {**BASE_SIM, "sim": {"dt": 0.05, "t_final": 1e9, "capture_radius": 0.0}},
            capsys)
        assert code == 1 and "invalid config: bad sim settings" in err and "cap of" in err

    @pytest.mark.parametrize("payload, message", [
        ([BASE_SIM], "top level must be a JSON object"),
        ({**BASE_SIM, "gains": "1 1 1 1"}, "gains must be a 4-list or an object"),
        ({**BASE_SIM, "gains": [1.0, 0.0, 1.0, 1.0]}, "bad gains"),
        ({**BASE_SIM, "initial_conditions": [[1.0, 0.5, -0.5]]},
         "initial condition #0 must be an object"),
        ({**BASE_SIM, "initial_conditions": [{"rho": -1.0, "delta": 0.5, "gamma": -0.5}]},
         "initial condition #0: negative rho"),
        ({**BASE_SIM, "sim": [0.05, 10.0]}, "sim must be an object"),
        ({**BASE_SIM, "sim": {"frame": "spherical"}}, "unknown frame 'spherical'"),
        ({**BASE_SIM, "sim": {"integrator": "euler"}}, "unknown integrator 'euler'"),
        ({**BASE_SIM, "sim": {"h_min": 1e-9}}, "unknown sim keys: ['h_min']"),
        ({**BASE_SIM, "compositor_order": "gamma_first"},
         "compositor_order must be rho_first or vdg_first"),
    ])
    def test_rejected_config(self, tmp_path, capsys, payload, message):
        code, err = self.exit_code(tmp_path, payload, capsys)
        assert code == 1 and err.startswith(f"error: invalid config: {message}")
        assert not (tmp_path / "o").exists()

    def test_unknown_sim_key(self, tmp_path, capsys):
        code, err = self.exit_code(
            tmp_path, {**BASE_SIM, "sim": {"dt": 0.05, "step_size": 0.1}}, capsys)
        assert code == 1 and "unknown sim keys" in err

    def test_bad_ic_keys(self, tmp_path, capsys):
        code, err = self.exit_code(
            tmp_path, {**BASE_SIM, "initial_conditions": [{"rho": 1.0}]}, capsys)
        assert code == 1 and "rho/delta/gamma or x/y/theta" in err

    def test_empty_ics(self, tmp_path, capsys):
        code, err = self.exit_code(
            tmp_path, {**BASE_SIM, "initial_conditions": []}, capsys)
        assert code == 1 and "non-empty" in err

    def test_gain_coupling_enforced(self, tmp_path, capsys):
        payload = {**BASE_SIM, "controller": "bolsa", "gains": [1.0, 2.0, 1.0, 1.0]}
        code, err = self.exit_code(tmp_path, payload, capsys)
        assert code == 1 and "k1*k3 >= k2^2" in err

    def test_coupling_opt_out(self, tmp_path):
        payload = {**BASE_SIM, "controller": "bolsa",
                   "gains": [1.0, 1.0, 0.1, 1.0], "allow_unproven_gains": True}
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_allow_unproven_gains_must_be_a_json_boolean(self, tmp_path, capsys, value):
        # bool("false") is True: the string used to switch the gain check off
        payload = {**BASE_SIM, "controller": "bolsa", "gains": [1.0, 2.0, 1.0, 1.0],
                   "allow_unproven_gains": value}
        code, err = self.exit_code(tmp_path, payload, capsys)
        assert code == 1 and "allow_unproven_gains must be true or false" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("payload, key", [
        ({"gains": [True, 1.0, 1.0, 1.0]}, "gain k1"),
        ({"gains": {"k3": "1"}}, "gain k3"),
        ({"gains": [1.0, 1.0, 1.0, 10**400]}, "gain k4"),  # float() raised OverflowError
    ])
    def test_gains_must_be_json_numbers(self, tmp_path, capsys, payload, key):
        # float() took true as 1.0 and "1" as 1.0
        code, err = self.exit_code(tmp_path, {**BASE_SIM, **payload}, capsys)
        assert code == 1 and f"bad {key}: " in err and "is not a JSON number" in err

    @pytest.mark.parametrize("start, key", [
        ({"rho": "2", "delta": 0.5, "gamma": 0.5}, "initial condition #0 rho"),
        ({"x": 1.0, "y": False, "theta": 0.0}, "initial condition #0 y"),
    ])
    def test_starts_must_be_json_numbers(self, tmp_path, capsys, start, key):
        code, err = self.exit_code(tmp_path, {**BASE_SIM, "initial_conditions": [start]}, capsys)
        assert code == 1 and f"bad {key}: " in err and "is not a JSON number" in err

    @pytest.mark.parametrize("sim, key", [
        ({"capture_radius": False}, "sim.capture_radius"),  # false turned capture off
        ({"dt": "0.05"}, "sim.dt"),
    ])
    def test_sim_settings_must_be_json_numbers(self, tmp_path, capsys, sim, key):
        code, err = self.exit_code(tmp_path, {**BASE_SIM, "sim": sim}, capsys)
        assert code == 1 and f"bad {key}: " in err and "is not a JSON number" in err

    def test_unknown_compositor(self, tmp_path, capsys):
        code, err = self.exit_code(
            tmp_path, {**BASE_SIM, "compositor": "max"}, capsys)
        assert code == 1 and "unknown compositor" in err


class TestVerify:
    def test_single_suite(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["verify", "--suite", "lemma1", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "lemma1" in captured and "pass" in captured
        assert (out / "verify_lemma1.json").exists()
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["n_checks"] == 1 and summary["n_failed"] == 0
        report = json.loads((out / "verify_lemma1.json").read_text())
        assert report["pass"] is True and report["worst_margin"] < 0.0

    def test_unknown_suite_exits_1(self, tmp_path, capsys):
        assert main(["verify", "--suite", "bogus", "--out", str(tmp_path / "o")]) == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_failing_report_exits_2(self, tmp_path, monkeypatch, capsys):
        bad = CertReport(
            check_name="demo", domain="d", worst_margin=0.5, witness=(1.0,),
            passed=False, tolerance=0.0, criterion="worst_margin < 0")
        monkeypatch.setattr(cli, "run_suite", lambda which, seed=0: [bad])
        assert main(["verify", "--suite", "all", "--out", str(tmp_path / "o")]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestCompare:
    PAYLOAD = {
        "controllers": ["globa", "barfli"],
        "gains": [1.0, 1.0, 1.0, 1.0],
        "initial_conditions": [{"rho": 1.5, "delta": 1.0, "gamma": -0.5}],
        "sim": {"dt": 0.05, "t_final": 8.0},
    }

    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, self.PAYLOAD)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0].startswith("ic_index,controller,status,")
        assert len(lines) == 3
        summary = json.loads((out / "compare_summary.json").read_text())
        assert summary["controllers"] == ["globa", "barfli"]
        assert summary["similarity_tol"] == 0.05
        (pair,) = summary["pairs"]
        assert pair["pair"] == ["globa", "barfli"]
        assert pair["max_state_discrepancy"] > 0.0
        assert isinstance(pair["essentially_identical"], bool)
        barfli_row = summary["rows"][1]
        assert barfli_row["min_barrier_distance"] > 0.0

    def test_requires_two_controllers(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**self.PAYLOAD, "controllers": ["globa"]})
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "at least 2" in capsys.readouterr().err

    def test_outside_space_row_is_flagged_not_fatal(self, tmp_path):
        payload = {
            **self.PAYLOAD,
            "initial_conditions": [{"rho": 1.0, "delta": math.pi, "gamma": 0.0}],
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        # globa accepts delta = pi (unbounded space); barfli cannot
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        rows = json.loads((out / "compare_summary.json").read_text())["rows"]
        flags = {r["controller"]: r["flag"] for r in rows}
        assert flags["globa"] == "" and flags["barfli"] == "outside-space"


class TestSweep:
    PAYLOAD = {
        "controller": "globa",
        "gain_sets": [[1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 1.0]],
        "initial_conditions": [
            {"rho": 1.0, "delta": 0.5, "gamma": 0.5},
            {"rho": 2.0, "delta": -1.0, "gamma": 0.0},
        ],
        "sim": {"dt": 0.05, "t_final": 5.0},
    }

    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, self.PAYLOAD)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("gain_set,ic_index,k1,k2,k3,k4,status,capture_time,"
                            "path_length,final_metric,min_barrier_distance,error")
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[2] == "1.0"
        assert first[10] == ""  # GLOBA's space S has no barrier
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["n_runs"] == 4 and summary["n_completed"] == 4

    def test_min_barrier_distance_of_a_bounded_kind(self, tmp_path):
        # BAGAL from delta = pi - 0.05 never gets closer to its delta barrier
        payload = {**self.PAYLOAD, "controller": "bagal", "gain_sets": [[1.0, 1.0, 1.0, 1.0]],
                   "initial_conditions": [{"rho": 1.0, "delta": math.pi - 0.05, "gamma": 0.0}]}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, row = (line.split(",") for line in (out / "sweep.csv").read_text().splitlines())
        distance = float(row[header.index("min_barrier_distance")])
        assert distance == pytest.approx(0.05, abs=1e-6) and distance <= 0.05

    def test_start_outside_the_space_is_an_error_row(self, tmp_path):
        # the second start is beyond BARFLI's delta barrier: its row carries
        # the error and no results, and the sweep still exits 0
        payload = {"controller": "barfli", "gain_sets": [[1, 1, 1, 1]],
                   "initial_conditions": [{"rho": 1, "delta": 0.5, "gamma": 0.2},
                                          {"rho": 1, "delta": 3.5, "gamma": 0}],
                   "sim": {"t_final": 2}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[1].split(",")[6] == "horizon_reached"
        assert lines[2] == ("0,1,1.0,1.0,1.0,1.0,,,,,,"
                            "initial state outside the open space S1 of barfli")
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["n_runs"] == 2 and summary["n_completed"] == 1

    def test_bad_gain_set_rejected(self, tmp_path, capsys):
        payload = {**self.PAYLOAD, "controller": "bagal",
                   "gain_sets": [[1.0, 2.0, 1.0, 1.0]]}
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "gain set #0" in capsys.readouterr().err

    def test_allow_unproven_gains_must_be_a_json_boolean(self, tmp_path, capsys):
        payload = {**self.PAYLOAD, "controller": "bagal", "allow_unproven_gains": "false",
                   "gain_sets": [[1.0, 2.0, 1.0, 1.0]]}
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "allow_unproven_gains must be true or false" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_gain_sets(self, tmp_path, capsys):
        payload = {k: v for k, v in self.PAYLOAD.items() if k != "gain_sets"}
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "gain_sets" in capsys.readouterr().err


class TestOutputDirectory:
    @staticmethod
    def args(tmp_path, command, controller="globa", suite="lemma1"):
        if command == "verify":
            return ["verify", "--suite", suite]
        config = write_config(tmp_path, {**BASE_SIM, "controller": controller})
        return ["simulate", "--config", config]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("below", [False, True])
    def test_unusable_out_exits_1(self, tmp_path, capsys, command, below):
        # --out at a file, or below one: FileExistsError / NotADirectoryError
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        assert main([*self.args(tmp_path, command), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot create output directory {out}: ")
        assert "Traceback" not in captured.err and blocker.read_text() == ""

    @pytest.mark.parametrize("command, message", [
        ("simulate", "unknown controller"), ("verify", "unknown suite")])
    def test_config_errors_come_first(self, tmp_path, capsys, command, message):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        args = self.args(tmp_path, command, controller="nope", suite="bogus")
        assert main([*args, "--out", str(blocker)]) == 1
        assert message in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "polarpark.cli", "verify",
             "--suite", "lemma1", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "lemma1" in proc.stdout

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload", [
        ("simulate", BASE_SIM),
        ("compare", TestCompare.PAYLOAD),
        ("sweep", TestSweep.PAYLOAD),
    ])
    def test_seed_is_a_usage_error_outside_verify(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--seed", "3"]) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, payload, key, value", [
        ("simulate", BASE_SIM, "typo_key", 3),
        ("simulate", BASE_SIM, "compositer", 3),  # ran the sum merge when misspelt
        ("compare", TestCompare.PAYLOAD, "similarity_tol", 3),  # fixed at 0.05
        ("sweep", TestSweep.PAYLOAD, "typo_key", 3),
        # another command's key, which this one would ignore unvalidated
        ("compare", TestCompare.PAYLOAD, "compositor", "no_such_merge"),
        ("sweep", TestSweep.PAYLOAD, "gains", "not gains"),
        ("simulate", BASE_SIM, "gain_sets", "junk"),
    ])
    def test_unknown_config_key_exits_1(self, tmp_path, capsys, command, payload, key, value):
        cfg = write_config(tmp_path, {**payload, key: value})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid config: unknown {command} config keys: ['{key}']\n")
        assert not out.exists()

    def test_config_seed_key_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE_SIM, "seed": 5})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert "invalid config: unknown simulate config keys: ['seed']" in capsys.readouterr().err
        assert not out.exists()
