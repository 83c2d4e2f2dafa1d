import json
import math
from pathlib import Path

import numpy as np
import pytest

from mslogistic.cli import ConfigError, ingest_csv, main, run

DATA_DIR = Path(__file__).parent / "data"
FIXTURE = DATA_DIR / "epidemic_shaped.csv"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def load_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}")


def assert_strict_reports(root):
    """Every report.json under ``root`` parses as strict JSON (no NaN/Infinity)."""
    for path in Path(root).rglob("report.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def sim_config(paths=5, num=51, seed=7):
    return {
        "params": {"eta": math.exp(-1), "beta": [0.1, -0.009, 0.0002], "sigma2": 1e-4},
        "init": {"x0": 5.0},
        "grid": {"start": 0.0, "stop": 50.0, "num": num},
        "paths": paths,
        "seed": seed,
    }


class TestIngest:
    def test_two_column_file(self, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("t,x\n0,1.0\n1,2.0\n2,3.0\n", encoding="utf-8")
        panel = ingest_csv(f)
        assert panel.d == 1
        np.testing.assert_array_equal(panel.paths[0].values, [1.0, 2.0, 3.0])

    def test_fixture_shape(self):
        panel = ingest_csv(FIXTURE)
        assert panel.d == 4
        assert len(panel.paths[0]) == 251
        assert panel.paths[0].times[-1] == 250.0

    def test_zero_value_names_cell(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t,a,b\n0,1.0,2.0\n1,0.0,2.5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"row 3.*'a'"):
            ingest_csv(f)

    def test_messages_name_file_lines_after_a_blank_line(self, tmp_path):
        f = tmp_path / "zero.csv"
        f.write_text("t,a,b\n0,1,2\n\n1,0.0,2.5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"nonpositive value 0.0 at row 4, column 'a'"):
            ingest_csv(f)
        f = tmp_path / "times.csv"
        f.write_text("t,a\n0,1.0\n\n2,2.0\n\n1,3.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"times not strictly increasing at row 6$"):
            ingest_csv(f)

    def test_messages_name_file_lines_after_a_quoted_line_break(self, tmp_path):
        f = tmp_path / "quoted.csv"
        f.write_text('t,"a\nb"\n0,1.0\n1,0.0\n', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"nonpositive value 0.0 at row 4"):
            ingest_csv(f)
        f.write_text('t,"a\nb"\n0,1.0\n1,nan\n', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"quoted.csv:4: non-finite"):
            ingest_csv(f)

    def test_ragged_row_diagnostic(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("t,a\n0,1.0\n1,2.0,9\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="ragged"):
            ingest_csv(f)

    def test_nonmonotone_times(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("t,a\n0,1.0\n2,2.0\n1,3.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="increasing"):
            ingest_csv(f)

    def test_scale_max(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("t,a\n0,2.0\n1,8.0\n2,4.0\n", encoding="utf-8")
        panel = ingest_csv(f, scale_max=True)
        np.testing.assert_allclose(panel.paths[0].values, [0.25, 1.0, 0.5])


class TestSimulateCommand:
    def test_writes_panel_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        report_path = run("simulate", sim_config(), out_dir=out)
        report = load_report(out)
        assert report["meta"]["command"] == "simulate"
        assert "panel" in report["files"]
        panel = ingest_csv(out / "panel.csv")
        assert panel.d == 5
        assert report_path.exists()

    def test_deterministic_given_seed(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("simulate", sim_config(), out_dir=out1)
        run("simulate", sim_config(), out_dir=out2)
        r1, r2 = load_report(out1), load_report(out2)
        del r1["meta"]["created_utc"], r2["meta"]["created_utc"]
        r1_files = {k: v["sha256"] for k, v in r1.pop("files").items()}
        r2_files = {k: v["sha256"] for k, v in r2.pop("files").items()}
        assert r1 == r2
        assert r1_files == r2_files

    def test_seed_flag_overrides(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("simulate", sim_config(seed=7), seed=8, out_dir=out1)
        run("simulate", sim_config(seed=8), out_dir=out2)
        h1 = load_report(out1)["files"]["panel"]["sha256"]
        h2 = load_report(out2)["files"]["panel"]["sha256"]
        assert h1 == h2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = sim_config()
        cfg["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown keys.*bogus"):
            run("simulate", cfg, out_dir=tmp_path / "o")


class TestFitCommand:
    def test_nr_fit_roundtrip(self, tmp_path):
        sim_out = tmp_path / "sim"
        run("simulate", sim_config(paths=100, num=201, seed=3), out_dir=sim_out)
        fit_out = tmp_path / "fit"
        cfg = {"data": str(sim_out / "panel.csv"), "degree": 3}
        run("fit", cfg, out_dir=fit_out)
        report = load_report(fit_out)
        est = report["results"]["estimates"]
        assert est["eta"] == pytest.approx(math.exp(-1), rel=0.15)
        assert est["beta"][0] == pytest.approx(0.1, rel=0.15)
        cis = report["results"]["confidence_intervals"]
        lo, hi = cis["beta1"]["level_0.95"]
        assert lo < est["beta"][0] < hi

    def test_sa_fit(self, tmp_path):
        sim_out = tmp_path / "sim"
        run("simulate", sim_config(paths=60, num=101, seed=4), out_dir=sim_out)
        fit_out = tmp_path / "fit"
        cfg = {"data": str(sim_out / "panel.csv"), "degree": 3,
               "sa": {"replications": 2, "max_iter": 60}}
        run("fit", cfg, seed=5, out_dir=fit_out, method="sa")
        report = load_report(fit_out)
        assert report["results"]["method"] == "sa"
        assert len(report["results"]["details"]["replications"]) == 2

    def test_sa_config_seed_is_used_and_recorded(self, tmp_path):
        cfg = {"data": str(FIXTURE), "degree": 3, "method": "sa",
               "sa": {"replications": 2, "max_iter": 20}}
        run("fit", {**cfg, "seed": 7}, out_dir=tmp_path / "config")
        run("fit", cfg, seed=7, out_dir=tmp_path / "flag")
        run("fit", cfg, out_dir=tmp_path / "none")
        run("fit", cfg, seed=0, out_dir=tmp_path / "zero")
        config, flag, none, zero = (load_report(tmp_path / name)
                                    for name in ("config", "flag", "none", "zero"))
        assert config["results"] == flag["results"]
        assert config["meta"]["seed"] == flag["meta"]["seed"] == 7
        assert none["results"] == zero["results"] != flag["results"]
        assert none["meta"]["seed"] == 0


class TestSelectCommand:
    def test_fixture_chooses_three(self, tmp_path):
        out = tmp_path / "sel"
        cfg = {"data": str(FIXTURE), "degrees": [2, 3, 4]}
        run("select", cfg, out_dir=out)
        report = load_report(out)
        assert report["results"]["chosen_p"] == 3
        assert (out / "dra_curves.csv").exists()
        bic2 = report["results"]["per_degree"]["2"]["bic"]
        bic3 = report["results"]["per_degree"]["3"]["bic"]
        assert bic3 < bic2


class TestFptCommand:
    def test_example_parameters(self, tmp_path):
        out = tmp_path / "fpt"
        cfg = {
            "params": {"eta": math.exp(-1), "beta": [0.1, -0.009, 0.0002], "sigma2": 1e-4},
            "x0": 5.0, "t0": 0.0, "boundary": 15.0, "t_max": 210.0,
        }
        run("fpt", cfg, out_dir=out)
        report = load_report(out)
        s = report["results"]["summaries"]
        assert s["mean"] == pytest.approx(40.18765, rel=0.005)
        assert s["mode"] == pytest.approx(39.92321, rel=0.005)
        assert (out / "fpt_density.csv").exists()

    def test_data_driven(self, tmp_path):
        out = tmp_path / "fpt"
        cfg = {"data": str(FIXTURE), "degree": 3, "boundary": 0.7, "t_max": 350.0}
        run("fpt", cfg, out_dir=out)
        report = load_report(out)
        assert 200.0 < report["results"]["summaries"]["mode"] < 240.0
        assert report["results"]["fitted_from"]["degree"] == 3


class TestForecastCommand:
    def test_holdout_errors_small_on_fixture(self, tmp_path):
        out = tmp_path / "fc"
        cfg = {"data": str(FIXTURE), "degree": 3, "fit_until": 246.0}
        run("forecast", cfg, out_dir=out)
        report = load_report(out)
        held = report["results"]["held_out"]
        assert held["times"] == [247.0, 248.0, 249.0, 250.0]
        assert held["max_relative_error"] < 0.05
        assert (out / "forecast.csv").exists()

    @pytest.mark.parametrize("choice", [{"degree": 3}, {"degrees": [2, 3, 4]}])
    def test_fits_once(self, tmp_path, transform_calls, choice):
        # one transform for the fit (or the degree sweep), one for the initial law
        cfg = {"data": str(FIXTURE), "fit_until": 246.0, **choice}
        run("forecast", cfg, out_dir=tmp_path / "fc")
        assert len(transform_calls) == 2

    def test_degrees_uses_the_sweep_fit(self, tmp_path):
        base = {"data": str(FIXTURE), "fit_until": 246.0}
        run("forecast", {**base, "degrees": [2, 3, 4]}, out_dir=tmp_path / "sweep")
        run("forecast", {**base, "degree": 3}, out_dir=tmp_path / "one")
        sweep, one = load_report(tmp_path / "sweep"), load_report(tmp_path / "one")
        assert sweep["results"] == one["results"]
        assert sweep["files"]["forecast"]["sha256"] == one["files"]["forecast"]["sha256"]

    def test_no_holdout_rejected(self, tmp_path):
        cfg = {"data": str(FIXTURE), "degree": 3, "fit_until": 400.0}
        with pytest.raises(ConfigError):
            run("forecast", cfg, out_dir=tmp_path / "x")


class TestMainEntry:
    def test_exit_codes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sim_config(paths=2, num=11))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "ok")])
        assert code == 0
        assert "report.json" in capsys.readouterr().out

        bad = write_config(tmp_path, {"nope": 1}, name="bad.json")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "b")])
        assert code == 2

        missing = tmp_path / "missing.json"
        code = main(["fit", "--config", str(missing)])
        assert code == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # a panel too small for the requested degree fails with code 3?
        # initial_theta raises FitError -> numerical failure channel
        f = tmp_path / "tiny.csv"
        f.write_text("t,a,b\n0,1.0,1.1\n1,2.0,2.1\n2,2.5,2.6\n", encoding="utf-8")
        cfg = write_config(tmp_path, {"data": str(f), "degree": 4})
        code = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_invalid_json_exit_code(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["simulate", "--config", str(bad)])
        assert code == 2

    def assert_config_error(self, tmp_path, capsys, command, payload, fragment, *flags):
        cfg = write_config(tmp_path, payload)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err
        assert_strict_reports(tmp_path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_panel_cell_exit_code(self, tmp_path, capsys, cell):
        f = tmp_path / "bad.csv"
        f.write_text(f"t,a,b\n0,1.0,2.0\n1,2.0,{cell}\n2,3.0,4.0\n", encoding="utf-8")
        self.assert_config_error(tmp_path, capsys, "fit", {"data": str(f), "degree": 1},
                                 f":3: non-finite value {cell!r} in column 'b'")

    def test_negative_initial_variance_exit_code(self, tmp_path, capsys):
        cfg = {**sim_config(), "init": {"mu1": 1.0, "sigma1sq": -0.5}}
        self.assert_config_error(tmp_path, capsys, "simulate", cfg, "sigma1sq must be nonnegative")

    @pytest.mark.parametrize("level", [1.5, 1.0, 0.0, -0.2])
    def test_confidence_level_outside_unit_interval_exit_code(self, tmp_path, capsys, level):
        cfg = {"data": str(FIXTURE), "degree": 3, "confidence_levels": [0.9, level]}
        self.assert_config_error(tmp_path, capsys, "fit", cfg, "confidence_levels[1]")

    def test_forecast_percentile_outside_unit_interval_exit_code(self, tmp_path, capsys):
        cfg = {"data": str(FIXTURE), "degree": 3, "fit_until": 246.0, "percentiles": [1.5]}
        self.assert_config_error(tmp_path, capsys, "forecast", cfg, "percentiles[0]")

    def test_valid_levels_write_strict_json(self, tmp_path):
        code = main(["fit", "--config", str(write_config(
            tmp_path, {"data": str(FIXTURE), "degree": 3, "confidence_levels": [0.5, 0.99]})),
            "--out", str(tmp_path / "o")])
        assert code == 0
        assert_strict_reports(tmp_path)
        assert "level_0.99" in load_report(tmp_path / "o")["results"]["confidence_intervals"]["eta"]

    def test_sa_zero_replications_exit_code(self, tmp_path, capsys):
        self.assert_config_error(
            tmp_path, capsys, "fit",
            {"data": str(FIXTURE), "degree": 3, "method": "sa", "sa": {"replications": 0}},
            "replications")

    def test_fpt_string_degree_exit_code(self, tmp_path, capsys):
        self.assert_config_error(
            tmp_path, capsys, "fpt",
            {"data": str(FIXTURE), "degree": "3", "boundary": 0.7, "t_max": 350.0}, "degree")

    @pytest.mark.parametrize("choice, fragment", [
        ({"degrees": "3"}, "degrees: expected"),
        ({"degrees": []}, "degrees: expected"),
        ({"degrees": [True, 3]}, "degrees: expected"),
        ({"degrees": [2, 0]}, "degrees: expected"),
        ({"degree": 0}, "degree: expected"),
        ({"degree": True}, "degree: expected"),
        ({"degree": 3.0}, "degree: expected"),
        ({}, "needs 'degree' or 'degrees'"),
    ])
    def test_forecast_bad_degree_exit_code(self, tmp_path, capsys, choice, fragment):
        cfg = {"data": str(FIXTURE), "fit_until": 246.0, **choice}
        self.assert_config_error(tmp_path, capsys, "forecast", cfg, fragment)

    @pytest.mark.parametrize("command, payload", [
        ("fit", {"degree": True}),
        ("fpt", {"degree": True, "boundary": 0.7, "t_max": 350.0}),
        ("select", {"degrees": [True, 3]}),
    ])
    def test_boolean_degree_exit_code(self, tmp_path, capsys, command, payload):
        self.assert_config_error(tmp_path, capsys, command, {"data": str(FIXTURE), **payload},
                                 "degree")

    def test_fpt_horizon_before_start_exit_code(self, tmp_path, capsys):
        cfg = {"params": {"eta": math.exp(-1), "beta": [0.1, -0.009, 0.0002], "sigma2": 1e-4},
               "x0": 5.0, "t0": 10.0, "boundary": 15.0, "t_max": 10.0}
        self.assert_config_error(tmp_path, capsys, "fpt", cfg, "t_max must exceed t0")

    def test_fpt_down_crossing_exit_code(self, tmp_path, capsys):
        cfg = {"params": {"eta": math.exp(-1), "beta": [0.1, -0.009, 0.0002], "sigma2": 1e-4},
               "x0": 5.0, "t0": 0.0, "boundary": 2.0, "t_max": 210.0}
        self.assert_config_error(tmp_path, capsys, "fpt", cfg, "down-crossing")

    @pytest.mark.parametrize("seed", [-1, 2**64, "x", True, 1.0])
    def test_simulate_bad_config_seed_exit_code(self, tmp_path, capsys, seed):
        self.assert_config_error(tmp_path, capsys, "simulate", sim_config(seed=seed),
                                 "seed: expected an integer in [0, 2**64)")

    def test_simulate_negative_seed_flag_exit_code(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, "simulate", sim_config(),
                                 "--seed: expected an integer", "--seed", "-3")

    def test_sa_fit_negative_seed_flag_exit_code(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, "fit", {"data": str(FIXTURE), "degree": 3},
                                 "--seed: expected an integer", "--method", "sa", "--seed", "-1")

    def test_largest_seed_accepted(self, tmp_path):
        run("simulate", sim_config(paths=2, num=11, seed=2**64 - 1), out_dir=tmp_path / "o")
        assert load_report(tmp_path / "o")["meta"]["seed"] == 2**64 - 1
