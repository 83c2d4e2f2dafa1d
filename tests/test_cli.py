import csv
import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mslogistic import cli
from mslogistic.cli import SCHEMAS, ConfigError, ingest_csv, main, run

DATA_DIR = Path(__file__).parent / "data"
FIXTURE = DATA_DIR / "epidemic_shaped.csv"
# Outcomes of named msl runs on the fixture (exit 0, 2 and 3), written by make_cli_golden.py
CLI_GOLDEN_TEXT = (DATA_DIR / "cli_golden.json").read_text()
CLI_GOLDEN = json.loads(CLI_GOLDEN_TEXT)
_maker = importlib.util.spec_from_file_location("make_cli_golden", DATA_DIR / "make_cli_golden.py")
make_cli_golden = importlib.util.module_from_spec(_maker)
_maker.loader.exec_module(make_cli_golden)


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

    def test_value_past_the_panel_range_is_a_config_error(self, tmp_path):
        f = tmp_path / "huge.csv"
        f.write_text("t,a\n0,1.0\n1,1e200\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"huge.csv: path 0: value 1e\+200 at index 1"):
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


class TestWriteCsv:
    @pytest.mark.parametrize("block", [cli.CSV_BLOCK, 7])
    def test_matches_csv_writer(self, tmp_path, monkeypatch, block):
        # the blocked writer must give csv.writer's bytes, non-finite values included
        monkeypatch.setattr(cli, "CSV_BLOCK", block)
        rng = np.random.default_rng(0)
        columns = [np.arange(20.0), rng.standard_normal(20) * 1e300, rng.random(20) * 1e-300]
        columns[1][[0, 5]] = np.nan
        columns[2][[3, 19]] = [np.inf, -np.inf]
        columns[0][7] = -0.0
        header = ["t", "a,b", 'q"']
        want = tmp_path / "want.csv"
        with want.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in zip(*columns):
                writer.writerow([repr(float(v)) for v in row])
        sha = cli._write_csv(tmp_path / "got.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == want.read_bytes()
        assert sha == hashlib.sha256(want.read_bytes()).hexdigest()


    @pytest.mark.parametrize("block", [cli.CSV_BLOCK, 7, 1])
    def test_matrix_entries_write_their_rows_as_columns(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(cli, "CSV_BLOCK", block)
        rng = np.random.default_rng(1)
        t, matrix, last = np.arange(9.0), rng.standard_normal((5, 9)), rng.random(9)
        header = ["t", *"abcde", "z"]
        one_by_one = cli._write_csv(tmp_path / "want.csv", header, [t, *matrix, last])
        assert cli._write_csv(tmp_path / "got.csv", header, [t, matrix, last]) == one_by_one
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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
        cfg = write_config(tmp_path, sim_config(seed=7))
        assert main(["simulate", "--config", str(cfg), "--seed", "8", "--out", str(out1)]) == 0
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
        cfg = {"data": str(sim_out / "panel.csv"), "degree": 3, "method": "sa", "seed": 5,
               "sa": {"replications": 2, "max_iter": 60}}
        run("fit", cfg, out_dir=fit_out)
        report = load_report(fit_out)
        assert report["results"]["method"] == "sa"
        assert len(report["results"]["details"]["replications"]) == 2

    def test_sa_config_seed_is_used_and_recorded(self, tmp_path):
        cfg = {"data": str(FIXTURE), "degree": 3, "method": "sa",
               "sa": {"replications": 2, "max_iter": 20}}
        run("fit", {**cfg, "seed": 7}, out_dir=tmp_path / "config")
        # the --seed flag overrides the config's seed
        path = write_config(tmp_path, {**cfg, "seed": 3})
        assert main(["fit", "--config", str(path), "--seed", "7",
                     "--out", str(tmp_path / "flag")]) == 0
        run("fit", cfg, out_dir=tmp_path / "none")
        run("fit", {**cfg, "seed": 0}, out_dir=tmp_path / "zero")
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
        # the fit (or the degree sweep) and the initial law share one preparation
        cfg = {"data": str(FIXTURE), "fit_until": 246.0, **choice}
        run("forecast", cfg, out_dir=tmp_path / "fc")
        assert len(transform_calls) == 1

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

    @pytest.mark.parametrize("data, degree, method, fragment", [
        (None, 4, "nr", "only 2 usable regression points for degree 4 (need 6)"),
        (FIXTURE, 1000, "nr", "only 247 usable regression points for degree 1000 (need 1002)"),
        (FIXTURE, 1000, "sa", "only 247 usable points for a degree-1000 box"),
    ], ids=["tiny-nr", "fixture-nr", "fixture-sa"])
    def test_degree_beyond_data_exit_code(self, tmp_path, capsys, data, degree, method,
                                          fragment):
        if data is None:
            data = tmp_path / "tiny.csv"
            data.write_text("t,a,b\n0,1.0,1.1\n1,2.0,2.1\n2,2.5,2.6\n", encoding="utf-8")
        self.assert_config_error(tmp_path, capsys, "fit",
                                 {"data": str(data), "degree": degree, "method": method},
                                 fragment)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, extra", [("select", {}), ("forecast", {"fit_until": 246.0})])
    def test_sweep_of_unsupported_degrees_exit_code(self, tmp_path, capsys, command, extra):
        # every degree exceeds the data: the first degree's own message, as fit gives it
        self.assert_config_error(tmp_path, capsys, command,
                                 {"data": str(FIXTURE), "degrees": [1000, 2000], **extra},
                                 "regression points for degree 1000 (need 1002)")
        assert not (tmp_path / "o").exists()

    def test_invalid_json_exit_code(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["simulate", "--config", str(bad)])
        assert code == 2

    def test_misspelt_key_names_missing_and_unknown(self, tmp_path, capsys):
        cfg = sim_config()
        cfg["path"] = cfg.pop("paths")
        self.assert_config_error(tmp_path, capsys, "simulate", cfg,
                                 "error: config: missing keys ['paths'] and unknown keys ['path']\n")

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

    @pytest.mark.parametrize("text, fragment", [
        ("", ": empty file"),
        ("t\n0\n1\n", ": need a time column plus at least one path column"),
        ("t,a\n0,1.0\n1,abc\n", ":3: non-numeric cell 'abc'"),
        ("t,a\n\n0,1.0\n", ": need at least two observation rows"),
    ], ids=["empty", "one_column", "non_numeric_cell", "one_row"])
    def test_unreadable_panel_exit_code(self, tmp_path, capsys, text, fragment):
        f = tmp_path / "bad.csv"
        f.write_text(text, encoding="utf-8")
        self.assert_config_error(tmp_path, capsys, "fit", {"data": str(f), "degree": 1},
                                 f"{f}{fragment}\n")

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 8.00 GiB", "out of memory: Unable to allocate 8.00 GiB\n"),
        ("", "out of memory: an allocation failed\n"),
    ])
    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch, message, line):
        def no_memory(spec):
            raise MemoryError(message)

        monkeypatch.setattr("mslogistic.cli.simulate_panel", no_memory)
        cfg = write_config(tmp_path, sim_config())
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == line
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("command, payload", [
        ("select", {"degrees": [3, 3]}),
        ("forecast", {"degrees": [2, 3, 2], "fit_until": 246.0}),
    ])
    def test_duplicate_degrees_exit_code(self, tmp_path, capsys, command, payload):
        self.assert_config_error(tmp_path, capsys, command, {"data": str(FIXTURE), **payload},
                                 "degrees: expected a list of 1 or more distinct values")
        assert not (tmp_path / "o").exists()

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
                                 "seed: expected an integer", "--seed", "-3")

    def test_sa_fit_negative_seed_flag_exit_code(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, "fit", {"data": str(FIXTURE), "degree": 3},
                                 "seed: expected an integer", "--method", "sa", "--seed", "-1")

    @pytest.mark.parametrize("command, payload, flags, fragment", [
        ("select", {"data": str(FIXTURE), "degrees": [2, 3]}, ["--method", "sa"],
         "unknown keys ['method']"),
        ("simulate", sim_config(), ["--scale-max"], "unknown keys ['scale_max']"),
    ])
    def test_flag_without_config_key_exit_code(self, tmp_path, capsys, command, payload, flags,
                                               fragment):
        self.assert_config_error(tmp_path, capsys, command, payload, fragment, *flags)

    def test_config_hash_covers_flags(self, tmp_path):
        cfg = write_config(tmp_path, {"data": str(FIXTURE), "degree": 3,
                                      "sa": {"replications": 2, "max_iter": 20}})
        hashes = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(["fit", "--config", str(cfg), "--method", "sa", "--seed", seed,
                         "--out", str(out)]) == 0
            report = load_report(out)
            assert report["results"]["method"] == "sa"
            assert report["meta"]["seed"] == int(seed)
            hashes.append(report["meta"]["config_sha256"])
        assert hashes[0] != hashes[1]

    def test_largest_seed_accepted(self, tmp_path):
        run("simulate", sim_config(paths=2, num=11, seed=2**64 - 1), out_dir=tmp_path / "o")
        assert load_report(tmp_path / "o")["meta"]["seed"] == 2**64 - 1

    @pytest.mark.parametrize("command, payload, fragment", [
        ("simulate", {**sim_config(), "paths": True}, "paths: expected an integer >= 1"),
        ("simulate", {**sim_config(), "grid": {"times": [0.0, 2.0, 1.0]}},
         "grid times must be strictly increasing"),
        ("simulate", {**sim_config(), "init": {"x0": 5.0, "sigma1sq": 0.1}}, "init: needs"),
        ("fit", {"data": str(FIXTURE), "degree": 3, "nr": {"tol": "x"}}, "nr.tol: expected"),
        ("fit", {"data": str(FIXTURE), "degree": 3, "nr": {"max_iter": 1.5}},
         "nr.max_iter: expected an integer"),
        ("fit", {"data": 5, "degree": 3}, "data: expected a file path string"),
        ("fit", {"data": str(FIXTURE), "degree": 3, "scale_max": "no"}, "scale_max: expected"),
        ("fit", {"data": str(FIXTURE), "degree": 3, "scale_max": 1}, "scale_max: expected"),
        ("fit", {"data": str(FIXTURE), "degree": 3, "method": "newton"}, "method: expected"),
        ("fit", {"data": str(FIXTURE), "degree": 3, "sa": {"gamma": "x"}}, "sa.gamma: expected"),
        ("fit", {"data": str(FIXTURE), "degree": 3, "confidence_levels": 0.9},
         "confidence_levels: expected a list"),
        ("fpt", {"params": {"eta": math.exp(-1), "beta": [0.1, -0.009, 0.0002], "sigma2": 1e-4},
                 "x0": 5.0, "t0": 0.0, "data": str(FIXTURE), "degree": 3,
                 "boundary": 15.0, "t_max": 210.0}, "(exactly one)"),
        ("fpt", {"data": str(FIXTURE), "boundary": 0.7, "t_max": 350.0}, "'data' + 'degree'"),
        ("fpt", {"params": {"eta": math.exp(-1), "beta": [0.1], "sigma2": 1e-4}, "x0": 5.0,
                 "boundary": 15.0, "t_max": 210.0}, "'params' + 'x0' + 't0'"),
        ("forecast", {"data": str(FIXTURE), "fit_until": 246.0, "degree": 3, "degrees": [3]},
         "needs 'degree' or 'degrees'"),
        ("select", [{"data": str(FIXTURE)}], "config: expected an object, got list"),
        # a library constructor's error names the config key it came from
        ("simulate", {**sim_config(), "init": {"mu1": 1.0, "sigma1sq": -0.5}},
         "error: init: sigma1sq must be nonnegative"),
        ("fit", {"data": str(FIXTURE), "degree": 3, "method": "sa", "sa": {"gamma": 1.5}},
         "error: sa: gamma must lie in (0, 1)"),
        ("fpt", {"params": {"eta": 0.37, "beta": [0.1], "sigma2": 1e-4}, "x0": 5.0, "t0": 10.0,
                 "boundary": 15.0, "t_max": 10.0}, "error: fpt: t_max must exceed t0"),
        ("simulate", sim_config(paths=2**62), "error: simulate: 4611686018427387904 paths of 51"),
        ("simulate", sim_config(paths=2**64), "exceed numpy's largest array"),
        ("simulate", sim_config(num=2**63),
         "grid.num: expected an integer in [2, 1152921504606846975], got 9223372036854775808"),
        # a method table that the chosen method does not read
        ("fit", {"data": str(FIXTURE), "degree": 3, "method": "nr", "sa": {"replications": 2}},
         "error: sa: method 'nr' does not read the 'sa' table"),
        ("fit", {"data": str(FIXTURE), "degree": 3, "sa": {}},
         "error: sa: method 'nr' does not read the 'sa' table"),
        ("fit", {"data": str(FIXTURE), "degree": 3, "method": "sa", "nr": {"tol": 1e-9}},
         "error: nr: method 'sa' does not read the 'nr' table"),
    ])
    def test_schema_violation_exit_code(self, tmp_path, capsys, command, payload, fragment):
        self.assert_config_error(tmp_path, capsys, command, payload, fragment)

    def assert_numerical_failure(self, tmp_path, capsys, command, payload, fragment):
        cfg = write_config(tmp_path, payload)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert fragment in err
        assert not (tmp_path / "o").exists()

    def test_select_without_converged_degree_exit_code(self, tmp_path, capsys):
        self.assert_numerical_failure(tmp_path, capsys, "select",
                                      {"data": str(FIXTURE), "degrees": [30]},
                                      "no degree in [30] gave a converged fit")

    # the fixture at degree 11 ends "no convergence in 200 iterations"; up to
    # t = 210 at degree 4 the line search stalls
    def test_fpt_unconverged_fit_exit_code(self, tmp_path, capsys):
        self.assert_numerical_failure(
            tmp_path, capsys, "fpt",
            {"data": str(FIXTURE), "degree": 11, "boundary": 0.7, "t_max": 350.0},
            "did not converge")

    def test_fit_unconverged_fit_exit_code(self, tmp_path, capsys):
        self.assert_numerical_failure(tmp_path, capsys, "fit", {"data": str(FIXTURE), "degree": 11},
                                      "did not converge: no convergence in 200 iterations")

    def test_forecast_unconverged_fit_exit_code(self, tmp_path, capsys):
        self.assert_numerical_failure(tmp_path, capsys, "forecast",
                                      {"data": str(FIXTURE), "degree": 4, "fit_until": 210.0},
                                      "did not converge: line search stalled")

    def test_fpt_overflowing_horizon_exit_code(self, tmp_path, capsys):
        cfg = {"params": {"eta": math.exp(-1), "beta": [0.1, -0.009, 0.0002], "sigma2": 1e-4},
               "x0": 5.0, "t0": 0.0, "boundary": 15.0, "t_max": 1e300}
        # the drift overflows, so the density is NaN
        self.assert_numerical_failure(tmp_path, capsys, "fpt", cfg,
                                      "the passage density is not finite up to t_max 1e+300")

    def test_simulate_underflowing_paths_exit_code(self, tmp_path, capsys):
        cfg = {**sim_config(), "params": {"eta": 0.3679, "beta": [0.1], "sigma2": 1e300}}
        self.assert_numerical_failure(tmp_path, capsys, "simulate", cfg, "floating-point range")

    def test_non_finite_result_writes_nothing(self, tmp_path, monkeypatch):
        import mslogistic.cli as cli

        original = cli._cmd_select

        def with_nan(cfg, bundle):
            original(cfg, bundle)
            bundle.results["chosen_p"] = float("nan")

        monkeypatch.setitem(cli._COMMANDS, "select", with_nan)
        with pytest.raises(FloatingPointError, match="select: non-finite value"):
            run("select", {"data": str(FIXTURE), "degrees": [2, 3]}, out_dir=tmp_path / "o")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["config", "data"])
    def test_directory_input_exit_code(self, tmp_path, capsys, where):
        if where == "config":
            code = main(["fit", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        else:
            cfg = write_config(tmp_path, {"data": str(tmp_path), "degree": 3})
            code = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "Is a directory" in err

    @pytest.mark.parametrize("where", ["config", "data"])
    def test_non_utf8_input_exit_code(self, tmp_path, capsys, where):
        bad = tmp_path / "latin1.txt"
        if where == "config":
            bad.write_bytes('{"data": "caf\xe9.csv", "degree": 3}'.encode("latin-1"))
            cfg = bad
        else:
            bad.write_bytes("t,caf\xe9\n0,1.0\n1,2.0\n".encode("latin-1"))
            cfg = write_config(tmp_path, {"data": str(bad), "degree": 1})
        code = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "not UTF-8 text" in err

    def test_ingest_unreadable_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="Is a directory"):
            ingest_csv(tmp_path)
        with pytest.raises(ConfigError, match="No such file"):
            ingest_csv(tmp_path / "missing.csv")


    def test_warnings_are_shown_on_success_and_dropped_on_failure(self, tmp_path, monkeypatch):
        import warnings

        import mslogistic.cli as cli

        def warn_then(outcome):
            def command(cfg, bundle):
                warnings.warn("2 paths excluded", UserWarning)
                outcome(cfg, bundle)
            return command

        cfg = str(write_config(tmp_path, {"data": str(FIXTURE), "degrees": [2, 3]}))
        argv = ["select", "--config", cfg, "--out", str(tmp_path / "o")]
        monkeypatch.setitem(cli._COMMANDS, "select", warn_then(cli._cmd_select))
        with pytest.warns(UserWarning, match="2 paths excluded"):
            assert main(argv) == 0

        def fail(cfg, bundle):
            raise cli.FitError("no fit")

        monkeypatch.setitem(cli._COMMANDS, "select", warn_then(fail))
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert shown == []


class TestConvergencePolicy:
    def test_select_lists_unconverged_degrees_as_failures(self, tmp_path):
        run("select", {"data": str(FIXTURE), "degrees": [2, 3, 4, 11]}, out_dir=tmp_path)
        results = load_report(tmp_path)["results"]
        assert results["chosen_p"] == 3
        assert sorted(results["failures"]) == ["11"]
        assert [p for p, e in results["per_degree"].items() if not e["converged"]] == ["11"]

    def test_select_lists_unsupported_degree_as_failure(self, tmp_path):
        assert main(["select", "--config", str(write_config(tmp_path, {
            "data": str(FIXTURE), "degrees": [3, 1000]})), "--out", str(tmp_path / "o")]) == 0
        results = load_report(tmp_path / "o")["results"]
        assert results["chosen_p"] == 3
        assert list(results["per_degree"]) == ["3"]
        assert results["failures"] == {"1000": "only 247 usable regression points for degree "
                                               "1000 (need 1002); the sample mean may not be "
                                               "increasing"}

    def test_forecast_degrees_choose_a_converged_degree(self, tmp_path):
        # up to t = 210 the degree-4 fit stalls
        run("forecast", {"data": str(FIXTURE), "degrees": [4, 3], "fit_until": 210.0},
            out_dir=tmp_path)
        assert load_report(tmp_path)["results"]["degree"] == 3


class TestSchemas:
    def readme_examples(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("## Command line", 1)[1]
        block = section.split("```jsonc", 1)[1].split("```", 1)[0]
        parts = re.split(r"^// (\w+).*$", block, flags=re.M)[1:]
        return [(command, json.loads(body)) for command, body in zip(parts[::2], parts[1::2])]

    def test_readme_examples_pass_the_schema(self):
        examples = self.readme_examples()
        assert {command for command, _ in examples} == set(SCHEMAS)
        for command, config in examples:
            SCHEMAS[command](config)

    def test_checked_config_holds_library_values(self):
        cfg = SCHEMAS["simulate"](sim_config(num=3))
        assert cfg["params"].poly.beta == (0.1, -0.009, 0.0002)
        assert cfg["init"].x0 == 5.0
        np.testing.assert_array_equal(cfg["grid"], [0.0, 25.0, 50.0])


class TestGolden:
    @pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
    def test_matches_recorded_run(self, name):
        assert make_cli_golden.record(name) == CLI_GOLDEN[name]

    def test_file_is_the_generators_output_format(self):
        assert make_cli_golden.dumps(CLI_GOLDEN) + "\n" == CLI_GOLDEN_TEXT
        assert list(CLI_GOLDEN) == list(make_cli_golden.RUNS)
        assert {r["exit"] for r in CLI_GOLDEN.values()} == {0, 2, 3}

    def test_check_mode_diffs_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["make_cli_golden.py", "--check"])
        runs = {"missing_keys": make_cli_golden.RUNS["missing_keys"]}
        monkeypatch.setattr(make_cli_golden, "RUNS", runs)
        stale = tmp_path / "cli_golden.json"
        stale.write_text(make_cli_golden.dumps({"missing_keys": {"exit": 3}}) + "\n")
        monkeypatch.setattr(make_cli_golden, "GOLDEN", stale)
        before = stale.read_text()
        assert make_cli_golden.main() == 1
        assert '-  "exit": 3\n+  "exit": 2,' in capsys.readouterr().out
        assert stale.read_text() == before
