"""Batch command-line surface: ``msl simulate|fit|select|fpt|forecast``.

Every command reads a JSON config (validated against a fixed key schema,
unknown keys rejected), runs the corresponding pipeline, and writes a report
bundle into the output directory:

* ``report.json``: run metadata (config hash, seed, package version,
  timestamp), the command's results, and a manifest of every emitted file
  with its SHA-256;
* series files as CSV (UTF-8, ``.`` decimal separator, mandatory header).

Identical config and seed produce bit-identical reports up to the timestamp,
which lives only in the metadata block.

Exit codes: 0 success, 2 config/data validation error, 3 numerical failure.

Panel CSVs are wide: first column ``t``, one further column per path.  With
``--scale-max`` (or ``"scale_max": true``) each path is divided by its own
maximum on ingestion, turning counts into fractions of the observed peak.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import SingularInformationError, confidence_intervals, fisher_info
from .fit_nr import FitError, fit
from .fit_sa import SaSchedule, anneal, build_box
from .fpt import FptProblem, VolterraError, solve_density
from .likelihood import fit_initial, transform
from .model import Degenerate, LognormalStart, ModelParams, PolyCoeffs, percentile, process_mean
from .selection import select_degree
from .simulate import PathPanel, SimSpec, simulate_panel

__all__ = ["main", "run", "ingest_csv", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration or input data (exit code 2)."""


# ---------------------------------------------------------------------------
# config plumbing

def _expect_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = required - obj.keys()
    unknown = obj.keys() - required - optional
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _positive(value, where: str) -> float:
    value = _number(value, where)
    if value <= 0:
        raise ConfigError(f"{where}: must be positive, got {value}")
    return value


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _seed(value, where: str):
    if value is None or (isinstance(value, int) and not isinstance(value, bool)
                         and 0 <= value < 2**64):
        return value
    raise ConfigError(f"{where}: expected an integer in [0, 2**64), got {value!r}")


def _levels(values, where: str) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where}: expected a list of levels")
    levels = tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(values))
    for i, lv in enumerate(levels):
        if not 0.0 < lv < 1.0:
            raise ConfigError(f"{where}[{i}]: a level must lie in (0, 1), got {lv}")
    return levels


def _is_degree(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _degree(value) -> int:
    if not _is_degree(value):
        raise ConfigError("degree: expected a positive integer")
    return value


def _degrees(values) -> list[int]:
    if not isinstance(values, list) or not values or not all(map(_is_degree, values)):
        raise ConfigError("degrees: expected a nonempty list of positive integers")
    return values


def _params_from_config(obj, where: str) -> ModelParams:
    _expect_keys(obj, where, {"eta", "beta", "sigma2"})
    beta = obj["beta"]
    if not isinstance(beta, list) or not beta:
        raise ConfigError(f"{where}.beta: expected a nonempty list")
    return ModelParams(
        eta=_positive(obj["eta"], f"{where}.eta"),
        poly=PolyCoeffs(tuple(_number(b, f"{where}.beta[{i}]") for i, b in enumerate(beta))),
        sigma2=_positive(obj["sigma2"], f"{where}.sigma2"),
    )


def _init_from_config(obj, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    if "x0" in obj:
        _expect_keys(obj, where, {"x0"})
        return Degenerate(_positive(obj["x0"], f"{where}.x0"))
    _expect_keys(obj, where, {"mu1", "sigma1sq"})
    mu1 = _number(obj["mu1"], f"{where}.mu1")
    sigma1sq = _number(obj["sigma1sq"], f"{where}.sigma1sq")
    try:
        return LognormalStart(mu1=mu1, sigma1sq=sigma1sq)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _grid_from_config(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    if "times" in obj:
        _expect_keys(obj, where, {"times"})
        times = obj["times"]
        if not isinstance(times, list) or len(times) < 2:
            raise ConfigError(f"{where}.times: need at least two times")
        return np.array([_number(t, f"{where}.times[{i}]") for i, t in enumerate(times)])
    _expect_keys(obj, where, {"start", "stop", "num"})
    num = obj["num"]
    if not isinstance(num, int) or num < 2:
        raise ConfigError(f"{where}.num: expected an integer >= 2")
    return np.linspace(_number(obj["start"], f"{where}.start"),
                       _number(obj["stop"], f"{where}.stop"), num)


# ---------------------------------------------------------------------------
# data ingestion / emission

def ingest_csv(path, scale_max: bool = False) -> PathPanel:
    """Read a wide panel CSV: column ``t`` first, one column per path after."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"data file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ConfigError(f"{path}: need a time column plus at least one path column")
        rows, linenos = [], []
        for row in reader:
            lineno = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}:{lineno}: ragged row ({len(row)} cells, expected {len(header)})"
                )
            try:
                cells = [float(c) for c in row]
            except ValueError:
                bad = next(c for c in row if not _is_float(c))
                raise ConfigError(f"{path}:{lineno}: non-numeric cell {bad!r}") from None
            if not all(map(math.isfinite, cells)):
                j = next(j for j, x in enumerate(cells) if not math.isfinite(x))
                raise ConfigError(
                    f"{path}:{lineno}: non-finite value {row[j].strip()!r} in column {header[j]!r}"
                )
            rows.append(cells)
            linenos.append(lineno)
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least two observation rows")
    data = np.asarray(rows)
    times = data[:, 0]
    if np.any(np.diff(times) <= 0):
        k = int(np.argmax(np.diff(times) <= 0))
        raise ConfigError(f"{path}: times not strictly increasing at row {linenos[k + 1]}")
    values = data[:, 1:]
    for j in range(values.shape[1]):
        col = values[:, j]
        if np.any(col <= 0):
            i = int(np.argmax(col <= 0))
            raise ConfigError(
                f"{path}: nonpositive value {col[i]} at row {linenos[i]}, column {header[j + 1]!r}"
            )
    if scale_max:
        values = values / values.max(axis=0, keepdims=True)
    return PathPanel.from_matrix(times, values.T)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _params_dict(xi: ModelParams) -> dict:
    return {"eta": xi.eta, "beta": list(xi.poly.beta), "sigma2": xi.sigma2}


class _Bundle:
    """Accumulates results and emitted files, then writes report.json."""

    def __init__(self, command: str, config: dict, seed, out_dir: Path):
        self.command = command
        self.config = config
        self.seed = seed
        self.out_dir = out_dir
        self.results: dict = {}
        self.files: dict[str, dict] = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def add_file(self, name: str, path: Path) -> None:
        self.files[name] = {"path": str(path), "sha256": _sha256(path)}

    def write(self) -> Path:
        canonical = json.dumps(self.config, sort_keys=True).encode()
        report = {
            "meta": {
                "command": self.command,
                "config_sha256": hashlib.sha256(canonical).hexdigest(),
                "seed": self.seed,
                "version": __version__,
                "created_utc": datetime.now(timezone.utc).isoformat(),
            },
            "results": self.results,
            "files": self.files,
        }
        path = self.out_dir / "report.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# commands

def _cmd_simulate(config: dict, seed, out_dir: Path, scale_max: bool) -> _Bundle:
    _expect_keys(config, "config", {"params", "init", "grid", "paths"}, {"seed"})
    params = _params_from_config(config["params"], "params")
    init = _init_from_config(config["init"], "init")
    grid = _grid_from_config(config["grid"], "grid")
    d = config["paths"]
    if not isinstance(d, int) or d < 1:
        raise ConfigError("paths: expected a positive integer")
    seed = 0 if seed is None else seed
    panel = simulate_panel(SimSpec(params=params, init=init, grid=grid, d=d, seed=seed))

    bundle = _Bundle("simulate", config, seed, out_dir)
    panel_path = out_dir / "panel.csv"
    _write_csv(panel_path, ["t"] + [f"path{i + 1}" for i in range(d)],
               [grid] + [p.values for p in panel.paths])
    bundle.add_file("panel", panel_path)
    bundle.results = {
        "paths": d,
        "points_per_path": int(grid.size),
        "t_range": [float(grid[0]), float(grid[-1])],
    }
    return bundle


def _fit_panel(panel: PathPanel, degree: int, method: str, seed, config: dict):
    if method == "nr":
        opts = config.get("nr", {})
        _expect_keys(opts, "nr", set(), {"tol", "max_iter"})
        res = fit(panel, degree, **{k: opts[k] for k in opts})
        if not res.converged:
            raise FitError(
                f"Newton iteration did not converge (residual {res.residual_norm:.3e}); "
                f"trace length {len(res.trace)}"
            )
        return res.xi_hat, {"iterations": res.iterations,
                            "residual_norm": res.residual_norm,
                            "converged": res.converged}
    if method == "sa":
        opts = dict(config.get("sa", {}))
        _expect_keys(opts, "sa", set(),
                     {"replications", "chain_length", "max_iter", "gamma", "p0", "t_final"})
        opts["seed"] = seed
        try:
            sched = SaSchedule(**opts)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sa: {exc}") from None
        box = build_box(panel, degree)
        res = anneal(panel, degree, box, sched)
        return res.xi_hat, {
            "replications": [
                {"params": _params_dict(prm), "objective": obj}
                for prm, obj in res.per_replication
            ],
            "stop_reasons": list(res.stop_reasons),
            "initial_temperature": res.t0_temperature,
        }
    raise ConfigError(f"unknown fit method {method!r} (use 'nr' or 'sa')")


def _cmd_fit(config: dict, seed, out_dir: Path, scale_max: bool, method_flag) -> _Bundle:
    _expect_keys(config, "config",
                 {"data", "degree"},
                 {"method", "scale_max", "nr", "sa", "confidence_levels", "seed"})
    method = method_flag or config.get("method", "nr")
    levels = _levels(config.get("confidence_levels", (0.95, 0.90, 0.75)), "confidence_levels")
    panel = ingest_csv(config["data"], scale_max or config.get("scale_max", False))
    degree = _degree(config["degree"])
    if method == "sa" and seed is None:
        seed = SaSchedule.seed
    xi_hat, details = _fit_panel(panel, degree, method, seed, config)

    vdata = transform(panel)
    alpha = fit_initial(vdata)
    bundle = _Bundle("fit", config, seed, out_dir)
    bundle.results = {
        "method": method,
        "degree": degree,
        "estimates": _params_dict(xi_hat),
        "initial_law": {"mu1": alpha.mu1_hat, "sigma1sq": alpha.sigma1sq_hat},
        "details": details,
        "t0": vdata.t0,
    }
    try:
        report = confidence_intervals(fisher_info(vdata, xi_hat), xi_hat, levels=levels)
        bundle.results["confidence_intervals"] = {
            entry.name: {
                "estimate": entry.estimate,
                "std_error": entry.std_error,
                **{f"level_{lv}": list(entry.intervals[lv]) for lv in levels},
            }
            for entry in report.parameters
        }
    except SingularInformationError as exc:
        bundle.results["confidence_intervals"] = None
        bundle.results["confidence_intervals_error"] = str(exc)
    return bundle


def _cmd_select(config: dict, seed, out_dir: Path, scale_max: bool) -> _Bundle:
    _expect_keys(config, "config", {"data", "degrees"}, {"scale_max", "seed"})
    degrees = _degrees(config["degrees"])
    panel = ingest_csv(config["data"], scale_max or config.get("scale_max", False))
    report = select_degree(panel, degrees)

    bundle = _Bundle("select", config, seed, out_dir)
    curves_path = out_dir / "dra_curves.csv"
    cols = [report.per_degree[0].dra_times]
    header = ["t"]
    for entry in report.per_degree:
        header.append(f"p{entry.p}")
        cols.append(entry.dra_values)
    _write_csv(curves_path, header, cols)
    bundle.add_file("dra_curves", curves_path)
    bundle.results = {
        "chosen_p": report.chosen_p,
        "per_degree": {
            str(e.p): {
                "rae": e.rae,
                "aic": e.aic,
                "bic": e.bic,
                "dra_median": e.dra_median,
                "dra_mean": e.dra_mean,
                "loglik": e.loglik,
                "converged": e.converged,
                "estimates": _params_dict(e.xi_hat),
            }
            for e in report.per_degree
        },
        "failures": {str(p): msg for p, msg in report.failures},
    }
    return bundle


def _cmd_fpt(config: dict, seed, out_dir: Path, scale_max: bool) -> _Bundle:
    _expect_keys(config, "config", {"boundary", "t_max"},
                 {"params", "x0", "t0", "data", "degree", "scale_max", "seed"})
    if "params" in config:
        for key in ("x0", "t0"):
            if key not in config:
                raise ConfigError(f"explicit-parameter fpt config needs {key!r}")
        params = _params_from_config(config["params"], "params")
        x0 = _positive(config["x0"], "x0")
        t0 = _number(config["t0"], "t0")
        fitted_from = None
    elif "data" in config:
        if "degree" not in config:
            raise ConfigError("data-driven fpt config needs 'degree'")
        degree = _degree(config["degree"])
        panel = ingest_csv(config["data"], scale_max or config.get("scale_max", False))
        res = fit(panel, degree)
        params = res.xi_hat
        x0 = float(panel.first_values().mean())
        t0 = 0.0  # fitted parameters live on the shifted clock
        fitted_from = {"data": str(config["data"]), "degree": degree,
                       "estimates": _params_dict(params), "panel_t0": panel.t0}
    else:
        raise ConfigError("fpt config needs either 'params' or 'data'")

    boundary = _positive(config["boundary"], "boundary")
    t_max = _number(config["t_max"], "t_max")
    try:
        problem = FptProblem(params=params, x0=x0, t0=t0, boundary=boundary, t_max=t_max)
    except ValueError as exc:
        raise ConfigError(f"fpt: {exc}") from None
    try:
        dens = solve_density(problem)
    except NotImplementedError as exc:
        raise ConfigError(f"fpt: boundary {boundary} is below the start {x0}; {exc}") from None

    bundle = _Bundle("fpt", config, seed, out_dir)
    dens_path = out_dir / "fpt_density.csv"
    _write_csv(dens_path, ["t", "density", "cumulative"],
               [dens.times, dens.density, dens.cumulative])
    bundle.add_file("density", dens_path)
    bundle.results = {
        "summaries": {
            "mean": dens.mean,
            "std": dens.std,
            "mode": dens.mode,
            "decile_1": dens.deciles[0],
            "decile_5": dens.deciles[1],
            "decile_9": dens.deciles[2],
        },
        "captured_mass": dens.captured_mass,
        "mass_warning": dens.mass_warning,
        "negative_warning": dens.negative_warning,
        "grid_nodes": int(dens.times.size),
        "fitted_from": fitted_from,
    }
    return bundle


def _cmd_forecast(config: dict, seed, out_dir: Path, scale_max: bool) -> _Bundle:
    _expect_keys(config, "config", {"data", "fit_until"},
                 {"degree", "degrees", "percentiles", "scale_max", "seed"})
    levels = _levels(config.get("percentiles", [0.95, 0.90, 0.75]), "percentiles")
    if "degrees" in config:
        degrees = _degrees(config["degrees"])
    elif "degree" in config:
        degree = _degree(config["degree"])
    else:
        raise ConfigError("forecast needs 'degree' or 'degrees'")
    panel = ingest_csv(config["data"], scale_max or config.get("scale_max", False))
    fit_until = _number(config["fit_until"], "fit_until")
    grid = panel.common_grid()
    if grid is None:
        raise ConfigError("forecast needs a common observation grid")
    keep = grid <= fit_until
    if keep.sum() < 5:
        raise ConfigError(f"fit_until={fit_until} leaves too few observations")
    if keep.all():
        raise ConfigError(f"fit_until={fit_until} holds out no observations")
    restricted = PathPanel.from_matrix(grid[keep], panel.values_matrix()[:, keep])

    if "degrees" in config:
        report = select_degree(restricted, degrees)
        degree = report.chosen_p
        xi = report[degree].xi_hat
    else:
        xi = fit(restricted, degree).xi_hat

    vdata = transform(restricted)
    alpha = fit_initial(vdata)
    t0 = vdata.t0
    init = LognormalStart(mu1=alpha.mu1_hat, sigma1sq=alpha.sigma1sq_hat)
    shifted = grid - t0
    mean_curve = np.asarray(process_mean(xi, init, 0.0, shifted))

    bands = {}
    for lv_f in levels:
        lo = np.asarray(percentile(xi, init, 0.0, shifted[1:], (1 - lv_f) / 2))
        hi = np.asarray(percentile(xi, init, 0.0, shifted[1:], (1 + lv_f) / 2))
        bands[lv_f] = (np.concatenate(([np.nan], lo)), np.concatenate(([np.nan], hi)))

    m = panel.pointwise_mean
    held = ~keep
    rel_err = np.abs(m[held] - mean_curve[held]) / m[held]

    bundle = _Bundle("forecast", config, seed, out_dir)
    fc_path = out_dir / "forecast.csv"
    header = ["t", "sample_mean", "forecast_mean"]
    cols = [grid, m, mean_curve]
    for lv_f, (lo, hi) in bands.items():
        header += [f"p{lv_f}_lo", f"p{lv_f}_hi"]
        cols += [lo, hi]
    _write_csv(fc_path, header, cols)
    bundle.add_file("forecast", fc_path)
    bundle.results = {
        "degree": degree,
        "fit_until": fit_until,
        "estimates": _params_dict(xi),
        "held_out": {
            "times": [float(t) for t in grid[held]],
            "sample_mean": [float(v) for v in m[held]],
            "forecast_mean": [float(v) for v in mean_curve[held]],
            "relative_error": [float(v) for v in rel_err],
            "max_relative_error": float(rel_err.max()),
        },
    }
    return bundle


# ---------------------------------------------------------------------------
# entry point

def run(command: str, config: dict, seed=None, out_dir="msl-out",
        scale_max: bool = False, method=None) -> Path:
    """Execute one command; returns the path of the written report."""
    out = Path(out_dir)
    seed = _seed(seed, "--seed") if seed is not None else _seed(config.get("seed"), "seed")
    if command == "simulate":
        bundle = _cmd_simulate(config, seed, out, scale_max)
    elif command == "fit":
        bundle = _cmd_fit(config, seed, out, scale_max, method)
    elif command == "select":
        bundle = _cmd_select(config, seed, out, scale_max)
    elif command == "fpt":
        bundle = _cmd_fpt(config, seed, out, scale_max)
    elif command == "forecast":
        bundle = _cmd_forecast(config, seed, out, scale_max)
    else:
        raise ConfigError(f"unknown command {command!r}")
    return bundle.write()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msl",
        description="Lognormal diffusion with a multisigmoidal logistic mean: "
                    "simulation, inference, model selection and first-passage times.",
    )
    parser.add_argument("command",
                        choices=["simulate", "fit", "select", "fpt", "forecast"])
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="msl-out", help="output directory")
    parser.add_argument("--scale-max", action="store_true",
                        help="divide each ingested path by its own maximum")
    parser.add_argument("--method", choices=["nr", "sa"], default=None,
                        help="fit method (fit command only)")
    args = parser.parse_args(argv)

    try:
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise ConfigError(f"config file not found: {cfg_path}")
        try:
            config = json.loads(cfg_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{cfg_path}: invalid JSON ({exc})") from None
        if not isinstance(config, dict):
            raise ConfigError(f"{cfg_path}: top level must be an object")
        report = run(args.command, config, seed=args.seed, out_dir=args.out,
                     scale_max=args.scale_max, method=args.method)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, VolterraError, SingularInformationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
