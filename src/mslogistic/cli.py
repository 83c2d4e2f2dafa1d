"""Batch command-line surface: ``msl simulate|fit|select|fpt|forecast``.

Every command's JSON config is checked against its table in :data:`SCHEMAS`
(key -> required flag and validator; nested tables for ``params``, ``init``,
``grid``, ``nr`` and ``sa``; "exactly one of" groups; unknown keys rejected)
inside :func:`run`, so library callers get the same checks as ``msl``.  The
command then writes a report bundle into the output directory:

* ``report.json`` (strict JSON): run metadata (config hash, seed, package
  version, timestamp), the command's results, and a manifest of every
  emitted file with its SHA-256;
* series files as CSV (UTF-8, ``.`` decimal separator, mandatory header).

Identical config and seed produce bit-identical reports up to the timestamp,
which lives only in the metadata block.

Exit codes: 0 success, 2 config/data validation error (unreadable and
non-UTF-8 files and a degree with too few usable data points included),
3 numerical failure: a Newton-Raphson fit that does not converge, a ``select``
sweep with no converged degree, a non-finite result (nothing is written) or an
allocation that runs out of memory.  A failing run prints one line on stderr.

The flags ``--seed``, ``--method`` and ``--scale-max`` are config keys: :func:`main`
writes each one given into the config, so :func:`run` checks it like the key,
the config hash covers it, and a command without that key rejects it.

Panel CSVs are wide: first column ``t``, one further column per path.  With
``"scale_max": true`` each path is divided by its own maximum on ingestion,
turning counts into fractions of the observed peak.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable

# Before numpy loads: the estimators work on sufficient aggregates, so no BLAS
# operand exceeds (p+2) x (N-1) entries, whatever the number of paths.  Each idle
# OpenBLAS worker still spins for about 0.1 s of CPU, and scipy.special (simulate_panel
# above 2**20 draws) starts a second pool.  A value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .asymptotics import SingularInformationError, confidence_intervals, fisher_info
from .fit_nr import DegreeError, FitError, fit
from .fit_sa import SaSchedule, anneal, build_box
from .fpt import FptProblem, VolterraError, solve_density
from .likelihood import fit_initial, transform
from .model import Degenerate, LognormalStart, ModelParams, PolyCoeffs, percentile, process_mean
from .selection import select_degree
from .simulate import MAX_FLOATS, PathPanel, SimSpec, check_seed, simulate_panel

__all__ = ["main", "run", "ingest_csv", "ConfigError", "SCHEMAS"]

CSV_BLOCK = 2**12  # values formatted per block when streaming a CSV


class ConfigError(ValueError):
    """Invalid configuration or input data (exit code 2)."""


# ---------------------------------------------------------------------------
# config schema

def _build(factory, *args, where: str = "", **kwargs):
    """Call a library constructor or check; its ValueError/TypeError is a ConfigError."""
    try:
        return factory(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


@dataclass(frozen=True)
class _Scalar:
    """One JSON value accepted by ``ok`` and described by ``desc``."""

    desc: str
    ok: Callable[[object], bool]
    convert: Callable = lambda value: value

    def __call__(self, value, where: str):
        if not self.ok(value):
            raise ConfigError(f"{where}: expected {self.desc}, got {value!r}")
        return self.convert(value)


@dataclass(frozen=True)
class _List:
    """A JSON list of at least ``min_len`` values, each accepted by ``item``.

    With ``distinct``, no value may appear twice.
    """

    item: _Scalar
    min_len: int = 1
    distinct: bool = False

    def __call__(self, value, where: str) -> list:
        what = "distinct values" if self.distinct else "values"
        desc = f"a list of {self.min_len} or more {what}, each {self.item.desc}"
        if not isinstance(value, list) or len(value) < self.min_len:
            raise ConfigError(f"{where}: expected {desc}, got {value!r}")
        for i, v in enumerate(value):
            if not self.item.ok(v):
                raise ConfigError(f"{where}: expected {desc}; {where}[{i}] is {v!r}")
            if self.distinct and v in value[:i]:
                raise ConfigError(f"{where}: expected {desc}; {where}[{i}] repeats {v!r}")
        return [self.item.convert(v) for v in value]


@dataclass(frozen=True)
class _Table:
    """A JSON object whose ``fields`` map each key to ``(required, validator)``.

    ``one_of`` lists alternative key sets; the keys of the table that appear
    in any of them must form exactly one.  ``make`` turns the checked values
    into a library object, through :func:`_build`.
    """

    fields: dict
    one_of: tuple[tuple[str, ...], ...] = ()
    make: Callable | None = None

    def __call__(self, value, where: str = ""):
        name = where or "config"
        if not isinstance(value, dict):
            raise ConfigError(f"{name}: expected an object, got {type(value).__name__}")
        missing = sorted(k for k, (required, _) in self.fields.items()
                         if required and k not in value)
        unknown = sorted(value.keys() - self.fields.keys())
        if missing or unknown:  # one line that names both lists
            raise ConfigError(f"{name}: " + " and ".join(
                f"{kind} keys {keys}" for kind, keys in (("missing", missing), ("unknown", unknown))
                if keys))
        if self.one_of:
            given = {k for alt in self.one_of for k in alt if k in value}
            if given not in [set(alt) for alt in self.one_of]:
                alts = " or ".join(" + ".join(map(repr, alt)) for alt in self.one_of)
                raise ConfigError(f"{name}: needs {alts} (exactly one), got {sorted(given)}")
        checked = {k: self.fields[k][1](v, f"{where}.{k}" if where else k)
                   for k, v in value.items()}
        return checked if self.make is None else _build(self.make, checked, where=name)


def _real(v) -> bool:
    return (isinstance(v, float) and math.isfinite(v)
            or isinstance(v, int) and not isinstance(v, bool) and abs(v) < 1e308)


def _count(low: int, high: float = math.inf) -> _Scalar:
    desc = f"an integer >= {low}" if high == math.inf else f"an integer in [{low}, {high}]"
    return _Scalar(desc, lambda v: isinstance(v, int) and not isinstance(v, bool)
                   and low <= v <= high)


_number = _Scalar("a finite number", _real, float)
_positive = _Scalar("a positive number", lambda v: _real(v) and v > 0, float)
_level = _Scalar("a level in (0, 1)", lambda v: _real(v) and 0 < v < 1, float)
_flag = _Scalar("true or false", lambda v: isinstance(v, bool))
_path = _Scalar("a file path string", lambda v: isinstance(v, str))
_method = _Scalar("'nr' or 'sa'", lambda v: v in ("nr", "sa"))
_seed = partial(_build, check_seed)

_PARAMS = _Table(
    {"eta": (True, _positive), "beta": (True, _List(_number)), "sigma2": (True, _positive)},
    make=lambda c: ModelParams(c["eta"], PolyCoeffs(tuple(c["beta"])), c["sigma2"]),
)
_INIT = _Table(
    {"x0": (False, _positive), "mu1": (False, _number), "sigma1sq": (False, _number)},
    one_of=(("x0",), ("mu1", "sigma1sq")),
    make=lambda c: Degenerate(c["x0"]) if "x0" in c else LognormalStart(c["mu1"], c["sigma1sq"]),
)
_GRID = _Table(
    {"times": (False, _List(_number, 2)), "start": (False, _number),
     "stop": (False, _number), "num": (False, _count(2, MAX_FLOATS))},
    one_of=(("times",), ("start", "stop", "num")),
    make=lambda c: (np.array(c["times"]) if "times" in c
                    else np.linspace(c["start"], c["stop"], c["num"])),
)
_NR = _Table({"tol": (False, _positive), "max_iter": (False, _count(1))})
_SA = _Table({"replications": (False, _count(1)), "chain_length": (False, _count(1)),
              "max_iter": (False, _count(1)), "gamma": (False, _number),
              "p0": (False, _number), "t_final": (False, _number)})
_DEGREES = _List(_count(1), distinct=True)
_DATA = {"data": (True, _path), "scale_max": (False, _flag), "seed": (False, _seed)}

SCHEMAS: dict[str, _Table] = {
    "simulate": _Table({"params": (True, _PARAMS), "init": (True, _INIT), "grid": (True, _GRID),
                        "paths": (True, _count(1)), "seed": (False, _seed)}),
    "fit": _Table({**_DATA, "degree": (True, _count(1)), "method": (False, _method),
                   "nr": (False, _NR), "sa": (False, _SA),
                   "confidence_levels": (False, _List(_level))}),
    "select": _Table({**_DATA, "degrees": (True, _DEGREES)}),
    "fpt": _Table({**_DATA, "data": (False, _path), "degree": (False, _count(1)),
                   "params": (False, _PARAMS), "x0": (False, _positive), "t0": (False, _number),
                   "boundary": (True, _positive), "t_max": (True, _number)},
                  one_of=(("params", "x0", "t0"), ("data", "degree"))),
    "forecast": _Table({**_DATA, "fit_until": (True, _number), "degree": (False, _count(1)),
                        "degrees": (False, _DEGREES),
                        "percentiles": (False, _List(_level))},
                       one_of=(("degree",), ("degrees",))),
}


# ---------------------------------------------------------------------------
# data ingestion / emission

def _read_text(path: Path) -> str:
    """A UTF-8 input file's text, newlines untranslated; unreadable input is a ConfigError."""
    try:
        return path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {getattr(exc, 'strerror', None) or 'not UTF-8 text'}") from None


def ingest_csv(path, scale_max: bool = False) -> PathPanel:
    """Read a wide panel CSV: column ``t`` first, one column per path after."""
    path = Path(path)
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
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
    try:
        return PathPanel.from_matrix(times, values.T)
    except ValueError as exc:  # what the panel refuses past the checks above: a value's range
        raise ConfigError(f"{path}: {exc}") from None


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _write_csv(path: Path, header: list[str], columns) -> str:
    """Stream ``columns`` (columns or ``(k, N)`` blocks of k) as CSV rows; return the SHA-256."""
    columns = [np.atleast_2d(np.asarray(c, dtype=float)) for c in columns]
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        rows = max(1, CSV_BLOCK // sum(c.shape[0] for c in columns))
        for j in range(0, columns[0].shape[1], rows):
            block = np.vstack([c[:, j : j + rows] for c in columns]).T.tolist()
            # a float's repr needs no quoting, so this is what csv.writer writes
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _params_dict(xi: ModelParams) -> dict:
    return {"eta": xi.eta, "beta": list(xi.poly.beta), "sigma2": xi.sigma2}


@dataclass
class _Bundle:
    """Accumulates results and CSV series, then writes them with report.json."""

    command: str
    config: dict
    seed: int | None
    results: dict = field(default_factory=dict)
    csvs: dict = field(default_factory=dict)

    def add_csv(self, name: str, filename: str, header: list[str], columns) -> None:
        self.csvs[name] = (filename, header, columns)

    def write(self, out_dir: Path) -> Path:
        """Write the bundle; a non-finite result raises FloatingPointError and writes nothing."""
        try:
            json.dumps(self.results, allow_nan=False)
        except ValueError:
            raise FloatingPointError(f"{self.command}: non-finite value in the results") from None
        out_dir.mkdir(parents=True, exist_ok=True)
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
            "files": {name: {"path": str(out_dir / filename),
                             "sha256": _write_csv(out_dir / filename, header, columns)}
                      for name, (filename, header, columns) in self.csvs.items()},
        }
        path = out_dir / "report.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# commands; each takes the checked config and fills the bundle

def _nr_fit(panel: PathPanel, degree: int, **opts):
    res = fit(panel, degree, **opts)
    if not res.converged:
        raise FitError(f"Newton iteration did not converge: {res.message} (scaled residual "
                       f"{res.residual_norm:.3e} after {res.iterations} iterations)")
    return res


def _cmd_simulate(cfg: dict, bundle: _Bundle) -> None:
    bundle.seed = cfg.get("seed", 0)
    spec = _build(SimSpec, params=cfg["params"], init=cfg["init"], grid=cfg["grid"],
                  d=cfg["paths"], seed=bundle.seed, where="simulate")
    panel = simulate_panel(spec)
    grid, d = spec.grid, spec.d
    bundle.add_csv("panel", "panel.csv", ["t"] + [f"path{i + 1}" for i in range(d)],
                   [grid, panel.values_matrix()])
    bundle.results = {
        "paths": d,
        "points_per_path": int(grid.size),
        "t_range": [float(grid[0]), float(grid[-1])],
    }


def _cmd_fit(cfg: dict, bundle: _Bundle) -> None:
    method = cfg.get("method", "nr")
    unread = "sa" if method == "nr" else "nr"
    if unread in cfg:
        raise ConfigError(f"{unread}: method {method!r} does not read the {unread!r} table")
    levels = cfg.get("confidence_levels", (0.95, 0.90, 0.75))
    panel = ingest_csv(cfg["data"], cfg.get("scale_max", False))
    degree = cfg["degree"]
    if method == "sa":
        bundle.seed = cfg.get("seed", SaSchedule.seed)
        sched = _build(SaSchedule, **cfg.get("sa", {}), seed=bundle.seed, where="sa")
        res = anneal(panel, degree, build_box(panel, degree), sched)
        details = {
            "replications": [
                {"params": _params_dict(prm), "objective": obj}
                for prm, obj in res.per_replication
            ],
            "stop_reasons": list(res.stop_reasons),
            "initial_temperature": res.t0_temperature,
        }
    else:
        res = _nr_fit(panel, degree, **cfg.get("nr", {}))
        details = {"iterations": res.iterations, "residual_norm": res.residual_norm,
                   "converged": res.converged}
    xi_hat = res.xi_hat

    vdata = transform(panel)
    alpha = fit_initial(vdata)
    bundle.results = {
        "method": method,
        "degree": degree,
        "estimates": _params_dict(xi_hat),
        "initial_law": {"mu1": alpha.mu1, "sigma1sq": alpha.sigma1sq},
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


def _cmd_select(cfg: dict, bundle: _Bundle) -> None:
    panel = ingest_csv(cfg["data"], cfg.get("scale_max", False))
    report = select_degree(panel, cfg["degrees"])

    header = ["t"] + [f"p{e.p}" for e in report.per_degree]
    bundle.add_csv("dra_curves", "dra_curves.csv", header,
                   [report.per_degree[0].dra_times] + [e.dra_values for e in report.per_degree])
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


def _cmd_fpt(cfg: dict, bundle: _Bundle) -> None:
    if "params" in cfg:
        params, x0, t0, fitted_from = cfg["params"], cfg["x0"], cfg["t0"], None
    else:
        panel = ingest_csv(cfg["data"], cfg.get("scale_max", False))
        params = _nr_fit(panel, cfg["degree"]).xi_hat
        x0 = float(panel.first_values().mean())
        t0 = 0.0  # fitted parameters live on the shifted clock
        fitted_from = {"data": cfg["data"], "degree": cfg["degree"],
                       "estimates": _params_dict(params), "panel_t0": panel.t0}

    problem = _build(FptProblem, params=params, x0=x0, t0=t0, boundary=cfg["boundary"],
                     t_max=cfg["t_max"], where="fpt")
    dens = solve_density(problem)

    bundle.add_csv("density", "fpt_density.csv", ["t", "density", "cumulative"],
                   [dens.times, dens.density, dens.cumulative])
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


def _cmd_forecast(cfg: dict, bundle: _Bundle) -> None:
    levels = cfg.get("percentiles", (0.95, 0.90, 0.75))
    panel = ingest_csv(cfg["data"], cfg.get("scale_max", False))
    fit_until = cfg["fit_until"]
    grid = panel.common_grid()
    keep = grid <= fit_until
    if keep.sum() < 5:
        raise ConfigError(f"fit_until={fit_until} leaves too few observations")
    if keep.all():
        raise ConfigError(f"fit_until={fit_until} holds out no observations")
    restricted = PathPanel.from_matrix(grid[keep], panel.values_matrix()[:, keep])

    if "degrees" in cfg:
        report = select_degree(restricted, cfg["degrees"])
        degree = report.chosen_p
        xi = report[degree].xi_hat
    else:
        degree = cfg["degree"]
        xi = _nr_fit(restricted, degree).xi_hat

    vdata = transform(restricted)
    init = fit_initial(vdata)
    shifted = grid - vdata.t0
    mean_curve = np.asarray(process_mean(xi, init, 0.0, shifted))

    bands = {}
    for lv_f in levels:
        lo = np.asarray(percentile(xi, init, 0.0, shifted[1:], (1 - lv_f) / 2))
        hi = np.asarray(percentile(xi, init, 0.0, shifted[1:], (1 + lv_f) / 2))
        bands[lv_f] = (np.concatenate(([np.nan], lo)), np.concatenate(([np.nan], hi)))

    m = panel.pointwise_mean
    held = ~keep
    rel_err = np.abs(m[held] - mean_curve[held]) / m[held]

    header = ["t", "sample_mean", "forecast_mean"]
    cols = [grid, m, mean_curve]
    for lv_f, (lo, hi) in bands.items():
        header += [f"p{lv_f}_lo", f"p{lv_f}_hi"]
        cols += [lo, hi]
    bundle.add_csv("forecast", "forecast.csv", header, cols)
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


_COMMANDS = {"simulate": _cmd_simulate, "fit": _cmd_fit, "select": _cmd_select,
             "fpt": _cmd_fpt, "forecast": _cmd_forecast}


# ---------------------------------------------------------------------------
# entry point

def run(command: str, config: dict, out_dir="msl-out") -> Path:
    """Check ``config`` against ``SCHEMAS[command]``, run it and return the report's path."""
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = SCHEMAS[command](config)
    bundle = _Bundle(command, config, cfg.get("seed"))
    _COMMANDS[command](cfg, bundle)
    return bundle.write(Path(out_dir))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msl",
        description="Lognormal diffusion with a multisigmoidal logistic mean: "
                    "simulation, inference, model selection and first-passage times.",
    )
    parser.add_argument("command", choices=list(SCHEMAS))
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None, help="set the config key seed")
    parser.add_argument("--out", default="msl-out", help="output directory")
    parser.add_argument("--scale-max", action="store_true", default=None,
                        help="set the config key scale_max to true")
    parser.add_argument("--method", choices=["nr", "sa"], default=None,
                        help="set the config key method")
    args = parser.parse_args(argv)

    # warnings are held back so that a failing run prints its one line only
    with warnings.catch_warnings(record=True) as caught:
        try:
            cfg_path = Path(args.config)
            try:
                config = json.loads(_read_text(cfg_path))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{cfg_path}: invalid JSON ({exc})") from None
            flags = {"seed": args.seed, "method": args.method, "scale_max": args.scale_max}
            if isinstance(config, dict):
                config.update((k, v) for k, v in flags.items() if v is not None)
            report = run(args.command, config, out_dir=args.out)
        except (ConfigError, DegreeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (FitError, VolterraError, SingularInformationError, np.linalg.LinAlgError,
                FloatingPointError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        except MemoryError as exc:
            print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
            return 3
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
