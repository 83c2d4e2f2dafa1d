"""Records the CLI golden file: the outcome of named ``msl`` runs.

Each record names one ``msl`` command and config, run in-process through
``mslogistic.cli.main`` in a scratch directory that holds a copy of the
bundled fixture, so configs name the data by a relative path.  A run that
exits 0 keeps the SHA-256 of its canonical ``results`` (``json.dumps`` with
sorted keys), the SHA-256 of each file it wrote and its ``meta`` block without
``created_utc``; a failing run keeps its exit code and its stderr line:

* ``simulate``: the README example config (200 paths, 501 points, seed 1);
* ``select``, ``fit_nr``, ``fit_sa``, ``forecast_degree``,
  ``forecast_degrees`` and ``fpt_data``: the fixture runs of the benchmark's
  commands (``fit_sa`` on a short schedule);
* ``fpt_params``: the Table-4 problem from given parameters;
* ``missing_keys`` and ``degree_beyond_data``: config and data errors (exit 2);
* ``select_unconverged`` and ``fit_unconverged``: numerical failures (exit 3).

The script uses only the package's command line, so it runs against any
checkout; put that checkout's ``src`` first on the path to pin or audit it:

    PYTHONPATH=src python tests/data/make_cli_golden.py > tests/data/cli_golden.json
    PYTHONPATH=src python tests/data/make_cli_golden.py --check

``--check`` writes nothing: it prints a diff against the recorded file and
exits 1 if they differ.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

from mslogistic.cli import main as msl

sys.path.insert(0, str(Path(__file__).parent))  # finds golden_io when loaded by path too
from golden_io import dumps, emit  # noqa: E402

HERE = Path(__file__).parent
GOLDEN = HERE / "cli_golden.json"
FIXTURE = HERE / "epidemic_shaped.csv"
DATA = "epidemic_shaped.csv"   # the fixture's name in the scratch directory
CASE1 = {"eta": math.exp(-1.0), "beta": [0.1, -0.009, 0.0002], "sigma2": 1e-4}
RUNS = {
    "simulate": ("simulate", {"params": {**CASE1, "eta": 0.3679}, "init": {"x0": 5.0},
                              "grid": {"start": 0, "stop": 50, "num": 501},
                              "paths": 200, "seed": 1}),
    "select": ("select", {"data": DATA, "degrees": [2, 3, 4, 5, 6]}),
    "fit_nr": ("fit", {"data": DATA, "degree": 3, "method": "nr"}),
    "fit_sa": ("fit", {"data": DATA, "degree": 3, "method": "sa", "seed": 5,
                       "sa": {"replications": 2, "max_iter": 60}}),
    "forecast_degree": ("forecast", {"data": DATA, "degree": 3, "fit_until": 246.0}),
    "forecast_degrees": ("forecast", {"data": DATA, "degrees": [2, 3, 4], "fit_until": 246.0}),
    "fpt_params": ("fpt", {"params": CASE1, "x0": 5.0, "t0": 0.0, "boundary": 15.0,
                           "t_max": 210.0}),
    "fpt_data": ("fpt", {"data": DATA, "degree": 3, "boundary": 0.7, "t_max": 350.0}),
    "missing_keys": ("simulate", {"nope": 1}),
    "degree_beyond_data": ("fit", {"data": DATA, "degree": 1000}),
    "select_unconverged": ("select", {"data": DATA, "degrees": [30]}),
    "fit_unconverged": ("fit", {"data": DATA, "degree": 11}),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(name: str) -> dict:
    """Run the record ``name`` in a fresh scratch directory and collect what the file keeps."""
    command, config = RUNS[name]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        try:
            os.chdir(work)
            shutil.copyfile(FIXTURE, DATA)
            Path("cfg.json").write_text(json.dumps(config), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = msl([command, "--config", "cfg.json", "--out", "out"])
            if code != 0:
                return {"exit": code, "stderr": err.getvalue()}
            report = json.loads(Path("out/report.json").read_text(encoding="utf-8"))
            return {
                "exit": code,
                "results_sha256": _sha256(json.dumps(report["results"], sort_keys=True).encode()),
                "files_sha256": {key: _sha256(Path(entry["path"]).read_bytes())
                                 for key, entry in sorted(report["files"].items())},
                "meta": {k: v for k, v in report["meta"].items() if k != "created_utc"},
            }
        finally:
            os.chdir(cwd)


def main() -> int:
    text = dumps({name: record(name) for name in RUNS}) + "\n"
    return emit(text, GOLDEN)


if __name__ == "__main__":
    sys.exit(main())
