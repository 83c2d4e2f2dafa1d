"""Records the passage-density golden file: the outcome of named ``solve_density`` calls.

Each record names one first-passage problem and integration grid and keeps
the SHA-256 of ``density.tobytes()`` and ``cumulative.tobytes()``, the node
count, the captured mass, mean, standard deviation, mode and deciles, and the
two warning flags; a grid on which the solver raises ``VolterraError`` keeps
that error's message instead:

* ``table4``: the Table-4 problem (case 1, ``x0 = 5``, boundary 15,
  ``t_max = 210``) on its adaptive grid;
* ``fixture``: the problem ``msl fpt`` builds from the bundled epidemic
  fixture: the NR fit at degree 3, ``x0`` the mean first value, ``t0 = 0``,
  boundary 0.7 and ``t_max = 350``;
* ``table4_random_steps``: Table 4 on a seeded non-uniform grid of 300 nodes;
* ``table4_uniform_<n>``: Table 4 on uniform grids of 2, 3 and 4 nodes.

Floats are written by ``repr``, so a change in any bit shows.  The script
uses only the public package API; put a checkout's ``src`` first on the path
to pin or audit its ``solve_density``:

    PYTHONPATH=src python tests/data/make_fpt_golden.py > tests/data/fpt_golden.json
    PYTHONPATH=src python tests/data/make_fpt_golden.py --check

``--check`` writes nothing: it prints a diff against the recorded file and
exits 1 if they differ.
"""

import difflib
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from mslogistic import ModelParams, PolyCoeffs
from mslogistic.cli import ingest_csv
from mslogistic.fit_nr import fit
from mslogistic.fpt import FptProblem, VolterraError, solve_density

HERE = Path(__file__).parent
GOLDEN = HERE / "fpt_golden.json"
FIXTURE = HERE / "epidemic_shaped.csv"
CASE1 = ModelParams(eta=math.exp(-1.0), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=1e-4)
TABLE4 = FptProblem(params=CASE1, x0=5.0, t0=0.0, boundary=15.0, t_max=210.0)
RANDOM_NODES, RANDOM_SEED = 300, 0
UNIFORM_NODES = (2, 3, 4)
NAMES = ("table4", "fixture", "table4_random_steps",
         *(f"table4_uniform_{n}" for n in UNIFORM_NODES))


def fixture_problem() -> FptProblem:
    """The problem of ``msl fpt`` on the fixture at degree 3, boundary 0.7, t_max 350."""
    panel = ingest_csv(FIXTURE)
    res = fit(panel, 3)
    assert res.converged
    return FptProblem(params=res.xi_hat, x0=float(panel.first_values().mean()), t0=0.0,
                      boundary=0.7, t_max=350.0)


def random_steps() -> np.ndarray:
    """Seeded non-uniform nodes from 0 to about ``TABLE4.t_max``."""
    gaps = np.random.default_rng(RANDOM_SEED).random(RANDOM_NODES - 1) + 0.05
    return np.concatenate(([0.0], np.cumsum(gaps) * (TABLE4.t_max / gaps.sum())))


def case(name: str):
    """The problem and grid (None for the adaptive one) that the record ``name`` solves."""
    if name == "table4":
        return TABLE4, None
    if name == "fixture":
        return fixture_problem(), None
    if name == "table4_random_steps":
        return TABLE4, random_steps()
    n = int(name.rsplit("_", 1)[1])
    return TABLE4, np.linspace(TABLE4.t0, TABLE4.t_max, n)


def record(name: str) -> dict:
    """Solve the record ``name`` and collect what the file keeps."""
    problem, steps = case(name)
    try:
        dens = solve_density(problem, steps)
    except VolterraError as exc:
        return {"error": f"VolterraError: {exc}"}
    return {
        "nodes": int(dens.times.size),
        "density_sha256": hashlib.sha256(dens.density.tobytes()).hexdigest(),
        "cumulative_sha256": hashlib.sha256(dens.cumulative.tobytes()).hexdigest(),
        "captured_mass": dens.captured_mass,
        "mean": dens.mean,
        "std": dens.std,
        "mode": dens.mode,
        "deciles": list(dens.deciles),
        "mass_warning": dens.mass_warning,
        "negative_warning": dens.negative_warning,
    }


def dumps(obj, level: int = 0) -> str:
    """JSON with one-space indents and every list of scalars on one line."""
    pad, inner = " " * level, " " * (level + 1)
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(k)}: {dumps(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    return json.dumps(obj)


def main() -> int:
    text = dumps({name: record(name) for name in NAMES}) + "\n"
    if "--check" not in sys.argv[1:]:
        sys.stdout.write(text)
        return 0
    diff = list(difflib.unified_diff(GOLDEN.read_text().splitlines(keepends=True),
                                     text.splitlines(keepends=True),
                                     str(GOLDEN), "generated"))
    sys.stdout.writelines(diff)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
