"""Records the Newton-Raphson golden file: the full outcome of named fits.

Each record names one ``fit`` call and keeps its estimate, residual trace,
iteration count, convergence flag, stop message, final residual norm and
regression starting point:

* ``fixture_p1`` .. ``fixture_p6``: the bundled epidemic fixture at degrees
  1-6, which converge;
* ``fixture_t210_p4``: the fixture's times up to 210 (the training window of
  ``msl forecast`` with ``fit_until`` 210) at degree 4, where the line search
  stalls;
* ``case1_s<seed>_p<p>``: case-1 panels (``Degenerate(5)``, 201 points over
  0..50, 40 paths, seeds 0-5) at degrees 2-5, which converge on the reduced
  system;
* ``rank_deficient``: a 3-point, 2-path panel at degree 3 from an explicit
  starting point, a singular system that does not converge.

``select_fixture`` keeps ``select_degree`` on the fixture over degrees 2-6:
each degree's goodness measures, the chosen degree and the failures.

The script uses only the public package API; put a checkout's ``src`` first
on the path to pin or audit its ``fit``:

    PYTHONPATH=src python tests/data/make_nr_golden.py > tests/data/nr_golden.json
    PYTHONPATH=src python tests/data/make_nr_golden.py --check

``--check`` writes nothing: it prints a diff against the recorded file and
exits 1 if they differ.
"""

import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from mslogistic import Degenerate, ModelParams, PathPanel, PolyCoeffs, SimSpec, simulate_panel
from mslogistic.cli import ingest_csv
from mslogistic.fit_nr import fit
from mslogistic.selection import select_degree

sys.path.insert(0, str(Path(__file__).parent))  # finds golden_io when loaded by path too
from golden_io import dumps, emit  # noqa: E402

HERE = Path(__file__).parent
GOLDEN = HERE / "nr_golden.json"
FIXTURE = HERE / "epidemic_shaped.csv"
CASE1 = ModelParams(eta=math.exp(-1.0), poly=PolyCoeffs((0.1, -0.009, 0.0002)),
                    sigma2=0.01**2)
RANK_DEFICIENT_THETA0 = np.array([0.5, 0.3, -0.01, 0.001])
SELECT_DEGREES = [2, 3, 4, 5, 6]

FITS = {f"fixture_p{p}": ("fixture", p) for p in range(1, 7)}
FITS["fixture_t210_p4"] = ("fixture_t210", 4)
FITS.update({f"case1_s{seed}_p{p}": (seed, p) for seed in range(6) for p in range(2, 6)})
FITS["rank_deficient"] = ("rank_deficient", 3)
NAMES = [*FITS, "select_fixture"]


@lru_cache(maxsize=None)
def panel(source) -> PathPanel:
    """The fixture, its times up to 210, the rank-deficient panel, or a case-1 panel.

    An integer ``source`` is the seed of the case-1 panel.
    """
    if source == "fixture":
        return ingest_csv(FIXTURE)
    if source == "fixture_t210":
        fixture = panel("fixture")
        keep = fixture.common_grid() <= 210.0
        return PathPanel.from_matrix(fixture.common_grid()[keep], fixture.values_matrix()[:, keep])
    if source == "rank_deficient":
        return PathPanel.from_matrix([0.0, 1.0, 2.0], [[1.0, 1.5, 2.0], [1.0, 1.4, 2.1]])
    return simulate_panel(SimSpec(params=CASE1, init=Degenerate(5.0),
                                  grid=np.linspace(0.0, 50.0, 201), d=40, seed=source))


def fit_record(name: str) -> dict:
    source, p = FITS[name]
    if source == "rank_deficient":
        res = fit(panel(source), p, max_iter=20, init=RANK_DEFICIENT_THETA0)
    else:
        res = fit(panel(source), p)
    init = res.init and {"eta0": res.init.eta0, "beta0": list(res.init.beta0.beta),
                         "r_squared": res.init.r_squared}
    return {
        "xi_hat": list(res.xi_hat.as_vector()),
        "iterations": res.iterations,
        "converged": res.converged,
        "message": res.message,
        "residual_norm": res.residual_norm,
        "init": init,
        "trace": list(res.trace),
    }


def select_record() -> dict:
    report = select_degree(panel("fixture"), SELECT_DEGREES)
    return {
        "per_degree": {
            str(e.p): {"loglik": e.loglik, "aic": e.aic, "bic": e.bic, "rae": e.rae,
                       "dra_median": e.dra_median, "dra_mean": e.dra_mean,
                       "dra_values": list(e.dra_values), "converged": e.converged}
            for e in report.per_degree
        },
        "chosen_p": report.chosen_p,
        "failures": [[p, msg] for p, msg in report.failures],
    }


def record(name: str) -> dict:
    """Run the record ``name`` and collect what the file keeps."""
    return select_record() if name == "select_fixture" else fit_record(name)


def main() -> int:
    text = dumps({name: record(name) for name in NAMES}) + "\n"
    return emit(text, GOLDEN)


if __name__ == "__main__":
    sys.exit(main())
