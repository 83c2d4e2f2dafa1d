"""Records the annealing golden file: per-replication results of named runs.

Each record names one ``anneal`` run (a panel, degree 3, the ``build_box``
box and a schedule) and keeps its per-replication best vectors and
objectives, stop reasons, pilot temperature, averaged estimate, and the
length and the first and last 50 entries of its ``uphill_log``:

* ``floor`` and ``max_iter``: short schedules on a 20-path case-1 panel that
  stop by the temperature floor and by the stage budget (and both by a flat
  chain);
* ``fixture_default``: the default ``SaSchedule(seed=0)`` on the bundled
  epidemic fixture, the long multi-stage run that ``msl fit --method sa``
  makes.

The script uses only the public package API, so it runs against any
checkout; put that checkout's ``src`` first on the path to pin or audit its
``anneal``:

    PYTHONPATH=src python tests/data/make_sa_golden.py > tests/data/sa_golden.json
    PYTHONPATH=src python tests/data/make_sa_golden.py --check

``--check`` writes nothing: it prints a diff against the recorded file and
exits 1 if they differ.
"""

import math
import sys
from pathlib import Path

import numpy as np

from mslogistic import Degenerate, ModelParams, PolyCoeffs, SimSpec, simulate_panel
from mslogistic.cli import ingest_csv
from mslogistic.fit_sa import SaSchedule, anneal, build_box

sys.path.insert(0, str(Path(__file__).parent))  # finds golden_io when loaded by path too
from golden_io import dumps, emit  # noqa: E402

HERE = Path(__file__).parent
GOLDEN = HERE / "sa_golden.json"
FIXTURE = HERE / "epidemic_shaped.csv"
DEGREE = 3
SHORT = dict(seed=0, replications=5, chain_length=8, pilot_pairs=20)
SCHEDULES = {
    "floor": SaSchedule(**SHORT, gamma=0.7),
    "max_iter": SaSchedule(**SHORT, gamma=0.75, max_iter=50),
    "fixture_default": SaSchedule(seed=0),
}
LOG_ENDS = 50


def case1_panel():
    """The 20-path, 51-point case-1 panel of the short records."""
    params = ModelParams(eta=math.exp(-1.0), poly=PolyCoeffs((0.1, -0.009, 0.0002)),
                         sigma2=0.01**2)
    return simulate_panel(SimSpec(params=params, init=Degenerate(5.0),
                                  grid=np.linspace(0.0, 50.0, 51), d=20, seed=60))


def record(name: str) -> dict:
    """Run the record ``name`` and collect what the file keeps."""
    panel = ingest_csv(FIXTURE) if name == "fixture_default" else case1_panel()
    log: list = []
    res = anneal(panel, DEGREE, build_box(panel, DEGREE), SCHEDULES[name], uphill_log=log)
    return {
        "vectors": [list(prm.as_vector()) for prm, _ in res.per_replication],
        "objectives": [f for _, f in res.per_replication],
        "stop_reasons": list(res.stop_reasons),
        "t0_temperature": res.t0_temperature,
        "xi_hat": list(res.xi_hat.as_vector()),
        "uphill_head": [list(e) for e in log[:LOG_ENDS]],
        "uphill_tail": [list(e) for e in log[-LOG_ENDS:]],
        "uphill_len": len(log),
    }


def main() -> int:
    text = dumps({name: record(name) for name in SCHEDULES}) + "\n"
    return emit(text, GOLDEN)


if __name__ == "__main__":
    sys.exit(main())
