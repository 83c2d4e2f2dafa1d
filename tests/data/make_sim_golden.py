"""Records the simulation golden file: shape and SHA-256 of each panel.

Each record names one simulation of case 1 (a degenerate or lognormal start,
d paths on N points of [0, 50], a seed) with the shape and the SHA-256 of
``simulate_panel(spec).values_matrix().tobytes()``.  The script uses only the
public package API, so it runs against any checkout; put that checkout's
``src`` first on the path to pin or audit its ``simulate_panel``:

    PYTHONPATH=src python tests/data/make_sim_golden.py > tests/data/sim_golden.json
    PYTHONPATH=src python tests/data/make_sim_golden.py --check

``--check`` writes nothing: it prints a diff against the recorded file and
exits 1 if they differ.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from mslogistic import Degenerate, LognormalStart, ModelParams, PolyCoeffs, SimSpec, simulate_panel

sys.path.insert(0, str(Path(__file__).parent))  # finds golden_io when loaded by path too
from golden_io import emit  # noqa: E402

GOLDEN = Path(__file__).parent / "sim_golden.json"
PARAMS = {"eta": math.exp(-1.0), "beta": [0.1, -0.009, 0.0002], "sigma2": 1e-4}
INITS = {"degenerate": {"x0": 5.0}, "lognormal": {"mu1": math.log(5.0), "sigma1sq": 0.04}}
T_MAX = 50.0
# (d, N, seed); the last seed does not fit in 32 bits
SIZES = [(1, 2, 0), (7, 51, 0), (200, 501, 0), (7, 51, 2**40 + 3)]


def build_spec(record: dict) -> SimSpec:
    """The SimSpec that a golden record names."""
    params = ModelParams(eta=PARAMS["eta"], poly=PolyCoeffs(tuple(PARAMS["beta"])),
                         sigma2=PARAMS["sigma2"])
    init = INITS[record["init"]]
    start = Degenerate(**init) if "x0" in init else LognormalStart(**init)
    return SimSpec(params=params, init=start, grid=np.linspace(0.0, T_MAX, record["points"]),
                   d=record["d"], seed=record["seed"])


def digest(record: dict) -> dict:
    """Shape and SHA-256 of the panel that ``record`` names."""
    values = simulate_panel(build_spec(record)).values_matrix()
    return {"shape": list(values.shape), "sha256": hashlib.sha256(values.tobytes()).hexdigest()}


def main() -> int:
    records = []
    for init in INITS:
        for d, points, seed in SIZES:
            record = {"init": init, "d": d, "points": points, "seed": seed}
            records.append({**record, **digest(record)})
    text = json.dumps({"params": PARAMS, "inits": INITS, "t_max": T_MAX, "records": records},
                      indent=1) + "\n"
    return emit(text, GOLDEN)


if __name__ == "__main__":
    sys.exit(main())
