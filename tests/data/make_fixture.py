"""Regenerates the bundled epidemic-shaped panel fixture.

Four paths of the diffusion, 251 daily observations, two growth waves,
each path divided by its own maximum (so values are fractions of the
observed peak).  Parameters are at the scale of a two-wave epidemic fit.

    PYTHONPATH=src python tests/data/make_fixture.py > tests/data/epidemic_shaped.csv
    PYTHONPATH=src python tests/data/make_fixture.py --check

``--check`` writes nothing: it prints a diff against the bundled file and
exits 1 if they differ.
"""

import csv
import io
import sys
from pathlib import Path

import numpy as np

from mslogistic import Degenerate, ModelParams, PathPanel, PolyCoeffs, SimSpec, simulate_panel

sys.path.insert(0, str(Path(__file__).parent))  # finds golden_io when loaded by path too
from golden_io import emit  # noqa: E402

FIXTURE = Path(__file__).parent / "epidemic_shaped.csv"
PARAMS = ModelParams(
    eta=0.03605835,
    poly=PolyCoeffs((0.04774851, -0.0004685118, 1.506227e-06)),
    sigma2=1.024422e-04,
)
SEED = 2


def build_panel() -> PathPanel:
    grid = np.linspace(0.0, 250.0, 251)
    raw = simulate_panel(
        SimSpec(params=PARAMS, init=Degenerate(0.035), grid=grid, d=4, seed=SEED)
    )
    vals = raw.values_matrix()
    return PathPanel.from_matrix(grid, vals / vals.max(axis=1, keepdims=True))


def render() -> str:
    """The fixture as CSV text: a header, then one row per time and one column per path."""
    panel = build_panel()
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["t", "c1", "c2", "c3", "c4"])
    for t, column in zip(panel.common_grid(), panel.values_matrix().T):
        writer.writerow([repr(float(t))] + [repr(float(v)) for v in column])
    return out.getvalue()


def main() -> int:
    text = render()
    return emit(text, FIXTURE)


if __name__ == "__main__":
    sys.exit(main())
