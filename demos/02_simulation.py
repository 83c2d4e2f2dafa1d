"""Exact path simulation and the law of the process.

Paths are generated from the exact lognormal transition law (no Euler
discretization), with one counter-based random stream per path: the same seed
always reproduces the same panel, path by path.
"""

import math

import numpy as np

from mslogistic import (
    Degenerate,
    ModelParams,
    PolyCoeffs,
    SimSpec,
    percentile,
    process_mean,
    simulate_panel,
)

params = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=1e-4)
spec = SimSpec(params=params, init=Degenerate(5.0),
               grid=np.linspace(0.0, 50.0, 501), d=200, seed=20240811)
panel = simulate_panel(spec)
grid = panel.common_grid()

m_hat = panel.pointwise_mean
m_theory = np.asarray(process_mean(params, spec.init, 0.0, grid))
rae = float(np.mean(np.abs(m_hat - m_theory) / m_theory))
print(f"200 paths on [0, 50]; sample mean tracks the closed-form mean with RAE = {rae:.4f}")

print("\nPercentile band vs simulated spread at selected times:")
print(f"{'t':>5} {'2.5%':>9} {'median':>9} {'97.5%':>9} {'min path':>9} {'max path':>9}")
vals = panel.values_matrix()
for t in (10.0, 25.0, 40.0, 50.0):
    k = int(np.searchsorted(grid, t))
    lo = float(percentile(params, spec.init, 0.0, t, 0.025))
    md = float(percentile(params, spec.init, 0.0, t, 0.5))
    hi = float(percentile(params, spec.init, 0.0, t, 0.975))
    print(f"{t:5.0f} {lo:9.4f} {md:9.4f} {hi:9.4f} {vals[:, k].min():9.4f} {vals[:, k].max():9.4f}")

again = simulate_panel(spec)
bitwise = all(np.array_equal(a.values, b.values) for a, b in zip(panel.paths, again.paths))
print(f"\nRe-simulation with the same seed is bit-identical: {bitwise}")
