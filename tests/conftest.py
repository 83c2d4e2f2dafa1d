import math

import numpy as np
import pytest

from mslogistic import ModelParams, PolyCoeffs, Degenerate, SimSpec, simulate_panel

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def case1_params() -> ModelParams:
    """Simulation-study case 1: three growth coefficients, eta = e^-1, sigma = 0.01."""
    return ModelParams(
        eta=math.exp(-1.0),
        poly=PolyCoeffs((0.1, -0.009, 0.0002)),
        sigma2=0.01**2,
    )


def make_case1_panel(params: ModelParams, seed: int, d: int = 200, n_points: int = 501,
                     t_max: float = 50.0):
    spec = SimSpec(
        params=params,
        init=Degenerate(5.0),
        grid=np.linspace(0.0, t_max, n_points),
        d=d,
        seed=seed,
    )
    return simulate_panel(spec)


@pytest.fixture(scope="session")
def case1_panel(case1_params):
    """One medium-size case-1 panel shared by read-only tests."""
    return make_case1_panel(case1_params, seed=20240811)


def simulate_crossings(params, x0, boundary, t_max, step, n_paths, seed, bridge=False):
    """Grid-crossing oracle: exact transition simulation, first time above the level.

    With ``bridge=True`` intra-step excursions are accounted for exactly: the
    log-process between grid nodes is a Brownian bridge, whose level-crossing
    probability is ``exp(-2 (c-a)(c-b) / (sigma^2 h))``.
    """
    grid = np.arange(0.0, t_max + step / 2, step)
    log_gap = np.logaddexp(math.log(params.eta), -params.poly.value(grid))
    step_mean = (log_gap[:-1] - log_gap[1:]) - 0.5 * params.sigma2 * np.diff(grid)
    step_sd = math.sqrt(params.sigma2) * np.sqrt(np.diff(grid))
    target = math.log(boundary / x0)
    rng = np.random.default_rng(seed)
    out = []
    remaining = n_paths
    while remaining > 0:
        b = min(2000, remaining)
        z = rng.standard_normal((b, grid.size - 1))
        logx = np.concatenate(
            [np.zeros((b, 1)), np.cumsum(step_mean + step_sd * z, axis=1)], axis=1
        )
        hit = logx >= target
        if bridge:
            gap_a = target - logx[:, :-1]
            gap_b = target - logx[:, 1:]
            both_below = (gap_a > 0) & (gap_b > 0)
            p_cross = np.where(
                both_below,
                np.exp(-2.0 * np.clip(gap_a * gap_b, 0, None)
                       / (params.sigma2 * np.diff(grid))),
                0.0,
            )
            hit[:, 1:] |= rng.random(p_cross.shape) < p_cross
        first = np.argmax(hit, axis=1)
        crossed = hit[np.arange(b), first]
        out.append(grid[first[crossed]])
        remaining -= b
    return np.concatenate(out), n_paths


def path_transitions(panel):
    """Per-transition reference taken straight from the raw panel.

    One ``(v, dt, t_a, t_b)`` tuple per path: the standardized log-increments
    ``v = log(x_{j+1}/x_j) / sqrt(dt)``, the time steps and the step start and
    end times on the panel clock ``t - panel.t0``.
    """
    out = []
    for path in panel.paths:
        dt = np.diff(path.times)
        t = path.times - panel.t0
        out.append((np.diff(np.log(path.values)) / np.sqrt(dt), dt, t[:-1], t[1:]))
    return out


def per_path_transform(panel):
    """Reference ``likelihood.transform``: a per-path loop that groups equal time pairs.

    Each group's sums run over its transitions in path order from 0.0, as
    ``bincount`` adds them.
    """
    from mslogistic.likelihood import _vdata

    t0 = panel.t0
    all_times = np.unique(np.concatenate([p.times for p in panel.paths])) - t0

    v_parts, lo_parts, hi_parts = [], [], []
    for p in panel.paths:
        idx = np.searchsorted(all_times, p.times - t0)
        v_parts.append(np.diff(np.log(p.values)) / np.sqrt(np.diff(p.times)))
        lo_parts.append(idx[:-1])
        hi_parts.append(idx[1:])
    v = np.concatenate(v_parts)

    pair_key = np.concatenate(lo_parts) * all_times.size + np.concatenate(hi_parts)
    uniq, group = np.unique(pair_key, return_inverse=True)
    g_lo, g_hi = np.divmod(uniq, all_times.size)
    g_count = np.bincount(group, minlength=uniq.size).astype(float)
    g_sum_v = np.bincount(group, weights=v, minlength=uniq.size)
    g_sum_v2 = np.bincount(group, weights=v * v, minlength=uniq.size)
    return _vdata(panel, all_times, v.size, g_lo, g_hi, g_count, g_sum_v, g_sum_v2)


def per_time_dra_curve(panel, xi, init):
    """Reference ``selection.dra_curve``: a loop over the times on numpy scalars.

    Each divergence is the scalar formula with ``math.log`` and a scalar ``** 2``
    (both libm), and the resistor average is 0.0 where both divergences vanish.
    """
    from mslogistic.model import integrated_drift
    from mslogistic.selection import VARIANCE_FLOOR

    def kl(mu_c, var_c, mu_s, var_s):
        return 0.5 * (math.log(var_s / var_c) + (var_c + (mu_c - mu_s) ** 2) / var_s - 1.0)

    grid = panel.common_grid()
    m, g = panel.pointwise_mean, panel.pointwise_geometric_mean
    t0, times = grid[0], grid[1:]
    mu_c = np.log(g[1:])
    var_c = np.maximum(2.0 * np.log(m[1:] / g[1:]), VARIANCE_FLOOR)
    mu_s = init.mu1 + np.asarray(integrated_drift(xi, 0.0, times - t0))
    var_s = np.maximum(init.sigma1sq + xi.sigma2 * (times - t0), VARIANCE_FLOOR)
    values = np.empty(times.size)
    for k in range(times.size):
        d1 = kl(mu_c[k], var_c[k], mu_s[k], var_s[k])
        d2 = kl(mu_s[k], var_s[k], mu_c[k], var_c[k])
        values[k] = 0.0 if d1 + d2 == 0.0 else d1 * d2 / (d1 + d2)
    return times, values


def mean_gradient(params: ModelParams, t_a, t_b) -> np.ndarray:
    """``dm/d(eta, beta_1..beta_p)`` of the transition log mean over ``t_a -> t_b``.

    ``m = log(eta + e^{-Q(t_a)}) - log(eta + e^{-Q(t_b)}) - sigma2 (t_b - t_a) / 2``;
    returns shape ``(p + 1,) + shape(t_a)``.
    """
    def inverse_gap_and_weight(t):
        q = params.poly.value(t)
        log_u = np.logaddexp(math.log(params.eta), -q)
        return np.exp(-log_u), np.exp(-q - log_u)

    inv_a, w_a = inverse_gap_and_weight(t_a)
    inv_b, w_b = inverse_gap_and_weight(t_b)
    return np.array([inv_a - inv_b] + [np.power(t_b, l) * w_b - np.power(t_a, l) * w_a
                                       for l in range(1, params.degree + 1)])


def fd_hessian_neg_loglik(vdata, xi: ModelParams, rel_step: float = 1e-4) -> np.ndarray:
    """Finite-difference Hessian of the negative core log-likelihood.

    Central differences of the analytic gradient (itself validated against
    the likelihood by finite differences elsewhere).
    """
    from mslogistic import grad_loglik
    from mslogistic.model import PolyCoeffs

    x0 = xi.as_vector()
    k = x0.size
    hess = np.empty((k, k))
    for j in range(k):
        h = rel_step * max(abs(x0[j]), 1e-8)
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        gp = grad_loglik(vdata, ModelParams.from_vector(xp))
        gm = grad_loglik(vdata, ModelParams.from_vector(xm))
        hess[:, j] = -(gp - gm) / (2 * h)
    return 0.5 * (hess + hess.T)


@pytest.fixture
def transform_calls(monkeypatch):
    """The panels whose prepared data ``likelihood.transform`` computes, once per computation.

    A call that returns the result a panel keeps computes nothing and is not listed.
    """
    from mslogistic import likelihood

    original = likelihood._vdata
    calls = []

    def counting(panel, *args):
        calls.append(panel)
        return original(panel, *args)

    monkeypatch.setattr(likelihood, "_vdata", counting)
    return calls


@pytest.fixture
def moment_calls(monkeypatch):
    """Count computations of each cached ``PathPanel`` moment, by property name."""
    from functools import cached_property

    from mslogistic.simulate import PathPanel

    calls: dict[str, int] = {}
    for name in ("pointwise_mean", "pointwise_geometric_mean", "pointwise_sd"):
        compute = PathPanel.__dict__[name].func
        calls[name] = 0

        def counting(panel, name=name, compute=compute):
            calls[name] += 1
            return compute(panel)

        prop = cached_property(counting)
        prop.__set_name__(PathPanel, name)
        monkeypatch.setattr(PathPanel, name, prop)
    return calls
