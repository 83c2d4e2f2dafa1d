"""Acceptance suite: every criterion at its stated tolerance.

Each test records one pass/fail line (printed in the terminal summary) and
asserts the criterion.  Statistical criteria use fixed seeds, so the suite is
deterministic.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from mslogistic import (
    Degenerate,
    ModelParams,
    PathPanel,
    PolyCoeffs,
    SimSpec,
    curve,
    drift_rate,
    fit_initial,
    grad_loglik,
    integrated_drift,
    simulate_panel,
    transform,
)
from mslogistic.asymptotics import confidence_intervals, fisher_info
from mslogistic.cli import run as cli_run
from mslogistic.fit_nr import fit, sigma2_root
from mslogistic.fit_sa import SaSchedule, anneal, build_box
from mslogistic.fpt import FptProblem, solve_density
from mslogistic.selection import select_degree

from conftest import fd_hessian_neg_loglik, make_case1_panel, record_acceptance, simulate_crossings

pytestmark = pytest.mark.acceptance

CASE1 = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=1e-4)
TABLE4 = {
    "mean": 40.18765,
    "std": 1.568392,
    "mode": 39.92321,
    "decile_1": 39.02346,
    "decile_5": 40.11264,
    "decile_9": 41.58065,
}


def ex41_problem(t_max=210.0):
    return FptProblem(params=CASE1, x0=5.0, t0=0.0, boundary=15.0, t_max=t_max)


def test_criterion_1_fpt_table_reproduction():
    start = time.time()
    dens = solve_density(ex41_problem())
    elapsed = time.time() - start
    got = {
        "mean": dens.mean,
        "std": dens.std,
        "mode": dens.mode,
        "decile_1": dens.deciles[0],
        "decile_5": dens.deciles[1],
        "decile_9": dens.deciles[2],
    }
    rel = {k: abs(got[k] - TABLE4[k]) / TABLE4[k] for k in TABLE4}
    ok = max(rel.values()) < 0.005 and elapsed < 30.0
    record_acceptance(
        "1 FPT summary-table reproduction",
        ok,
        f"max rel err {max(rel.values()):.2e}, {elapsed:.2f}s",
    )
    assert max(rel.values()) < 0.005
    assert elapsed < 30.0


def test_criterion_2_fpt_monte_carlo_oracle():
    dens = solve_density(ex41_problem(t_max=60.0))
    crossings, n_total = simulate_crossings(
        CASE1, 5.0, 15.0, 60.0, step=0.01, n_paths=10_000, seed=424242
    )
    emp = np.searchsorted(np.sort(crossings), dens.times, side="right") / n_total
    k_dist = float(np.max(np.abs(dens.cumulative - emp)))
    ok = k_dist < 0.02
    record_acceptance("2 FPT Monte-Carlo CDF agreement", ok, f"K distance {k_dist:.4f}")
    assert k_dist < 0.02


def test_criterion_3_simulation_study_recovery():
    truth = CASE1.as_vector()
    good = 0
    worst_time = 0.0
    for seed in range(20):
        start = time.time()
        panel = make_case1_panel(CASE1, seed=seed)
        res = fit(panel, 3)
        x = res.xi_hat.as_vector()
        rel = np.abs(x - truth) / np.abs(truth)
        sigma_rel = abs(math.sqrt(x[-1]) - 0.01) / 0.01
        grid = panel.common_grid()
        fitted = curve(res.xi_hat, float(panel.first_values().mean()), 0.0, grid)
        m = panel.pointwise_mean
        rae = float(np.mean(np.abs(m - fitted) / m))
        worst_time = max(worst_time, time.time() - start)
        if res.converged and np.all(rel[:4] < 0.10) and sigma_rel < 0.20 and rae < 0.015:
            good += 1
    ok = good >= 18 and worst_time < 60.0
    record_acceptance(
        "3 Newton-Raphson case-1 recovery",
        ok,
        f"{good}/20 replications good, worst {worst_time:.1f}s",
    )
    assert good >= 18
    assert worst_time < 60.0


def test_criterion_4_degree_selection():
    hits = 0
    for seed in range(10):
        panel = make_case1_panel(CASE1, seed=100 + seed)
        report = select_degree(panel, range(2, 7))
        if report.chosen_p == 3:
            hits += 1
        if seed == 0:
            assert report[2].bic - report[3].bic > 50.0
    ok = hits >= 9
    record_acceptance("4 degree selection picks p=3", ok, f"{hits}/10 replications")
    assert hits >= 9


def test_criterion_5_simulated_annealing_consistency():
    panel = make_case1_panel(CASE1, seed=51)
    box = build_box(panel, 3)
    result = anneal(panel, 3, box, SaSchedule(seed=2024, replications=10))
    truth = CASE1.as_vector()
    got = result.xi_hat.as_vector()
    rel = np.abs(got - truth) / np.abs(truth)
    inside = all(box.contains(prm.as_vector()) for prm, _ in result.per_replication)
    ok = bool(np.all(rel[:4] < 0.15) and inside)
    record_acceptance(
        "5 simulated-annealing case-1 consistency",
        ok,
        f"max rel err {np.max(rel[:4]):.3f}, all replications in box: {inside}",
    )
    assert np.all(rel[:4] < 0.15)
    assert inside


def _core_loglik_longdouble(panel_data, vec):
    """Independent extended-precision likelihood for the gradient oracle.

    Direct per-transition formula (no shared code with the grouped
    implementation), evaluated in long double so central differences resolve
    the gradient to well below the acceptance tolerance.
    """
    eta = np.longdouble(vec[0])
    beta = [np.longdouble(b) for b in vec[1:-1]]
    s2 = np.longdouble(vec[-1])
    total_quad = np.longdouble(0.0)
    n = 0
    for t, x in panel_data:
        t = t.astype(np.longdouble)
        x = x.astype(np.longdouble)
        q = np.zeros_like(t)
        for b in reversed(beta):
            q = (q + b) * t
        log_u = np.log(eta + np.exp(-q))
        lam = log_u[:-1] - log_u[1:]
        dt = np.diff(t)
        v = np.diff(np.log(x)) / np.sqrt(dt)
        r = v - (lam - s2 / 2 * dt) / np.sqrt(dt)
        total_quad += np.sum(r * r)
        n += dt.size
    return -n / np.longdouble(2.0) * np.log(s2) - total_quad / (2 * s2)


def test_criterion_6_gradient_correctness():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        paths = []
        for _ in range(d):
            n = int(rng.integers(3, 11))
            t = np.concatenate(([0.0], np.sort(rng.uniform(0.2, 8.0, size=n - 1))))
            while np.any(np.diff(t) < 1e-3):
                t = np.concatenate(([0.0], np.sort(rng.uniform(0.2, 8.0, size=n - 1))))
            x = np.exp(rng.normal(0.0, 0.3, size=n).cumsum() * 0.3 + 0.5)
            paths.append((t, x))
        from mslogistic import SamplePath

        panel = PathPanel(tuple(SamplePath(t, x) for t, x in paths))
        p = int(rng.integers(1, 5))
        beta = rng.normal(0.0, 0.2, size=p)
        beta[-1] = abs(beta[-1]) + 0.05
        xi = ModelParams(
            eta=float(rng.uniform(0.1, 2.0)),
            poly=PolyCoeffs(tuple(beta)),
            sigma2=float(rng.uniform(1e-3, 0.3)),
        )
        vdata = transform(panel)
        g = grad_loglik(vdata, xi)

        panel_data = [(path.times, path.values) for path in panel.paths]
        x0 = xi.as_vector()
        fd = np.empty_like(x0)
        for k in range(x0.size):
            h = 1e-5 * max(abs(x0[k]), 1e-3)
            xp, xm = x0.copy(), x0.copy()
            xp[k] += h
            xm[k] -= h
            fd[k] = float(
                (_core_loglik_longdouble(panel_data, xp)
                 - _core_loglik_longdouble(panel_data, xm)) / np.longdouble(2 * h)
            )
        scale = np.maximum(np.abs(g), 1e-6 * np.max(np.abs(g)) + 1e-12)
        worst = max(worst, float(np.max(np.abs(g - fd) / scale)))
    ok = worst < 1e-6
    record_acceptance("6 analytic gradient vs finite differences", ok,
                      f"max scaled rel err {worst:.2e} over 100 instances")
    assert worst < 1e-6


def test_criterion_7_sigma2_root_residual():
    rng = np.random.default_rng(707)
    worst = 0.0

    class Stub:
        pass

    for _ in range(1000):
        s = Stub()
        n = int(rng.integers(2, 100_000))
        s.z3 = float(rng.uniform(1e-2, 1e4))
        # decompose a nonnegative sum-of-squares k into z1 + a - 2b
        k = float(rng.uniform(0.0, 1e4))
        s.a = float(rng.uniform(0.0, 10.0))
        s.b = float(rng.uniform(-10.0, 10.0))
        s.z1 = k - s.a + 2.0 * s.b
        s2 = sigma2_root(s, n)
        resid = s2 * (n + 0.25 * s2 * s.z3) - k
        worst = max(worst, abs(resid) / max(1.0, abs(k)))
    ok = worst < 1e-10
    record_acceptance("7 closed-form sigma2 root residual", ok,
                      f"max relative residual {worst:.2e} over 1000 draws")
    assert worst < 1e-10


def test_criterion_8_integrated_drift_quadrature_identity():
    from scipy.integrate import quad

    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(40):
        p = int(rng.integers(1, 4))
        beta = rng.normal(0.0, 0.1, size=p)
        beta[-1] = abs(beta[-1]) + 0.02
        params = ModelParams(
            eta=float(rng.uniform(0.1, 2.0)),
            poly=PolyCoeffs(tuple(beta)),
            sigma2=float(rng.uniform(0.0, 0.05)),
        )
        t0 = float(rng.uniform(0.0, 2.0))
        t1 = t0 + float(rng.uniform(0.5, 15.0))
        integral, _ = quad(lambda s: drift_rate(params, s), t0, t1,
                           limit=400, epsabs=1e-13, epsrel=1e-13)
        expected = integral - 0.5 * params.sigma2 * (t1 - t0)
        got = float(integrated_drift(params, t0, t1))
        worst = max(worst, abs(got - expected))
    ok = worst < 1e-10
    record_acceptance("8 drift-integral closed form vs quadrature", ok,
                      f"max abs deviation {worst:.2e}")
    assert worst < 1e-10


def test_criterion_9_fisher_information():
    # (a) expected-Hessian agreement on a design the Monte-Carlo oracle can
    # resolve entrywise (see decisions ledger)
    params = ModelParams(eta=0.8, poly=PolyCoeffs((0.3,)), sigma2=0.1)
    grid = np.linspace(0.0, 10.0, 21)
    acc = None
    for seed in range(200):
        panel = simulate_panel(
            SimSpec(params=params, init=Degenerate(2.0), grid=grid, d=60, seed=seed)
        )
        vdata = transform(panel)
        h = fd_hessian_neg_loglik(vdata, params)
        acc = h if acc is None else acc + h
    mc = acc / 200
    fi = fisher_info(vdata, params).matrix
    hessian_rel = float(np.max(np.abs(mc - fi) / np.abs(fi)))

    # (b) Wald coverage for eta on case 1
    cover = 0
    for seed in range(100):
        panel = make_case1_panel(CASE1, seed=900 + seed)
        res = fit(panel, 3)
        rep = confidence_intervals(fisher_info(transform(panel), res.xi_hat), res.xi_hat)
        lo, hi = rep["eta"].intervals[0.95]
        cover += lo < math.exp(-1) < hi
    ok = hessian_rel < 0.05 and cover >= 93
    record_acceptance(
        "9 Fisher info vs MC Hessian + Wald coverage",
        ok,
        f"max entry rel err {hessian_rel:.3f}, eta coverage {cover}/100",
    )
    assert hessian_rel < 0.05
    assert cover >= 93


def test_criterion_10_real_data_workflow(tmp_path):
    fixture = Path(__file__).parent / "data" / "epidemic_shaped.csv"

    # full pipeline on the bundled fixture
    sel_out = tmp_path / "select"
    cli_run("select", {"data": str(fixture), "degrees": [2, 3, 4, 5, 6]}, out_dir=sel_out)
    sel = json.loads((sel_out / "report.json").read_text())
    chosen = sel["results"]["chosen_p"]

    fit_out = tmp_path / "fit"
    cli_run("fit", {"data": str(fixture), "degree": chosen}, out_dir=fit_out)

    fc_out = tmp_path / "forecast"
    cli_run("forecast", {"data": str(fixture), "degree": chosen, "fit_until": 246.0},
            out_dir=fc_out)
    fc = json.loads((fc_out / "report.json").read_text())
    max_rel = fc["results"]["held_out"]["max_relative_error"]

    # restricted-range vs full-range passage-time mode through S = 0.7
    panel_full = __import__("mslogistic.cli", fromlist=["ingest_csv"]).ingest_csv(fixture)
    grid = panel_full.common_grid()
    vals = panel_full.values_matrix()
    restricted = PathPanel.from_matrix(grid[grid <= 219.0], vals[:, grid <= 219.0])
    x0 = float(panel_full.first_values().mean())
    fit_r = fit(restricted, 3)
    fit_f = fit(panel_full, 3)
    dens_r = solve_density(FptProblem(params=fit_r.xi_hat, x0=x0, t0=0.0,
                                      boundary=0.7, t_max=350.0))
    dens_f = solve_density(FptProblem(params=fit_f.xi_hat, x0=x0, t0=0.0,
                                      boundary=0.7, t_max=350.0))
    mode_rel = abs(dens_r.mode - dens_f.mode) / dens_f.mode

    artifacts = [
        sel_out / "report.json", sel_out / "dra_curves.csv",
        fit_out / "report.json",
        fc_out / "report.json", fc_out / "forecast.csv",
    ]
    artifacts_ok = all(p.exists() for p in artifacts)

    # property half: an independently shaped 4-path panel runs end to end
    other = ModelParams(eta=0.05, poly=PolyCoeffs((0.06, -0.00065, 2.3e-06)), sigma2=2e-4)
    raw = simulate_panel(SimSpec(params=other, init=Degenerate(0.05),
                                 grid=np.linspace(0.0, 250.0, 251), d=4, seed=77))
    v = raw.values_matrix()
    alt_panel = PathPanel.from_matrix(raw.common_grid(), v / v.max(axis=1, keepdims=True))
    alt_csv = tmp_path / "alt.csv"
    with alt_csv.open("w") as fh:
        fh.write("t," + ",".join(f"c{i}" for i in range(1, 5)) + "\n")
        for k, t in enumerate(alt_panel.common_grid()):
            fh.write(",".join([repr(float(t))] + [repr(float(p.values[k]))
                                                  for p in alt_panel.paths]) + "\n")
    alt_out = tmp_path / "alt_out"
    cli_run("select", {"data": str(alt_csv), "degrees": [2, 3, 4]}, out_dir=alt_out)
    cli_run("forecast", {"data": str(alt_csv), "degree": 3, "fit_until": 246.0},
            out_dir=tmp_path / "alt_fc")
    cli_run("fpt", {"data": str(alt_csv), "degree": 3, "boundary": 0.7, "t_max": 350.0},
            out_dir=tmp_path / "alt_fpt")

    ok = artifacts_ok and chosen == 3 and max_rel < 0.05 and mode_rel < 0.02
    record_acceptance(
        "10 epidemic-shaped workflow",
        ok,
        f"chosen p={chosen}, forecast max rel {max_rel:.4f}, "
        f"mode shift {mode_rel:.4f} ({dens_r.mode:.1f} vs {dens_f.mode:.1f})",
    )
    assert artifacts_ok
    assert max_rel < 0.05
    assert mode_rel < 0.02


def test_criterion_11_exact_initial_laws():
    d, mu1, sigma1sq = 10, 0.8, 0.25
    rng = np.random.default_rng(1111)
    n_rep = 10_000
    logs = mu1 + math.sqrt(sigma1sq) * rng.standard_normal((n_rep, d))
    first_values = np.exp(logs)
    mu_hats = np.empty(n_rep)
    s1_hats = np.empty(n_rep)
    for k in range(n_rep):
        panel = PathPanel.from_matrix(
            [0.0, 1.0], np.column_stack([first_values[k], first_values[k] * 1.1])
        )
        fit_k = fit_initial(transform(panel))
        mu_hats[k] = fit_k.mu1
        s1_hats[k] = fit_k.sigma1sq

    ks = sps.kstest(mu_hats, "norm", args=(mu1, math.sqrt(sigma1sq / d)))
    stat = d * s1_hats / sigma1sq
    mean_ok = abs(stat.mean() - (d - 1)) / (d - 1)
    var_ok = abs(stat.var(ddof=1) - 2 * (d - 1)) / (2 * (d - 1))
    ok = ks.pvalue > 1e-3 and mean_ok < 0.05 and var_ok < 0.05
    record_acceptance(
        "11 exact initial-parameter laws",
        ok,
        f"KS p {ks.pvalue:.3f}, chi2 moment errors {mean_ok:.3f}/{var_ok:.3f}",
    )
    assert ks.pvalue > 1e-3
    assert mean_ok < 0.05
    assert var_ok < 0.05
