import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from mslogistic import (
    Degenerate,
    ModelParams,
    PathPanel,
    PolyCoeffs,
    SimSpec,
    simulate_panel,
    transform,
)
from mslogistic.asymptotics import (
    FisherInfo,
    SingularInformationError,
    confidence_intervals,
    fisher_info,
    initial_param_laws,
)
from mslogistic.cli import ingest_csv
from mslogistic.fit_nr import fit

from conftest import fd_hessian_neg_loglik, make_case1_panel, mean_gradient, path_transitions


class TestFisherInfo:
    def test_single_transition_matches_symbolic_expectation(self):
        """Exact symbolic oracle on one transition with p=1.

        Differentiate the Gaussian transition log-density symbolically,
        substitute the moments of v, and compare every entry.
        """
        eta_s, b1_s, s2_s, v_s = sp.symbols("eta b1 s2 v", positive=True)
        ta, tb = sp.Rational(1, 2), sp.Rational(9, 4)
        dt = tb - ta
        q = lambda t: b1_s * t
        lam = sp.log((eta_s + sp.exp(-q(ta))) / (eta_s + sp.exp(-q(tb))))
        m = lam - s2_s / 2 * dt
        ell = -sp.log(s2_s) / 2 - (v_s - m / sp.sqrt(dt)) ** 2 / (2 * s2_s)

        point = {eta_s: 0.7, b1_s: 0.4, s2_s: 0.02}
        mean_v = float((m / sp.sqrt(dt)).evalf(subs=point))
        ev = {0: 1.0, 1: mean_v, 2: 0.02 + mean_v**2}

        params = (eta_s, b1_s, s2_s)
        want = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                entry = sp.expand(-sp.diff(ell, params[i], params[j]))
                total = 0.0
                for deg in (0, 1, 2):
                    coeff = entry.coeff(v_s, deg)
                    if coeff != 0:
                        total += float(coeff.evalf(subs=point)) * ev[deg]
                want[i, j] = total

        xi = ModelParams(eta=0.7, poly=PolyCoeffs((0.4,)), sigma2=0.02)
        panel = PathPanel.from_matrix([0.5, 2.25], [[2.0, 2.3]])
        vdata = transform(panel)
        object.__setattr__(vdata, "times", vdata.times + 0.5)
        got = fisher_info(vdata, xi).matrix
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_symmetric_and_positive_definite_at_case1_fit(self, case1_params):
        panel = make_case1_panel(case1_params, seed=61, d=50, n_points=101)
        res = fit(panel, 3)
        vdata = transform(panel)
        fi = fisher_info(vdata, res.xi_hat)
        np.testing.assert_allclose(fi.matrix, fi.matrix.T, rtol=0, atol=1e-12 * np.abs(fi.matrix).max())
        d = fi.scaling_vector()
        w = np.linalg.eigvalsh(fi.matrix * np.outer(d, d))
        assert np.all(w > 0)

    def test_theta_block_independent_assembly(self, case1_params):
        # entrywise agreement with a per-transition outer-product sum
        panel = make_case1_panel(case1_params, seed=62, d=5, n_points=21)
        want = np.zeros((4, 4))
        for _, dt, t_a, t_b in path_transitions(panel):
            dm = mean_gradient(case1_params, t_a, t_b)
            for k in range(dt.size):
                want += np.outer(dm[:, k], dm[:, k]) / dt[k]
        fi = fisher_info(transform(panel), case1_params)
        np.testing.assert_allclose(fi.matrix[:-1, :-1], want / case1_params.sigma2, rtol=1e-12)

    def test_matches_monte_carlo_hessian(self):
        # design chosen so the Monte-Carlo oracle's own noise resolves every
        # entry (cross-entry noise scales like 1/sigma, so sigma is moderate
        # and the panels wide); 200 panels as the acceptance criterion uses
        params = ModelParams(eta=0.8, poly=PolyCoeffs((0.3,)), sigma2=0.1)
        grid = np.linspace(0.0, 10.0, 21)
        acc = None
        n_panels = 200
        for seed in range(n_panels):
            panel = simulate_panel(SimSpec(params=params, init=Degenerate(2.0),
                                           grid=grid, d=60, seed=seed))
            vdata = transform(panel)
            h = fd_hessian_neg_loglik(vdata, params)
            acc = h if acc is None else acc + h
        mc = acc / n_panels
        fi = fisher_info(vdata, params).matrix
        rel = np.abs(mc - fi) / np.maximum(np.abs(fi), 1e-12)
        assert np.max(rel) < 0.05

    def test_corner_sign_is_decisive_in_large_sigma_regime(self):
        # n/(2 s2) = 13.3, z3/4 = 20: flipping the corner sign would make the
        # information indefinite; the Monte-Carlo Hessian must match +z3/4
        params = ModelParams(eta=0.8, poly=PolyCoeffs((0.3,)), sigma2=0.3)
        grid = np.linspace(0.0, 10.0, 6)
        panel = simulate_panel(SimSpec(params=params, init=Degenerate(2.0), grid=grid, d=8, seed=0))
        vdata = transform(panel)
        stats_n = vdata.n
        z3 = sum(float(np.sum(dt)) for _, dt, _, _ in path_transitions(panel))
        corner_true = 0.5 * stats_n / params.sigma2 + 0.25 * z3
        corner_flipped = 0.5 * stats_n / params.sigma2 - 0.25 * z3
        fi = fisher_info(vdata, params)
        assert fi.matrix[-1, -1] == pytest.approx(corner_true / params.sigma2, rel=1e-12)
        acc = 0.0
        for seed in range(400):
            p = simulate_panel(SimSpec(params=params, init=Degenerate(2.0), grid=grid, d=8, seed=seed))
            acc += fd_hessian_neg_loglik(transform(p), params)[-1, -1]
        mc_corner = acc / 400 * params.sigma2
        assert abs(mc_corner - corner_true) < abs(mc_corner - corner_flipped)

    def test_inverse_consistency(self, case1_params):
        # identity recovery in the equilibrated scale, where parameter-scale
        # disparity (powers of the horizon, 1/sigma2 powers) is factored out
        panel = make_case1_panel(case1_params, seed=63, d=50, n_points=101)
        vdata = transform(panel)
        fi = fisher_info(vdata, case1_params)
        cov = fi.inverse()
        d = fi.scaling_vector()
        core = fi.matrix * np.outer(d, d)
        core_inv = cov / np.outer(d, d)
        assert np.max(np.abs(core @ core_inv - np.eye(fi.matrix.shape[0]))) < 1e-8

    def test_zero_sigma2_refused(self):
        panel = ingest_csv(Path(__file__).parent / "data" / "epidemic_shaped.csv")
        with pytest.raises(ValueError, match="sigma2 > 0"):
            fisher_info(transform(panel), ModelParams(0.3, PolyCoeffs((0.1,)), 0.0))

    def test_core_that_overflows_refused(self):
        fi = FisherInfo(np.array([[1e-300, 1e300], [1e300, 1e-300]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInformationError, match="not finite"):
                fi.inverse()

    @pytest.mark.parametrize("sigma2", [1e-200, 1e-300, 1e-310])
    def test_overflowing_information_refused(self, sigma2):
        # the entries scale as 1/sigma2 and 1/sigma2^2, so they overflow to inf
        panel = ingest_csv(Path(__file__).parent / "data" / "epidemic_shaped.csv")
        xi = fit(panel, 3).xi_hat
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fi = fisher_info(transform(panel), ModelParams(xi.eta, xi.poly, sigma2))
            with pytest.raises(SingularInformationError, match="not finite"):
                fi.inverse()


class TestConfidenceIntervals:
    @staticmethod
    def diag_fi(variances):
        m = np.diag(1.0 / np.asarray(variances))
        return FisherInfo(m)

    def test_diagonal_half_width(self):
        fi = self.diag_fi([0.04, 0.01, 0.0025])
        xi = ModelParams(eta=1.0, poly=PolyCoeffs((0.5,)), sigma2=0.01)
        report = confidence_intervals(fi, xi, levels=(0.95,))
        lo, hi = report["eta"].intervals[0.95]
        z = 1.959963984540054
        assert hi - lo == pytest.approx(2 * z * 0.2, rel=1e-12)

    def test_nesting(self, case1_params):
        panel = make_case1_panel(case1_params, seed=64, d=30, n_points=61)
        res = fit(panel, 3)
        fi = fisher_info(transform(panel), res.xi_hat)
        report = confidence_intervals(fi, res.xi_hat)
        for entry in report.parameters:
            l75, l90, l95 = entry.intervals[0.75], entry.intervals[0.90], entry.intervals[0.95]
            assert l95[0] < l90[0] < l75[0] < entry.estimate < l75[1] < l90[1] < l95[1]

    def test_singular_information_refused(self):
        # near-collinear directions stay singular under equilibration
        # (pure scale disparity, by contrast, is benign and must not raise)
        v = np.array([1.0, 1.0, 0.5])
        m = np.outer(v, v) + 1e-15 * np.eye(3)
        fi = FisherInfo(m)
        xi = ModelParams(eta=1.0, poly=PolyCoeffs((0.5,)), sigma2=0.01)
        with pytest.raises(SingularInformationError):
            confidence_intervals(fi, xi)
        ok = np.diag([1.0, 1.0, 1e-15])
        cov = FisherInfo(ok).inverse()
        assert cov[2, 2] == pytest.approx(1e15, rel=1e-6)

    def test_delta_method_function(self):
        fi = self.diag_fi([0.04, 0.01, 0.0025])
        xi = ModelParams(eta=2.0, poly=PolyCoeffs((0.5,)), sigma2=0.01)
        # g = log eta: grad = (1/eta, 0, 0); se = 0.2 / 2
        report = confidence_intervals(fi, xi, levels=(0.95,),
                                      functions={"log_eta": (math.log(2.0), np.array([0.5, 0.0, 0.0]))})
        assert report["log_eta"].std_error == pytest.approx(0.1, rel=1e-12)

    def test_case1_interval_contains_truth_at_calibrated_width(self, case1_params):
        # the Wald SE for eta at this design is ~0.0024, which matches the
        # empirical sampling spread of eta_hat across replications (the
        # coverage acceptance test checks the latter at scale)
        panel = make_case1_panel(case1_params, seed=65)
        res = fit(panel, 3)
        fi = fisher_info(transform(panel), res.xi_hat)
        report = confidence_intervals(fi, res.xi_hat)
        eta = report["eta"]
        lo, hi = eta.intervals[0.95]
        assert lo < math.exp(-1) < hi
        half = (hi - lo) / 2
        assert 0.002 < half < 0.02

    @pytest.mark.parametrize("level", [1.5, 1.0, 0.0, -0.5, math.nan])
    def test_level_outside_unit_interval_rejected(self, level):
        xi = ModelParams(eta=1.0, poly=PolyCoeffs((0.5,)), sigma2=0.01)
        with pytest.raises(ValueError, match="confidence levels must lie in"):
            confidence_intervals(self.diag_fi([0.04, 0.01, 0.0025]), xi, levels=(0.95, level))


class TestInitialParamLaws:
    def test_two_paths_dof(self):
        laws = initial_param_laws(2, 0.5)
        assert laws.chi2_dof == 1
        assert laws.mu1_variance == 0.25

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            initial_param_laws(1, 0.5)

    def test_monte_carlo_moments(self):
        # 10^4 replications of the initial fit on d=10 lognormal starts
        d, mu1, s1 = 10, 1.2, 0.3**2
        rng = np.random.default_rng(123)
        logs = mu1 + math.sqrt(s1) * rng.standard_normal((10_000, d))
        mu_hat = logs.mean(axis=1)
        s1_hat = logs.var(axis=1)  # population variance per row, as the MLE uses
        laws = initial_param_laws(d, s1)
        assert mu_hat.var(ddof=1) == pytest.approx(laws.mu1_variance, rel=0.05)
        # d * s1_hat / s1 ~ chi2(d-1): mean d-1, variance 2(d-1)
        stat = d * s1_hat / s1
        assert stat.mean() == pytest.approx(d - 1, rel=0.05)
        assert stat.var(ddof=1) == pytest.approx(2 * (d - 1), rel=0.05)
