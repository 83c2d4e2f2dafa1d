import importlib.util
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mslogistic import (
    ModelParams,
    PathPanel,
    PolyCoeffs,
    compute_stats,
    curve,
    grad_loglik,
    transform,
)
from mslogistic.cli import ingest_csv
from mslogistic.fit_nr import (
    FitError,
    _shape_point,
    fit,
    initial_sigma2,
    initial_theta,
    sigma2_root,
    system_residual,
    usable_saturation_pairs,
)
from mslogistic.fit_sa import SaSchedule, anneal, build_box
from mslogistic.model import LognormalStart
from mslogistic.selection import dra_curve, select_degree
from mslogistic.simulate import SamplePath

from conftest import make_case1_panel

DATA_DIR = Path(__file__).parent / "data"
# Outcomes of named Newton-Raphson fits and one degree sweep, written by
# make_nr_golden.py: the fixture at degrees 1-6, its first 211 times at degree 4
# (a stalled line search), case-1 panels at degrees 2-5, a rank-deficient
# panel, and select_degree on the fixture.
NR_GOLDEN_TEXT = (DATA_DIR / "nr_golden.json").read_text()
_maker = importlib.util.spec_from_file_location("make_nr_golden", DATA_DIR / "make_nr_golden.py")
make_nr_golden = importlib.util.module_from_spec(_maker)
_maker.loader.exec_module(make_nr_golden)


def noiseless_panel(params, grid, l0=5.0, d=1):
    values = curve(params, l0, grid[0], grid)
    return PathPanel.from_matrix(grid, np.tile(values, (d, 1)))


class TestInitialTheta:
    def test_recovers_saturated_noiseless_curve_p1(self):
        # grid chosen so (a) the curve has numerically saturated by the last
        # time (exponent gaps to the end >= 16, bias < 1e-7) while (b) the
        # used ratios stay above ~1e-9, clear of double-precision cancellation
        params = ModelParams(eta=1.0, poly=PolyCoeffs((1.0,)))
        panel = noiseless_panel(params, np.array([0.0, 7.0, 14.0, 31.0]), l0=1.0)
        start = initial_theta(panel, 1)
        assert start.eta0 == pytest.approx(1.0, rel=1e-6)
        assert start.beta0.beta[0] == pytest.approx(1.0, rel=1e-6)
        assert start.r_squared > 1 - 1e-12

    def test_recovers_saturated_noiseless_curve_p2(self):
        params = ModelParams(eta=0.7, poly=PolyCoeffs((0.5, 0.02)))
        panel = noiseless_panel(params, np.array([0.0, 5.0, 10.0, 14.0, 30.0]), l0=2.0)
        start = initial_theta(panel, 2)
        assert start.eta0 == pytest.approx(0.7, rel=1e-6)
        np.testing.assert_allclose(start.beta0.beta, (0.5, 0.02), rtol=1e-6)

    def test_case1_initial_values_in_newton_basin(self, case1_params):
        panel = make_case1_panel(case1_params, seed=31)
        start = initial_theta(panel, 3)
        # the late-time response blow-up makes these rough (the published
        # values for this design are rough in the same way); they only need
        # to seed a convergent Newton run
        assert 0.1 < start.eta0 < 0.8
        assert start.r_squared > 0.8
        res = fit(panel, 3)
        assert res.converged

    def test_underdetermined_panel_fails(self):
        panel = PathPanel.from_matrix([0.0, 1.0], [[1.0, 2.0]])
        with pytest.raises(FitError):
            initial_theta(panel, 3)

    def test_nonincreasing_mean_points_dropped(self):
        # a path that overshoots its final value: those pairs are infeasible
        t = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        x = np.array([1.0, 2.0, 6.0, 6.5, 5.8, 5.9])
        panel = PathPanel.from_matrix(t, x[None, :])
        t_keep, _ = usable_saturation_pairs(panel)
        # the overshooting values at t=2,3 and the final time drop out
        np.testing.assert_array_equal(t_keep, [0.0, 1.0, 4.0])
        assert initial_theta(panel, 1).eta0 > 0


class TestTransformCount:
    def test_fit_transforms_once(self, case1_params, transform_calls):
        panel = make_case1_panel(case1_params, seed=76, d=30, n_points=61)
        res = fit(panel, 3)
        assert res.converged
        assert transform_calls == [panel]

    def test_fit_reads_no_geometric_mean(self, case1_params, moment_calls):
        # the regression start reads the mean and its noise; sigma2 needs no start
        panel = make_case1_panel(case1_params, seed=76, d=30, n_points=61)
        assert fit(panel, 3).converged
        assert moment_calls == {"pointwise_mean": 1, "pointwise_geometric_mean": 0,
                                "pointwise_sd": 1}


class TestInitialSigma2:
    def test_identical_paths_floor(self):
        grid = np.linspace(0.0, 10.0, 11)
        vals = np.tile(np.linspace(1.0, 5.0, 11), (3, 1))
        panel = PathPanel.from_matrix(grid, vals)
        assert initial_sigma2(panel) == pytest.approx(1e-12)

    def test_single_path_fails(self):
        panel = PathPanel.from_matrix([0.0, 1.0], [[1.0, 2.0]])
        with pytest.raises(FitError):
            initial_sigma2(panel)

    def test_case1_slope_near_truth(self, case1_params):
        panel = make_case1_panel(case1_params, seed=77)
        s2 = initial_sigma2(panel)
        assert s2 == pytest.approx(1e-4, rel=0.5)


class TestSigma2Root:
    def test_perfect_fit_gives_zero(self):
        class Stub:
            z1, a, b, z3 = 1.0, 1.0, 1.0, 50.0
        assert sigma2_root(Stub(), 100) == 0.0

    def test_hand_value(self):
        # 2(-100 + sqrt(100^2 + 50*1))/50, frozen from exact arithmetic
        class Stub:
            z1, a, b, z3 = 1.0, 0.0, 0.0, 50.0
        assert sigma2_root(Stub(), 100) == pytest.approx(0.009987532, rel=1e-7)

    def test_residual_of_sigma_equation(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(5, 2000))
            z3 = float(rng.uniform(0.5, 500.0))
            k = float(rng.uniform(0.0, 50.0))

            class Stub:
                pass

            s = Stub()
            s.z1, s.a, s.b, s.z3 = k, 0.0, 0.0, z3
            s2 = sigma2_root(s, n)
            resid = s2 * (n + 0.25 * s2 * z3) - k
            assert abs(resid) <= 1e-10 * max(1.0, k)

    def test_refuses_a_zero_z3(self):
        class Stub:
            z1, a, b, z3 = 1.0, 0.0, 0.0, 0.0
        with pytest.raises(ValueError, match="z3 must be positive"):
            sigma2_root(Stub(), 100)

    def test_refuses_a_negative_sum_of_squares(self):
        class Stub:  # z1 + a - 2b = -1, far below the rounding slack of 1e-12
            z1, a, b, z3 = 1.0, 0.0, 1.0, 50.0
        with pytest.raises(FitError, match=r"sum-of-squares aggregate is negative \(-1\.0\)"):
            sigma2_root(Stub(), 100)


class TestRaggedPanel:
    """Every stage that reads the cross-sectional moments refuses a ragged panel in one way."""

    PANEL = PathPanel((SamplePath([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.5, 4.5, 5.0]),
                       SamplePath([0.0, 1.5, 3.0, 4.0], [1.0, 2.5, 4.0, 5.5]),
                       SamplePath([0.0, 2.0, 4.0], [1.0, 3.0, 5.0])))
    XI = ModelParams(eta=0.5, poly=PolyCoeffs((0.5,)), sigma2=0.01)
    STAGES = {
        "fit": lambda panel: fit(panel, 1),
        "initial_theta": lambda panel: initial_theta(panel, 1),
        "initial_sigma2": initial_sigma2,
        "build_box": lambda panel: build_box(panel, 1),
        "select_degree": lambda panel: select_degree(panel, [1, 2]),
        "dra_curve": lambda panel: dra_curve(panel, TestRaggedPanel.XI, LognormalStart(0.0, 0.1)),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_refused_by_the_panel(self, stage):
        assert self.PANEL.common_grid() is None
        with pytest.raises(ValueError, match="paths are not on a common grid"):
            self.STAGES[stage](self.PANEL)


class TestSystemResidual:
    def test_vanishes_at_convergence(self, case1_params):
        panel = make_case1_panel(case1_params, seed=5, d=50, n_points=101)
        res = fit(panel, 3)
        assert res.converged
        # scaled as in the fit: the reported norm is the scaled sup-norm
        assert res.residual_norm < 1e-8

    def test_sigma_equation_at_closed_form_root(self, case1_params):
        panel = make_case1_panel(case1_params, seed=6, d=20, n_points=51)
        vdata = transform(panel)
        stats = compute_stats(vdata, case1_params)
        s2 = sigma2_root(stats, vdata.n)
        xi = ModelParams(eta=case1_params.eta, poly=case1_params.poly, sigma2=s2)
        resid = system_residual(vdata, xi)
        assert abs(resid[0]) < 1e-10 * max(1.0, stats.z1)

    def test_proportional_to_gradient(self, case1_params):
        # grad_l = resid_{l+1} / sigma2 exactly: both read LikelihoodStats.shape_score
        rng = np.random.default_rng(3)
        panel = make_case1_panel(case1_params, seed=7, d=5, n_points=21)
        vdata = transform(panel)
        for _ in range(5):
            xi = ModelParams(
                eta=float(rng.uniform(0.2, 0.6)),
                poly=PolyCoeffs(tuple(np.array([0.1, -0.009, 0.0002]) * rng.uniform(0.5, 1.5, 3))),
                sigma2=float(rng.uniform(1e-5, 1e-3)),
            )
            resid = system_residual(vdata, xi)
            grad = grad_loglik(vdata, xi)
            np.testing.assert_array_equal(grad[:-1], resid[1:] / xi.sigma2)

    def test_gradient_sigma2_zero_at_root(self, case1_params):
        panel = make_case1_panel(case1_params, seed=8, d=20, n_points=51)
        vdata = transform(panel)
        stats = compute_stats(vdata, case1_params)
        s2 = sigma2_root(stats, vdata.n)
        xi = ModelParams(eta=case1_params.eta, poly=case1_params.poly, sigma2=s2)
        g = grad_loglik(vdata, xi)
        # d core-loglik / d sigma2 vanishes at the eliminated root
        scale = vdata.n / (2 * s2)  # natural magnitude of the two cancelling terms
        assert abs(g[-1]) < 1e-10 * scale


class TestFit:
    def test_noiseless_recovery(self):
        params = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=0.0)
        grid = np.linspace(0.0, 50.0, 201)
        panel = noiseless_panel(params, grid, l0=5.0, d=2)
        res = fit(panel, 3)
        assert res.converged
        np.testing.assert_allclose(
            res.xi_hat.as_vector()[:-1],
            [math.exp(-1), 0.1, -0.009, 0.0002],
            rtol=1e-6,
        )
        assert res.xi_hat.sigma2 <= 1e-10

    def test_case1_matches_published_scale(self, case1_params):
        panel = make_case1_panel(case1_params, seed=41)
        res = fit(panel, 3)
        assert res.converged
        x = res.xi_hat
        ref = {"eta": 0.3748345, "b1": 0.1008708, "b2": -0.009083141,
               "b3": 0.0002016053, "sigma": 0.009948509}
        assert x.eta == pytest.approx(ref["eta"], rel=0.10)
        assert x.poly.beta[0] == pytest.approx(ref["b1"], rel=0.10)
        assert x.poly.beta[1] == pytest.approx(ref["b2"], rel=0.10)
        assert x.poly.beta[2] == pytest.approx(ref["b3"], rel=0.10)
        assert x.sigma == pytest.approx(ref["sigma"], rel=0.20)

    def test_case1_rae_small(self, case1_params):
        panel = make_case1_panel(case1_params, seed=42)
        res = fit(panel, 3)
        grid = panel.common_grid()
        fitted = curve(res.xi_hat, float(panel.first_values().mean()), 0.0, grid)
        m = panel.pointwise_mean
        rae = float(np.mean(np.abs(m - fitted) / m))
        assert rae < 0.015

    def test_monotone_trace(self, case1_params):
        panel = make_case1_panel(case1_params, seed=43, d=50, n_points=101)
        res = fit(panel, 3)
        trace = np.array(res.trace)
        assert np.all(np.diff(trace) <= 0)

    def test_gradient_small_at_optimum(self, case1_params):
        panel = make_case1_panel(case1_params, seed=44, d=50, n_points=101)
        res = fit(panel, 3)
        vdata = transform(panel)
        g = grad_loglik(vdata, res.xi_hat)
        # scale-aware: compare against the gradient magnitude at the start
        g0 = grad_loglik(vdata, ModelParams(case1_params.eta * 1.5, case1_params.poly, 2e-4))
        assert np.max(np.abs(g / np.maximum(np.abs(g0), 1.0))) < 1e-6

    def test_local_maximum_along_each_axis(self, case1_params):
        # grid-scan oracle: the fitted point beats its axis-aligned neighbors
        from mslogistic.likelihood import core_loglik
        from mslogistic import compute_stats

        panel = make_case1_panel(case1_params, seed=47, d=50, n_points=101)
        res = fit(panel, 3)
        vdata = transform(panel)

        def core(vec):
            prm = ModelParams.from_vector(vec)
            return core_loglik(compute_stats(vdata, prm), prm.sigma2)

        x_hat = res.xi_hat.as_vector()
        l_hat = core(x_hat)
        for k in range(x_hat.size):
            for sign in (-1.0, 1.0):
                x = x_hat.copy()
                x[k] *= 1.0 + sign * 1e-3
                assert core(x) < l_hat

    def test_sigma2_consistent_with_closed_form(self, case1_params):
        panel = make_case1_panel(case1_params, seed=45, d=50, n_points=101)
        res = fit(panel, 3)
        vdata = transform(panel)
        stats = compute_stats(vdata, res.xi_hat)
        assert res.xi_hat.sigma2 == pytest.approx(sigma2_root(stats, vdata.n), rel=1e-8)

    def test_rank_deficient_problem_returns_gracefully(self):
        # two distinct transitions but four shape parameters: singular system
        panel = PathPanel.from_matrix([0.0, 1.0, 2.0], [[1.0, 1.5, 2.0], [1.0, 1.4, 2.1]])
        theta0 = np.array([0.5, 0.3, -0.01, 0.001])
        res = fit(panel, 3, max_iter=20, init=theta0)
        assert isinstance(res.residual_norm, float)
        assert np.isfinite(res.residual_norm)

    def test_explicit_init_override(self, case1_params):
        panel = make_case1_panel(case1_params, seed=46, d=50, n_points=101)
        theta0 = np.array([math.exp(-1), 0.1, -0.009, 0.0002])
        res = fit(panel, 3, init=theta0)
        assert res.converged
        assert res.init is None

    @pytest.mark.parametrize("init", [[0.03, 0.05, -5e-4, 1e-6, 0.0], [0.03, 0.05],
                                      [[0.03, 0.05, -5e-4, 1e-6]]], ids=["5", "2", "1x4"])
    def test_init_of_another_degree_rejected(self, init):
        # a start of p + 2 values would otherwise fit degree p + 1
        panel = ingest_csv(DATA_DIR / "epidemic_shaped.csv")
        with pytest.raises(ValueError, match=r"init needs the p \+ 1 = 4 values"):
            fit(panel, 3, init=init)

    @pytest.mark.parametrize("opts, fragment", [
        ({"tol": math.nan}, "tol must be finite and positive, got nan"),
        ({"tol": -1.0}, "tol must be finite and positive"),
        ({"tol": 0.0}, "tol must be finite and positive"),
        ({"tol": math.inf}, "tol must be finite and positive"),
        ({"max_iter": 0}, "max_iter must be an integer >= 1, got 0"),
        ({"max_iter": 2.0}, "max_iter must be an integer >= 1"),
        ({"max_iter": True}, "max_iter must be an integer >= 1"),
    ])
    def test_bad_tolerance_or_budget_rejected(self, opts, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            fit(ingest_csv(DATA_DIR / "epidemic_shaped.csv"), 3, **opts)

    def test_singular_jacobian_stops_without_warnings(self):
        # at eta = 1e300 every Jacobian entry underflows to 0; the iteration
        # must stop instead of stepping to NaN
        panel = ingest_csv(DATA_DIR / "epidemic_shaped.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = fit(panel, 3, init=np.array([1e300, 0.05, -5e-4, 1e-6]))
        assert not res.converged
        assert res.message == "singular Jacobian"
        assert np.all(np.isfinite(res.xi_hat.as_vector()))

    def test_non_finite_jacobian_stops(self):
        # at eta = 1e-200 on a saturated curve 1/u^2 overflows in the Jacobian
        # while the residual stays finite
        panel = ingest_csv(DATA_DIR / "epidemic_shaped.csv")
        with np.errstate(over="ignore", invalid="ignore"):
            res = fit(panel, 3, init=np.array([1e-200, 5.0, 0.0, 0.0]))
        assert not res.converged
        assert res.message == "singular Jacobian"
        assert np.all(np.isfinite(res.xi_hat.as_vector()))

    def test_converged_on_the_last_allowed_step_has_no_message(self):
        # the fixture at degree 3 reaches the tolerance on its fourth step
        res = fit(ingest_csv(DATA_DIR / "epidemic_shaped.csv"), 3, max_iter=4)
        assert res.iterations == 4
        assert res.converged
        assert res.message == ""

    def test_non_finite_start_raises_fit_error(self):
        # beta_1 = -1e300 overflows the shape aggregates, so the sigma2 root is infinite
        panel = ingest_csv(DATA_DIR / "epidemic_shaped.csv")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FitError, match=r"degree-3 start \[0\.03, -1e\+300, 0\.0, 0\.0\]"):
                fit(panel, 3, init=[0.03, -1e300, 0, 0])

    def test_non_finite_start_is_a_select_failure(self):
        panel = ingest_csv(DATA_DIR / "epidemic_shaped.csv")

        def fitter(panel, p):
            # the regression start at degrees 2 and 4, the non-finite one at degree 3
            return fit(panel, p, init=[0.03, -1e300, 0, 0] if p == 3 else None)

        with np.errstate(over="ignore", invalid="ignore"):
            report = select_degree(panel, [2, 3, 4], fitter=fitter)
        assert [e.p for e in report.per_degree] == [2, 4]
        assert len(report.failures) == 1
        assert report.failures[0][0] == 3
        assert "degree-3 start" in report.failures[0][1]


class TestDegreeCheck:
    """Every library entry point that takes a degree rejects one that is not an integer >= 1."""

    ENTRY_POINTS = {
        "fit": fit,
        "build_box": build_box,
        "anneal": lambda panel, p: anneal(panel, p, sched=SaSchedule(replications=1, max_iter=1)),
        "select_degree": lambda panel, p: select_degree(panel, [2, p]),
    }

    @pytest.mark.parametrize("p", [True, 0, -1, 2.5, "3", None], ids=repr)
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_bad_degree_rejected(self, entry, p):
        with pytest.raises(ValueError, match=re.escape(f"degree must be an integer >= 1, got {p!r}")):
            self.ENTRY_POINTS[entry](ingest_csv(DATA_DIR / "epidemic_shaped.csv"), p)

    def test_numpy_integer_accepted(self):
        panel = ingest_csv(DATA_DIR / "epidemic_shaped.csv")
        assert fit(panel, np.int64(3)).xi_hat == fit(panel, 3).xi_hat


class TestGolden:
    def test_matches_recorded_fits_bit_for_bit(self):
        # compares the repr text of every float, so a change in any bit shows
        assert make_nr_golden.dumps(
            {name: make_nr_golden.record(name) for name in make_nr_golden.NAMES}
        ) + "\n" == NR_GOLDEN_TEXT

    def test_converged_and_stopped_fits_both_pinned(self):
        golden = json.loads(NR_GOLDEN_TEXT)
        fits = [rec for name, rec in golden.items() if name != "select_fixture"]
        assert {rec["converged"] for rec in fits} == {True, False}
        assert golden["fixture_t210_p4"]["message"] == "line search stalled"
        assert golden["rank_deficient"]["message"] == "no convergence in 20 iterations"
        assert all(rec["converged"] == (rec["message"] == "") for rec in fits)


class TestJacobian:
    """The exact Jacobian of the shape system against central differences."""

    @staticmethod
    def central_differences(vdata, theta):
        # central differences at a step of 1e-7 |theta_k|
        jac = np.empty((theta.size, theta.size))
        for k in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[k] += 1e-7 * abs(theta[k])
            down[k] -= 1e-7 * abs(theta[k])
            diff = _shape_point(vdata, up)[0] - _shape_point(vdata, down)[0]
            jac[:, k] = diff / (up[k] - down[k])
        return jac

    @pytest.mark.parametrize("source", ["fixture", pytest.param(0, id="case1")])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_matches_central_differences_near_the_fit(self, source, p):
        panel = make_nr_golden.panel(source)
        vdata = transform(panel)
        theta_hat = fit(panel, p).xi_hat.as_vector()[:-1]
        rng = np.random.default_rng(p)
        for _ in range(3):
            theta = theta_hat * (1.0 + 1e-3 * rng.standard_normal(p + 1))
            jac = _shape_point(vdata, theta)[1]
            fd = self.central_differences(vdata, theta)
            col_scale = np.max(np.abs(fd), axis=0)
            assert np.all(np.max(np.abs(jac - fd), axis=0) <= 1e-3 * col_scale)
            if source == "fixture" and p == 2:
                # eta near 1e5 puts the eta row 1e-12 below the others, under
                # what central differences resolve
                continue
            # the eta-beta entries on their own: d r_0/d beta_k and d r_k/d eta
            eta_beta = np.concatenate((jac[0, 1:], jac[1:, 0]))
            np.testing.assert_allclose(eta_beta, np.concatenate((fd[0, 1:], fd[1:, 0])), rtol=1e-4)
