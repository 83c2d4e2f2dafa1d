import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from mslogistic import (
    Degenerate,
    LognormalStart,
    ModelParams,
    PolyCoeffs,
    carrying_capacity,
    curve,
    drift_rate,
    inflection_points,
    integrated_drift,
    percentile,
    process_mean,
)
from mslogistic.model import _inflection_residual, log_saturation_gap

CASE1_BETA = (0.1, -0.009, 0.0002)


def params(beta, eta=1.0, sigma2=0.0):
    return ModelParams(eta=eta, poly=PolyCoeffs(beta), sigma2=sigma2)


class TestPolynomial:
    def test_no_constant_term(self):
        assert PolyCoeffs(CASE1_BETA).value(0.0) == 0.0

    def test_hand_value(self):
        # 0.1*10 - 0.009*100 + 0.0002*1000 = 1 - 0.9 + 0.2
        assert PolyCoeffs(CASE1_BETA).value(10.0) == pytest.approx(0.3, rel=1e-14)

    def test_identity_coefficient(self):
        assert PolyCoeffs((1.0,)).value(5.0) == 5.0

    @given(
        beta=st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=1, max_size=6),
        t=st.floats(-1e3, 1e3, allow_nan=False, width=32),
    )
    @settings(max_examples=200, deadline=None)
    def test_horner_accuracy_vs_exact_rational(self, beta, t):
        # doubles are exact rationals, so Fraction arithmetic is an exact oracle
        poly = PolyCoeffs(tuple(beta))
        exact = sum(Fraction(b) * Fraction(t) ** i for i, b in enumerate(beta, start=1))
        got = poly.value(float(t))
        mag = sum(abs(Fraction(b)) * abs(Fraction(t)) ** i for i, b in enumerate(beta, start=1))
        assert abs(Fraction(got) - exact) <= Fraction(1e-14) * max(mag, Fraction(1))

    def test_deriv_hand_values(self):
        assert PolyCoeffs(CASE1_BETA).deriv(0.0) == pytest.approx(0.1, rel=1e-14)
        assert PolyCoeffs((1.0,)).deriv(123.4) == 1.0
        assert PolyCoeffs((0.0, 0.0, 1.0)).deriv(2.0) == pytest.approx(12.0, rel=1e-14)

    def test_deriv_matches_finite_difference(self):
        poly = PolyCoeffs(CASE1_BETA)
        for t in np.linspace(0.5, 40.0, 7):
            h = 1e-6 * max(1.0, abs(t))
            fd = (poly.value(t + h) - poly.value(t - h)) / (2 * h)
            assert poly.deriv(t) == pytest.approx(fd, rel=1e-8)


class TestCurve:
    def test_initial_condition_exact(self):
        p = params(CASE1_BETA, eta=math.exp(-1))
        assert curve(p, l0=5.0, t0=0.0, t=0.0) == 5.0
        assert curve(p, l0=7.25, t0=3.0, t=3.0) == 7.25

    def test_carrying_capacity_hand_values(self):
        assert carrying_capacity(params((1.0,), eta=1.0), l0=1.0, t0=0.0) == pytest.approx(2.0)
        got = carrying_capacity(params(CASE1_BETA, eta=math.exp(-1)), l0=5.0, t0=0.0)
        assert got == pytest.approx(5.0 * (1.0 + math.e), rel=1e-12)  # = 18.59141...

    def test_curve_limit_matches_carrying_capacity(self):
        p = params(CASE1_BETA, eta=math.exp(-1))
        cc = carrying_capacity(p, l0=5.0, t0=0.0)
        assert curve(p, 5.0, 0.0, 1e6) == pytest.approx(cc, rel=1e-9)

    def test_carrying_capacity_requires_positive_leading(self):
        with pytest.raises(ValueError):
            carrying_capacity(params((0.1, -0.01)), l0=1.0, t0=0.0)

    def test_monotone_case(self):
        # increasing growth wave pattern: second wave never dips
        p = params((0.1, -0.007, 0.0003), eta=math.exp(-1))
        t = np.linspace(0.0, 50.0, 2001)
        vals = curve(p, 5.0, 0.0, t)
        assert np.all(np.diff(vals) > 0)

    def test_case1_is_not_monotone(self):
        p = params(CASE1_BETA, eta=math.exp(-1))
        t = np.linspace(0.0, 50.0, 2001)
        assert np.any(np.diff(curve(p, 5.0, 0.0, t)) < 0)

    def test_bounded_by_carrying_capacity(self):
        for beta, eta in [(CASE1_BETA, math.exp(-1)), ((0.1, -0.007, 0.0003), 0.3), ((0.5,), 2.0)]:
            p = params(beta, eta=eta)
            cc = carrying_capacity(p, l0=5.0, t0=0.0)
            vals = curve(p, 5.0, 0.0, np.linspace(0.0, 200.0, 4001))
            assert np.all(vals <= cc * (1 + 1e-12))

    def test_overflow_guard_large_negative_exponent(self):
        # Q(t) = -t drives exp(-Q) past the double range; log-sum-exp keeps it finite
        p = params((-1.0,), eta=0.5)
        assert np.isfinite(log_saturation_gap(p, 800.0))
        assert np.isfinite(curve(p, 1.0, 0.0, 800.0))
        assert curve(p, 1.0, 0.0, 800.0) == pytest.approx(0.0, abs=1e-300)


class TestDriftRate:
    def test_hand_value(self):
        assert drift_rate(params((1.0,), eta=1.0), 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_zero_where_poly_slope_vanishes(self):
        # P(t) = 0.1 - 0.018 t + 0.0006 t^2 has real roots; h vanishes there
        p = params(CASE1_BETA, eta=math.exp(-1))
        roots = np.roots([0.0006, -0.018, 0.1])
        for r in roots:
            assert drift_rate(p, float(r)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("beta,eta,sigma2,t0,t1", [
        (CASE1_BETA, math.exp(-1), 0.01**2, 0.0, 37.5),
        ((0.1, -0.007, 0.0003), 0.3, 0.05**2, 0.0, 50.0),
        ((0.5,), 2.0, 0.25, 1.0, 9.0),
        ((0.3, -0.02), 0.05, 1e-4, 2.0, 6.0),
    ])
    def test_integrated_drift_matches_quadrature(self, beta, eta, sigma2, t0, t1):
        p = params(beta, eta=eta, sigma2=sigma2)
        integral, err = quad(lambda s: drift_rate(p, s), t0, t1, limit=300,
                             epsabs=1e-13, epsrel=1e-13)
        expected = integral - 0.5 * sigma2 * (t1 - t0)
        assert abs(integrated_drift(p, t0, t1) - expected) < 1e-10


class TestIntegratedDrift:
    def test_empty_interval(self):
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=0.01)
        assert integrated_drift(p, 3.0, 3.0) == 0.0

    def test_sigma_free_case_is_log_curve_ratio(self):
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=0.0)
        h = integrated_drift(p, 0.0, 20.0)
        assert h == pytest.approx(math.log(curve(p, 1.0, 0.0, 20.0)), rel=1e-13)

    @given(
        t=st.floats(0.0, 50.0),
        u=st.floats(0.0, 50.0),
        v=st.floats(0.0, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_additivity_over_abutting_intervals(self, t, u, v):
        a, b, c = sorted([t, u, v])
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=0.0004)
        lhs = integrated_drift(p, a, b) + integrated_drift(p, b, c)
        assert lhs == pytest.approx(integrated_drift(p, a, c), abs=1e-12)


class TestConditionalMean:
    """``curve`` through ``(t0, x0)`` is ``E[X(t) | X(t0) = x0]``."""

    def test_initial_value(self):
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=0.01**2)
        assert curve(p, 5.0, 0.0, 0.0) == 5.0

    def test_ode_residual(self):
        # d/dt m(t|t0) = h(t) m(t|t0), checked by central differences
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=0.01**2)
        for t in [1.0, 10.0, 25.0, 40.0]:
            h = 1e-5
            m = curve(p, 5.0, 0.0, t)
            dm = (curve(p, 5.0, 0.0, t + h) - curve(p, 5.0, 0.0, t - h)) / (2 * h)
            assert dm == pytest.approx(drift_rate(p, t) * m, rel=1e-6)

    def test_matches_monte_carlo_transitions(self):
        # 1e5 exact lognormal transitions over one long step
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=0.05**2)
        x0, t0, t1 = 5.0, 0.0, 30.0
        rng = np.random.default_rng(7)
        m_log = integrated_drift(p, t0, t1)
        draws = x0 * np.exp(m_log + p.sigma * math.sqrt(t1 - t0) * rng.standard_normal(100_000))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - curve(p, x0, t0, t1)) < 3 * se


class TestPercentile:
    def test_median_at_start_degenerate_variance(self):
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=0.01**2)
        init = LognormalStart(mu1=1.3, sigma1sq=0.0)
        assert percentile(p, init, 0.0, 0.0, 0.5) == pytest.approx(math.exp(1.3), rel=1e-13)

    def test_alpha_domain(self):
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=0.01**2)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                percentile(p, Degenerate(5.0), 0.0, 1.0, bad)

    def test_matches_empirical_quantile(self):
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=0.05**2)
        init = LognormalStart(mu1=math.log(5.0), sigma1sq=0.04)
        t0, t = 0.0, 25.0
        rng = np.random.default_rng(11)
        log_draws = (
            init.mu1
            + math.sqrt(init.sigma1sq) * rng.standard_normal(100_000)
            + integrated_drift(p, t0, t)
            + p.sigma * math.sqrt(t - t0) * rng.standard_normal(100_000)
        )
        draws = np.exp(log_draws)
        for alpha in (0.1, 0.5, 0.9):
            emp = np.quantile(draws, alpha)
            assert percentile(p, init, t0, t, alpha) == pytest.approx(emp, rel=0.01)

    def test_median_below_mean_when_variance_positive(self):
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=0.05**2)
        init = LognormalStart(mu1=math.log(5.0), sigma1sq=0.01)
        for t in (0.0, 5.0, 30.0):
            med = percentile(p, init, 0.0, t, 0.5)
            assert med < process_mean(p, init, 0.0, t)

    def test_time_before_start_refused(self):
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=1e-4)
        with pytest.raises(ValueError, match="t >= t0"):
            percentile(p, Degenerate(5.0), 10.0, np.array([5.0]), 0.5)

    def test_initial_mean_past_the_range_refused(self):
        p = params(CASE1_BETA, eta=math.exp(-1), sigma2=1e-4)
        with pytest.raises(ValueError, match="past the double range"):
            process_mean(p, LognormalStart(800.0, 0.5), 0.0, 10.0)

    def test_band_brackets_simulated_paths(self, case1_params):
        from conftest import make_case1_panel

        panel = make_case1_panel(case1_params, seed=99, d=100)
        init = Degenerate(5.0)
        grid = panel.common_grid()
        hi = percentile(case1_params, init, 0.0, grid[1:], 0.975)
        lo = percentile(case1_params, init, 0.0, grid[1:], 0.025)
        inside = [
            np.mean((p.values[1:] >= lo) & (p.values[1:] <= hi)) for p in panel.paths
        ]
        assert np.mean(inside) > 0.9


class TestInflectionPoints:
    def test_case1_has_multiple_inflections(self):
        p = params(CASE1_BETA, eta=math.exp(-1))
        res = inflection_points(p, 0.0, 50.0, l0=5.0)
        assert len(res.times) >= 2
        # residual small and curvature genuinely flips at each reported time
        span = 50.0
        for t in res.times:
            assert abs(_inflection_residual(p, t)) < 1e-10
            h = span * 1e-4
            def second_diff(s):
                return curve(p, 5.0, 0.0, s + h) - 2 * curve(p, 5.0, 0.0, s) + curve(p, 5.0, 0.0, s - h)
            assert second_diff(t - 5 * h) * second_diff(t + 5 * h) < 0

    def test_agrees_with_second_difference_scan(self):
        # independent oracle: sign changes of the second difference of the curve
        p = params(CASE1_BETA, eta=math.exp(-1))
        grid = np.linspace(0.0, 50.0, 20001)
        vals = curve(p, 5.0, 0.0, grid)
        second = np.diff(vals, 2)
        flips = np.where(second[:-1] * second[1:] < 0)[0]
        oracle_times = grid[flips + 1]
        res = inflection_points(p, 0.0, 50.0, l0=5.0)
        assert len(res.times) == len(oracle_times)
        for got, want in zip(res.times, oracle_times):
            assert got == pytest.approx(want, abs=0.01)

    def test_classic_logistic_single_inflection(self):
        # beta = (k): inflection exactly where Q + log(eta) = 0
        p = params((0.5,), eta=1.0)
        res = inflection_points(p, -10.0, 10.0, l0=1.0)
        assert len(res.times) == 1
        assert res.times[0] == pytest.approx(0.0, abs=1e-9)

    def test_constant_slope_away_from_root_is_empty(self):
        # same curve on an interval that excludes the single curvature flip
        p = params((1.0,), eta=1.0)
        res = inflection_points(p, 1.0, 10.0, l0=1.0)
        assert res.times == ()

    def test_constant_curve_has_none(self):
        # Q = 0: the residual is exactly zero at every scan point and never changes sign
        res = inflection_points(params((0.0,), eta=1.0), 0.0, 10.0)
        assert res.times == () and res.values == ()

    def test_values_are_curve_values(self):
        p = params(CASE1_BETA, eta=math.exp(-1))
        res = inflection_points(p, 0.0, 50.0, l0=5.0)
        for t, v in zip(res.times, res.values):
            assert v == pytest.approx(curve(p, 5.0, 0.0, t), rel=1e-12)

    @pytest.mark.parametrize("t0, t_max", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.inf),
                                           (-1e308, 1e308)])
    def test_horizon_refused(self, t0, t_max):
        with pytest.raises(ValueError, match="t_max must exceed t0"):
            inflection_points(params(CASE1_BETA, eta=math.exp(-1)), t0, t_max)

    @pytest.mark.parametrize("beta, t_max", [(CASE1_BETA, 1e200), ((1e200, -1e200), 50.0)])
    def test_residual_past_the_range_brackets_no_root(self, beta, t_max):
        # an overflow warning would fail the test (pyproject's RuntimeWarning filter)
        res = inflection_points(params(beta, eta=math.exp(-1)), 0.0, t_max)
        assert all(map(math.isfinite, res.times))

    def test_bisection_stops_at_the_resolution_of_large_times(self):
        # Q + log eta = 0 at t = 1e6, where doubles are 1.2e-10 apart, wider than the tolerance
        res = inflection_points(params((1e-5,), eta=math.exp(-10)), 0.3, 2.1e6)
        assert len(res.times) == 1
        assert res.times[0] == pytest.approx(1e6, rel=1e-12)


class TestValidation:
    def test_eta_positive(self):
        with pytest.raises(ValueError):
            ModelParams(eta=0.0, poly=PolyCoeffs((1.0,)))

    def test_sigma2_nonnegative(self):
        with pytest.raises(ValueError):
            ModelParams(eta=1.0, poly=PolyCoeffs((1.0,)), sigma2=-0.1)

    @pytest.mark.parametrize("mu1", [math.nan, math.inf, -math.inf])
    def test_lognormal_start_mu1_finite(self, mu1):
        with pytest.raises(ValueError, match="mu1 must be finite"):
            LognormalStart(mu1, 0.5)

    @pytest.mark.parametrize("mu1, sigma1sq", [(800.0, 0.5), (1.7e308, 1.7e308)])
    def test_lognormal_mean_past_the_range_refused(self, mu1, sigma1sq):
        # math.exp raises OverflowError for the first, and takes an infinite exponent for the second
        with pytest.raises(ValueError, match="past the double range"):
            LognormalStart(mu1, sigma1sq).mean

    def test_poly_needs_coefficients(self):
        with pytest.raises(ValueError):
            PolyCoeffs(())

    def test_vector_round_trip(self):
        p = ModelParams(eta=0.4, poly=PolyCoeffs(CASE1_BETA), sigma2=1e-4)
        assert ModelParams.from_vector(p.as_vector()) == p

    def test_from_vector_stores_python_floats(self):
        p = ModelParams.from_vector(np.array([0.4, *CASE1_BETA, 1e-4]))
        assert type(p.eta) is float and type(p.sigma2) is float
        assert all(type(b) is float for b in p.poly.beta)
