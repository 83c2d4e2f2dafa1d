import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslogistic import LognormalStart, ModelParams, PathPanel, PolyCoeffs, transform
from mslogistic.asymptotics import fisher_info
from mslogistic.cli import ingest_csv
from mslogistic.fit_nr import fit
from mslogistic.likelihood import fit_initial
from mslogistic.selection import (
    _median,
    aic_bic,
    dra_curve,
    kl_divergence,
    rae,
    resistor_average,
    select_degree,
)

from conftest import make_case1_panel, per_time_dra_curve


class TestRae:
    def test_identical_series(self):
        assert rae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert rae([1.0, 1.0], [1.1, 0.9]) == pytest.approx(0.1, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rae([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(c=st.floats(0.1, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, c):
        m = np.array([1.0, 2.0, 5.0])
        f = np.array([1.2, 1.9, 5.4])
        assert rae(c * m, c * f) == pytest.approx(rae(m, f), rel=1e-12)


class TestInformationCriteria:
    def test_aic_hand_value(self):
        aic, _ = aic_bic(3, 0.0, 10)
        assert aic == 10.0

    def test_bic_hand_value(self):
        _, bic = aic_bic(3, 0.0, round(math.e**2))
        # n must be integral; use exp(2) rounded and compare accordingly
        assert bic == pytest.approx(5 * math.log(round(math.e**2)), rel=1e-12)

    def test_aic_bic_identity(self):
        for p in (2, 3, 4):
            for n in (10, 1000, 100_000):
                aic, bic = aic_bic(p, -123.4, n)
                assert bic - aic == pytest.approx((p + 2) * (math.log(n) - 2), rel=1e-12)


class TestDivergences:
    def test_identical_laws(self):
        assert kl_divergence(0.5, 0.2, 0.5, 0.2) == 0.0

    def test_gaussian_mean_shift(self):
        v, delta = 0.3, 0.12
        assert kl_divergence(0.0, v, delta, v) == pytest.approx(delta**2 / (2 * v), rel=1e-12)

    @given(
        mu1=st.floats(-2, 2), mu2=st.floats(-2, 2),
        v1=st.floats(0.01, 3.0), v2=st.floats(0.01, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, mu1, mu2, v1, v2):
        assert kl_divergence(mu1, v1, mu2, v2) >= -1e-12

    def test_resistor_average_equal_directions(self):
        assert resistor_average(0.4, 0.4) == pytest.approx(0.2, rel=1e-14)

    def test_resistor_average_identical_laws(self):
        assert resistor_average(0.0, 0.0) == 0.0

    @given(a=st.floats(1e-6, 10.0), b=st.floats(1e-6, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_harmonic_mean_bound(self, a, b):
        assert resistor_average(a, b) <= min(a, b) + 1e-15

    def test_scalars_give_the_floats_of_the_array_entries(self):
        rng = np.random.default_rng(3)
        mu_c, mu_s = rng.normal(0.0, 2.0, (2, 300))
        var_c, var_s = rng.uniform(1e-6, 3.0, (2, 300))
        kl = kl_divergence(mu_c, var_c, mu_s, var_s)
        scalars = [kl_divergence(*args) for args in zip(*(a.tolist() for a in (mu_c, var_c,
                                                                                mu_s, var_s)))]
        assert all(type(x) is float for x in scalars) and scalars == kl.tolist()
        kl[::7] = kl[-1] = 0.0  # entry 0 pairs two zeros, entry 7 one
        ra = resistor_average(kl, kl[::-1])
        scalars = [resistor_average(a, b) for a, b in zip(kl.tolist(), kl[::-1].tolist())]
        assert all(type(x) is float for x in scalars) and scalars == ra.tolist()
        assert ra[0] == ra[7] == 0.0

    def test_arrays_are_checked(self):
        with pytest.raises(ValueError, match="variances"):
            kl_divergence(np.zeros(3), np.array([1.0, 0.0, 1.0]), 0.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            resistor_average(np.array([0.1, -0.1]), 0.2)


class TestDraCurve:
    @pytest.mark.parametrize("seed, d, n_points", [(1, 50, 501), (2, 5, 101), (3, 1, 31)])
    def test_equals_the_per_time_loop_bit_for_bit(self, case1_params, seed, d, n_points):
        rng = np.random.default_rng(seed)
        panel = make_case1_panel(case1_params, seed=seed, d=d, n_points=n_points)
        inits = [fit_initial(transform(panel)), LognormalStart(1.6, 0.05)]
        for k in range(10):
            p = int(rng.integers(1, 5))
            xi = ModelParams(eta=float(np.exp(rng.normal(-1.0, 1.0))),
                             poly=PolyCoeffs(tuple(rng.normal(0.0, 0.1, p) / 10.0 ** np.arange(p))),
                             sigma2=float(10.0 ** rng.uniform(-6, -1)))
            times, values = dra_curve(panel, xi, inits[k % 2])
            ref_times, ref_values = per_time_dra_curve(panel, xi, inits[k % 2])
            assert times is not ref_times and np.array_equal(times, ref_times)
            assert values.dtype == ref_values.dtype and values.shape == ref_values.shape
            assert np.array_equal(values, ref_values)


class TestMedian:
    def test_equals_numpy_median_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for size in rng.integers(1, 501, size=1200).tolist():
            x = rng.standard_normal(size) * 10.0 ** rng.uniform(-5.0, 5.0)
            median = _median(x)
            assert type(median) is float and median == float(np.median(x))

    @pytest.mark.parametrize("values", [[math.nan], [1.0, math.nan], [math.nan, 2.0, 1.0],
                                        [3.0, 1.0, 2.0, math.nan], [math.inf, math.nan, 0.0]])
    def test_nan_gives_nan(self, values):
        assert math.isnan(_median(np.array(values))) and math.isnan(np.median(values))


class TestSelectDegree:
    def test_case1_picks_three(self, case1_params):
        panel = make_case1_panel(case1_params, seed=71)
        report = select_degree(panel, range(2, 7))
        assert report.chosen_p == 3
        assert report[3].bic < report[2].bic
        # degree-3 fit dominates the quadratic by a wide margin
        assert report[2].bic - report[3].bic > 100
        assert report[3].dra_median < report[2].dra_median

    def test_single_candidate(self, case1_params):
        panel = make_case1_panel(case1_params, seed=72, d=50, n_points=101)
        report = select_degree(panel, [3])
        assert report.chosen_p == 3

    def test_default_fitter_transforms_once(self, case1_params, transform_calls):
        panel = make_case1_panel(case1_params, seed=74, d=30, n_points=61)
        report = select_degree(panel, range(2, 5))
        assert len(report.per_degree) == 3
        assert transform_calls == [panel]

    def test_warm_panel_equals_a_fresh_copy(self, case1_params):
        panel = make_case1_panel(case1_params, seed=74, d=30, n_points=61)
        transform(panel)

        def chain(pnl):
            report = select_degree(pnl, range(2, 5))
            res = fit(pnl, report.chosen_p)
            return report, res, fisher_info(transform(pnl), res.xi_hat)

        fresh = PathPanel.from_matrix(panel.common_grid(), panel.values_matrix())
        (warm_report, warm_fit, warm_info), (report, res, info) = chain(panel), chain(fresh)
        assert (warm_report.chosen_p, warm_report.failures) == (report.chosen_p, report.failures)
        for a, b in zip(warm_report.per_degree, report.per_degree, strict=True):
            for f in dataclasses.fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
        assert (warm_fit.xi_hat, warm_fit.trace) == (res.xi_hat, res.trace)
        assert np.array_equal(warm_info.matrix, info.matrix)

    def test_sweep_computes_each_moment_once(self, case1_params, moment_calls):
        panel = make_case1_panel(case1_params, seed=74, d=30, n_points=61)
        report = select_degree(panel, range(2, 7))
        assert len(report.per_degree) + len(report.failures) == 5
        assert moment_calls == {"pointwise_mean": 1, "pointwise_geometric_mean": 1,
                                "pointwise_sd": 1}

    def test_default_fitter_equals_public_fit(self, case1_params):
        panel = make_case1_panel(case1_params, seed=75, d=30, n_points=61)
        report = select_degree(panel, [2, 3])
        explicit = select_degree(panel, [2, 3], fitter=lambda pnl, p: fit(pnl, p))
        for a, b in zip(report.per_degree, explicit.per_degree):
            assert list(a.xi_hat.as_vector()) == list(b.xi_hat.as_vector())
            assert (a.loglik, a.bic, a.converged) == (b.loglik, b.bic, b.converged)

    def test_deterministic_given_fitter(self, case1_params):
        panel = make_case1_panel(case1_params, seed=73, d=30, n_points=61)
        r1 = select_degree(panel, range(2, 5))
        r2 = select_degree(panel, range(2, 5))
        assert r1.chosen_p == r2.chosen_p
        for a, b in zip(r1.per_degree, r2.per_degree):
            assert a.bic == b.bic

    def test_parsimony_tie_break(self, case1_params):
        panel = make_case1_panel(case1_params, seed=74, d=30, n_points=61)

        class Dummy:
            def __init__(self, xi):
                self.xi_hat = xi
                self.converged = True

        from mslogistic.fit_nr import fit as nr_fit

        base = nr_fit(panel, 3)

        def fitter(pnl, p):
            # same underlying degree-3 fit padded with a zero coefficient:
            # identical likelihood, so BIC differs only by the penalty and
            # the smaller degree must win the tie-break
            if p == 3:
                return base
            beta = base.xi_hat.poly.beta + (0.0,) * (p - 3)
            return Dummy(ModelParams(base.xi_hat.eta, PolyCoeffs(beta), base.xi_hat.sigma2))

        report = select_degree(panel, [3, 4], fitter=fitter)
        assert report.chosen_p == 3

    def test_empty_range_rejected(self, case1_params):
        panel = make_case1_panel(case1_params, seed=75, d=10, n_points=21)
        with pytest.raises(ValueError):
            select_degree(panel, [])

    def test_repeated_degree_rejected(self, case1_params, transform_calls):
        # as msl's "degrees" list: one degree is fitted once
        panel = make_case1_panel(case1_params, seed=75, d=10, n_points=21)
        with pytest.raises(ValueError, match=r"repeated degree in \[3, 3\]"):
            select_degree(panel, [3, 3])
        assert transform_calls == []

    def test_all_failures_propagate(self, case1_params):
        panel = make_case1_panel(case1_params, seed=76, d=10, n_points=21)

        def bad_fitter(pnl, p):
            raise ValueError("nope")

        from mslogistic.fit_nr import FitError

        with pytest.raises(FitError):
            select_degree(panel, [2, 3], fitter=bad_fitter)

    def test_only_degree_errors_raise_the_first_one(self, case1_params):
        from mslogistic.fit_nr import DegreeError, FitError

        panel = make_case1_panel(case1_params, seed=76, d=10, n_points=21)

        def raising(errors):
            def fitter(pnl, p):
                raise errors[p]
            return fitter

        with pytest.raises(DegreeError, match="^degree 2 is too high$"):
            select_degree(panel, [2, 3], fitter=raising(
                {2: DegreeError("degree 2 is too high"), 3: DegreeError("degree 3 is too high")}))
        with pytest.raises(FitError, match="no degree in") as info:
            select_degree(panel, [2, 3], fitter=raising(
                {2: DegreeError("degree 2 is too high"), 3: ValueError("nope")}))
        assert not isinstance(info.value, DegreeError)

    def test_partial_failures_recorded(self, case1_params):
        panel = make_case1_panel(case1_params, seed=77, d=30, n_points=61)
        from mslogistic.fit_nr import fit as nr_fit

        def flaky(pnl, p):
            if p == 4:
                raise ValueError("synthetic failure")
            return nr_fit(pnl, p)

        report = select_degree(panel, [3, 4], fitter=flaky)
        assert report.chosen_p == 3
        assert report.failures == ((4, "synthetic failure"),)

    def test_loglik_consistency_with_likelihood_module(self, case1_params):
        # AIC/BIC recomputed from the reported loglik match the stored values
        panel = make_case1_panel(case1_params, seed=78, d=30, n_points=61)
        report = select_degree(panel, [3])
        entry = report[3]
        from mslogistic import transform

        n = transform(panel).n
        aic, bic = aic_bic(3, entry.loglik, n)
        assert entry.aic == pytest.approx(aic, rel=1e-14)
        assert entry.bic == pytest.approx(bic, rel=1e-14)


class TestConvergencePolicy:
    """Only converged degrees are ranked; the others are kept and flagged."""

    @staticmethod
    def fitter(unconverged):
        class Result:
            def __init__(self, res, converged):
                self.xi_hat, self.converged = res.xi_hat, converged

        return lambda pnl, p: Result(fit(pnl, p), p not in unconverged)

    def test_unconverged_degree_is_listed_and_never_chosen(self, case1_params):
        panel = make_case1_panel(case1_params, seed=79, d=30, n_points=61)
        report = select_degree(panel, [2, 3, 4], fitter=self.fitter({3}))
        assert [e.p for e in report.per_degree] == [2, 3, 4]
        assert not report[3].converged and report[4].converged
        assert report.failures == ((3, "the degree-3 fit did not converge"),)
        assert report.chosen_p == 4

    def test_no_converged_degree_raises(self, case1_params):
        from mslogistic.fit_nr import FitError

        panel = make_case1_panel(case1_params, seed=79, d=30, n_points=61)
        with pytest.raises(FitError, match="no degree in \\[2, 3\\] gave a converged fit"):
            select_degree(panel, [2, 3], fitter=self.fitter({2, 3}))

    def test_degree_with_non_finite_newton_step_is_listed(self):
        # the degree-7 fit starts where the Jacobian overflows and stops there
        panel = ingest_csv(Path(__file__).parent / "data" / "epidemic_shaped.csv")
        steep = np.array([1e-200, 5.0] + [0.0] * 6)

        def fitter(pnl, p):
            return fit(pnl, p, init=steep) if p == 7 else fit(pnl, p)

        with np.errstate(over="ignore", invalid="ignore"):
            report = select_degree(panel, [3, 7], fitter=fitter)
        assert report.chosen_p == 3
        assert report.failures == ((7, "the degree-7 fit did not converge"),)
