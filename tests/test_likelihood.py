import dataclasses
import gc
import hashlib
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from mslogistic import (
    Degenerate,
    LognormalStart,
    ModelParams,
    PathPanel,
    PolyCoeffs,
    SamplePath,
    SimSpec,
    compute_stats,
    fit_initial,
    grad_loglik,
    integrated_drift,
    loglik,
    simulate_panel,
    transform,
)
from mslogistic.asymptotics import fisher_info
from mslogistic.cli import ingest_csv
from mslogistic.likelihood import _neg_core_loglik, _Workspace, core_loglik, neg_core_loglik
from mslogistic.model import log_saturation_gap

from conftest import make_case1_panel, mean_gradient, path_transitions, per_path_transform

CASE1 = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=1e-4)


def random_panel(rng, d=3, n_max=10, t_max=5.0, ragged=True):
    """``d`` random paths from t = 0: each on its own times if ``ragged``, else all on path 0's."""
    paths = []
    for i in range(d):
        if ragged or i == 0:
            n = int(rng.integers(3, n_max + 1))
            t = np.concatenate(([0.0], np.sort(rng.uniform(0.3, t_max, size=n - 1))))
            while np.any(np.diff(t) < 1e-3):
                t = np.concatenate(([0.0], np.sort(rng.uniform(0.3, t_max, size=n - 1))))
        x = np.exp(rng.normal(0.5, 0.4, size=t.size).cumsum() * 0.2 + 1.0)
        paths.append(SamplePath(t, x))
    return PathPanel(tuple(paths))


def random_params(rng, p):
    beta = rng.normal(0.0, 0.3, size=p)
    beta[-1] = abs(beta[-1]) + 0.05
    return ModelParams(eta=float(rng.uniform(0.1, 2.0)), poly=PolyCoeffs(tuple(beta)),
                       sigma2=float(rng.uniform(1e-3, 0.3)))


class TestTransform:
    def test_constant_path_gives_zero_increments(self):
        panel = PathPanel.from_matrix([0.0, 1.0, 2.0], [[4.0, 4.0, 4.0]])
        v = transform(panel)
        np.testing.assert_array_equal(v.g_sum_v, [0.0, 0.0])
        np.testing.assert_array_equal(v.g_sum_v2, [0.0, 0.0])

    def test_unit_step_log_ratio(self):
        panel = PathPanel.from_matrix([0.0, 1.0], [[1.0, math.e]])
        v = transform(panel)
        assert v.g_sum_v[0] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("ragged", [False, True])
    def test_groups_match_transitions(self, ragged):
        panel = random_panel(np.random.default_rng(0), d=4, ragged=ragged)
        assert (panel.common_grid() is None) == ragged
        vdata = transform(panel)
        groups = {}
        for v, dt, t_a, t_b in path_transitions(panel):
            for key, vk in zip(zip(t_a, t_b), v):
                groups.setdefault(key, []).append(vk)
        got = {(vdata.times[lo], vdata.times[hi]): k
               for k, (lo, hi) in enumerate(zip(vdata.g_lo, vdata.g_hi))}
        assert sorted(got) == sorted(groups)
        for key, k in got.items():
            vs = np.array(groups[key])
            assert vdata.g_count[k] == vs.size
            assert vdata.g_delta[k] == pytest.approx(key[1] - key[0], rel=1e-14)
            assert vdata.g_sum_v[k] == pytest.approx(vs.sum(), rel=1e-13, abs=1e-15)
            assert vdata.g_sum_v2[k] == pytest.approx((vs * vs).sum(), rel=1e-13)

    def test_transition_count(self):
        rng = np.random.default_rng(1)
        panel = random_panel(rng, d=5)
        v = transform(panel)
        assert type(v.n) is int and v.n == sum(len(p) - 1 for p in panel.paths)

    def test_no_per_transition_arrays(self, case1_params):
        d, n_points = 200, 501
        panel = make_case1_panel(case1_params, seed=3, d=d, n_points=n_points)
        grid_vdata, path_vdata = transform(panel), per_path_transform(panel)
        assert grid_vdata is not path_vdata
        for vdata in (grid_vdata, path_vdata):
            assert type(vdata.n) is int and vdata.n == d * (n_points - 1)
            for f in dataclasses.fields(vdata):
                value = getattr(vdata, f.name)
                if isinstance(value, np.ndarray):
                    assert value.size <= max(d, n_points), f.name

    def test_time_shift_recorded(self):
        panel = PathPanel.from_matrix([2.0, 3.0, 4.5], [[1.0, 2.0, 3.0]])
        v = transform(panel)
        assert v.t0 == 2.0
        np.testing.assert_allclose(v.times, [0.0, 1.0, 2.5])

    @pytest.mark.parametrize("from_paths", [False, True])
    def test_repeat_returns_the_kept_read_only_data(self, transform_calls, from_paths):
        panel = make_case1_panel(CASE1, seed=5, d=6, n_points=21)
        if from_paths:
            panel = PathPanel(tuple(SamplePath(p.times.copy(), p.values.copy())
                                    for p in panel.paths))
        vdata = transform(panel)
        assert transform(panel) is vdata
        assert transform_calls == [panel]
        for f in dataclasses.fields(vdata):
            value = getattr(vdata, f.name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, f.name

    def test_ragged_panel_prepared_once(self, transform_calls):
        panel = random_panel(np.random.default_rng(7), d=4)
        assert panel.common_grid() is None
        assert transform(panel) is transform(panel)
        assert transform_calls == [panel]

    @pytest.mark.parametrize("ragged", [False, True])
    def test_kept_data_does_not_keep_the_panel_alive(self, ragged):
        if ragged:
            panel = random_panel(np.random.default_rng(8), d=3)
        else:
            panel = make_case1_panel(CASE1, seed=8, d=3, n_points=11)
        vdata = weakref.ref(transform(panel))
        owner = weakref.ref(panel)
        del panel
        gc.collect()
        assert owner() is None and vdata() is None


def assert_same_vdata(a, b):
    """Every field equal with ``==``, arrays also in dtype and shape."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


class TestGridTransform:
    """``transform`` against the per-path reference, field for field."""

    @pytest.mark.parametrize("seed, d, n, lognormal", [
        (0, 200, 101, False), (1, 50, 501, True), (2, 1, 51, False),
        (3, 7, 2, True), (4, 1, 2, False), (5, 13, 17, True),
    ])
    def test_equals_per_path_transform(self, seed, d, n, lognormal):
        rng = np.random.default_rng(seed)
        grid = 3.0 + np.cumsum(rng.uniform(0.05, 1.0, size=n))
        init = LognormalStart(1.5, 0.04) if lognormal else Degenerate(5.0)
        panel = simulate_panel(SimSpec(params=CASE1, init=init, grid=grid, d=d, seed=seed))
        assert panel.common_grid() is not None
        fast, slow = transform(panel), per_path_transform(panel)
        assert fast is not slow
        assert_same_vdata(fast, slow)

    def test_panel_of_paths_on_one_grid_takes_grid_path(self):
        rng = np.random.default_rng(6)
        t = np.array([0.5, 1.0, 2.5, 4.0])
        panel = PathPanel(tuple(SamplePath(t.copy(), np.exp(rng.normal(size=4)))
                                for _ in range(3)))
        np.testing.assert_array_equal(panel.common_grid(), t)
        fast, slow = transform(panel), per_path_transform(panel)
        assert fast is not slow
        assert_same_vdata(fast, slow)

    def test_ragged_panels_equal_per_path_transform(self):
        # integer times, so groups mix transitions of several paths
        rng = np.random.default_rng(11)
        for _ in range(20):
            paths = []
            for _ in range(int(rng.integers(2, 13))):
                t = np.unique(np.concatenate(([0], rng.integers(1, 8, size=5)))).astype(float)
                paths.append(SamplePath(t, np.exp(rng.normal(0.0, 2.0, size=t.size))))
            panel = PathPanel(tuple(paths))
            assert panel.common_grid() is None
            assert_same_vdata(transform(panel), per_path_transform(panel))

    def test_groups_are_columns(self):
        panel = PathPanel.from_matrix([0.0, 1.0, 3.0], [[1.0, 2.0, 4.0], [1.0, 4.0, 4.0]])
        v = transform(panel)
        np.testing.assert_array_equal(v.g_lo, [0, 1])
        np.testing.assert_array_equal(v.g_hi, [1, 2])
        np.testing.assert_array_equal(v.g_count, [2.0, 2.0])
        np.testing.assert_allclose(v.g_sum_v, [math.log(2.0) + math.log(4.0),
                                               math.log(2.0) / math.sqrt(2.0)], rtol=1e-15)


class TestFitInitial:
    def test_unit_first_values(self):
        panel = PathPanel.from_matrix([0.0, 1.0], [[1.0, 2.0], [1.0, 3.0], [1.0, 1.5]])
        fit = fit_initial(transform(panel))
        assert fit.mu1 == 0.0
        assert fit.sigma1sq == 0.0

    def test_hand_value(self):
        panel = PathPanel.from_matrix([0.0, 1.0], [[math.e, 3.0], [math.e**3, 3.0]])
        fit = fit_initial(transform(panel))
        assert fit.mu1 == pytest.approx(2.0, rel=1e-14)
        assert fit.sigma1sq == pytest.approx(1.0, rel=1e-14)

    def test_single_path_zero_variance(self):
        panel = PathPanel.from_matrix([0.0, 1.0], [[5.0, 6.0]])
        fit = fit_initial(transform(panel))
        assert fit.mu1 == pytest.approx(math.log(5.0), rel=1e-15)
        assert fit.sigma1sq == 0.0


class TestTransitionLogMean:
    """``integrated_drift`` is the mean of ``log(X(t_b)/X(t_a))`` given the past."""

    def test_short_interval_vanishes(self):
        assert integrated_drift(CASE1, 2.0, 2.0 + 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_sigma_free_log_ratio(self):
        from mslogistic import curve

        p = ModelParams(eta=CASE1.eta, poly=CASE1.poly, sigma2=0.0)
        got = integrated_drift(p, 1.0, 7.0)
        assert got == pytest.approx(math.log(curve(p, 1.0, 1.0, 7.0)), rel=1e-12)

    def test_matches_simulated_increments(self):
        params = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=0.05**2)
        panel = simulate_panel(SimSpec(params=params, init=Degenerate(5.0),
                                       grid=np.array([0.0, 20.0]), d=100_000, seed=13))
        incr = np.log(panel.values_matrix()[:, 1] / 5.0)
        se = math.sqrt(params.sigma2 * 20.0 / incr.size)
        assert abs(incr.mean() - integrated_drift(params, 0.0, 20.0)) < 4 * se


class TestComputeStats:
    def test_z3_is_total_elapsed_time(self):
        panel = PathPanel.from_matrix(np.linspace(0.0, 50.0, 11), np.full((4, 11), 2.0))
        stats = compute_stats(transform(panel), CASE1)
        assert stats.z3 == pytest.approx(50.0 * 4)

    def test_zero_lambda_single_transition(self):
        # Q(t) = t^2 - 3t takes the same value at t=1 and t=2, so lambda = 0
        params = ModelParams(eta=1.0, poly=PolyCoeffs((-3.0, 1.0)), sigma2=0.01)
        panel = PathPanel.from_matrix([1.0, 2.0], [[2.0, 3.0]])
        vdata = transform(panel)
        # the panel clock shifts t0 to zero; undo it for this identity to hold
        object.__setattr__(vdata, "times", vdata.times + 1.0)
        stats = compute_stats(vdata, params)
        assert stats.a == pytest.approx(0.0, abs=1e-14)
        assert stats.b == pytest.approx(0.0, abs=1e-14)
        assert stats.c == pytest.approx(0.0, abs=1e-14)

    def test_sum_of_squares_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            panel = random_panel(rng)
            params = random_params(rng, p=int(rng.integers(1, 4)))
            stats = compute_stats(transform(panel), params)
            direct = 0.0
            for v, dt, t_a, t_b in path_transitions(panel):
                lam = log_saturation_gap(params, t_a) - log_saturation_gap(params, t_b)
                direct += np.sum((v - lam / np.sqrt(dt)) ** 2)
            lhs = stats.z1 + stats.a - 2 * stats.b
            assert lhs == pytest.approx(direct, abs=1e-12 * max(1.0, direct))
            assert lhs >= -1e-12

    def test_telescoping_identity(self):
        rng = np.random.default_rng(4)
        panel = random_panel(rng, d=4)
        params = random_params(rng, p=3)
        stats = compute_stats(transform(panel), params)
        signs = np.array([1.0] + [-1.0] * params.degree)
        # per-transition double sum, and per path the one step (first, last)
        double_sum = np.zeros(params.degree + 1)
        tele = np.zeros(params.degree + 1)
        for _, _, t_a, t_b in path_transitions(panel):
            double_sum += signs * mean_gradient(params, t_a, t_b).sum(axis=1)
            tele += signs * mean_gradient(params, t_a[0], t_b[-1])
        np.testing.assert_allclose(stats.w, double_sum, atol=1e-12)
        np.testing.assert_allclose(stats.w, tele, atol=1e-12)

    def test_path_reordering_invariance(self):
        rng = np.random.default_rng(5)
        panel = random_panel(rng, d=5)
        params = random_params(rng, p=2)
        s1 = compute_stats(transform(panel), params)
        shuffled = PathPanel(tuple(panel.paths[i] for i in [3, 0, 4, 1, 2]))
        s2 = compute_stats(transform(shuffled), params)
        for field in ("z1", "z2", "z3", "a", "b", "c"):
            assert getattr(s1, field) == pytest.approx(getattr(s2, field), rel=1e-14)
        np.testing.assert_allclose(s1.w, s2.w, rtol=1e-14)
        np.testing.assert_allclose(s1.x, s2.x, rtol=1e-14)
        np.testing.assert_allclose(s1.y, s2.y, rtol=1e-14)

    # first 16 hex digits of the SHA-256 of each value's float64 bytes; the
    # fixture and case-1 entries were recorded before compute_stats gained the
    # shape derivatives dw, dx and dy, the ragged and two-time-grid entries
    # while common-grid and ragged panels had separate transforms
    RECORDED_BITS = {
        "fixture": {
            "z1": "2abaec6f70fb2875", "z2": "d0db495b2d431e59", "z3": "139107fd63d004e9",
            "a": "0c48ee0aaf12e1e4", "b": "c79ff540269a5478", "c": "455fa925a861cb34",
            "w": "0d5c4450680e6f9c", "x": "15e60892abfd2991", "y": "f25725da50cf45d4",
            "d_g": "3fb218f9c9a573ca", "n": "139107fd63d004e9", "p": "161f4c0b1a18a050",
            "fisher_info": "cfde987b09fb7139", "grad_loglik": "fdb423ce98a0f4e5",
            "core_loglik": "35448c95a74075de"},
        "case1": {
            "z1": "0de25a3380838f6d", "z2": "ed0e3de8ed48d5e4", "z3": "64fa92a0745fda69",
            "a": "dbe8b70223a67928", "b": "12a8cdfa9b02d41f", "c": "900c5188496bf59f",
            "w": "760e518eda65785b", "x": "b9a62b21deda9d73", "y": "f27b4d3b6e7c2b66",
            "d_g": "02a96e41dd2d60c0", "n": "c5336095765c5bcb", "p": "161f4c0b1a18a050",
            "fisher_info": "50b22ec129190788", "grad_loglik": "9ec32742f6887274",
            "core_loglik": "88f4418adab959a7"},
        "ragged": {
            "z1": "24bca50ce123e357", "z2": "203d4d05cc4d84e8", "z3": "9ad3a859d23699cf",
            "a": "8c6c204ec42d8658", "b": "5f8073fd55b29a22", "c": "5b2d323f940aa14c",
            "w": "f70318f7140cea04", "x": "fc6d88e81943e9c1", "y": "588a15543229aee6",
            "d_g": "9c515a12e5fc1c67", "n": "7957aba2f15f5d55", "p": "161f4c0b1a18a050",
            "fisher_info": "d03039816117bed8", "grad_loglik": "8eebe352bb02a369",
            "core_loglik": "d2c8371358dd53bb"},
        "two_time_grid": {
            "z1": "014112a365e894d1", "z2": "0b36c1bd5ddf4a43", "z3": "139107fd63d004e9",
            "a": "1f3aba56950d96fa", "b": "c18a934ce089d2e9", "c": "f0b24b9a452fd7ea",
            "w": "80c1ec7e8f025d65", "x": "d6a1e502bad7de96", "y": "9fd71f8b7d533ef9",
            "d_g": "94eb7aedf4cf62a4", "n": "139107fd63d004e9", "p": "161f4c0b1a18a050",
            "fisher_info": "c6c3572e696f8c0a", "grad_loglik": "1750a418e87de79f",
            "core_loglik": "ec34f0febfd3afeb"},
    }

    @pytest.mark.parametrize("source", ["fixture", "case1", "ragged", "two_time_grid"])
    def test_fields_keep_their_recorded_bits(self, source):
        xi = ModelParams(0.37, PolyCoeffs((0.1, -0.009, 0.0002)), 1e-4)
        if source == "fixture":
            panel = ingest_csv(Path(__file__).parent / "data" / "epidemic_shaped.csv")
            xi = ModelParams(0.0321, PolyCoeffs((0.0486, -0.000474, 1.3e-6)), 2.5e-3)
        elif source == "case1":
            panel = simulate_panel(SimSpec(params=CASE1, init=Degenerate(5.0),
                                           grid=np.linspace(0.0, 50.0, 201), d=40, seed=0))
        elif source == "ragged":
            panel = random_panel(np.random.default_rng(24), d=5, ragged=True)
            assert panel.common_grid() is None
        else:
            # one column of 1000 transitions, which numpy sums pairwise
            values = np.exp(np.random.default_rng(1).normal(0.0, 3.0, (1000, 2)))
            panel = PathPanel.from_matrix([0.0, 1.0], values)
        vdata = transform(panel)
        stats = compute_stats(vdata, xi)
        values = {name: getattr(stats, name) for name in self.RECORDED_BITS[source]
                  if hasattr(stats, name)}
        values.update(fisher_info=fisher_info(vdata, xi).matrix, grad_loglik=grad_loglik(vdata, xi),
                      core_loglik=core_loglik(stats, xi.sigma2))
        bits = {name: hashlib.sha256(np.asarray(v, dtype=float).tobytes()).hexdigest()[:16]
                for name, v in values.items()}
        assert bits == self.RECORDED_BITS[source]


class TestDerivativeAggregates:
    def test_shape_derivatives_match_central_differences(self):
        """``dw``, ``dx`` and ``dy`` against central differences of ``w``, ``x`` and ``y``."""
        rng = np.random.default_rng(12)
        for _ in range(8):
            vdata = transform(random_panel(rng, d=3))
            # beta_l of order 5^-l keeps Q(t) of order 1 up to t = 5: a saturated
            # curve leaves w, x, y at rounding level, below what differences resolve
            p = int(rng.integers(1, 5))
            theta = np.concatenate(([rng.uniform(0.1, 2.0)],
                                    rng.normal(0.0, 1.0, p) / 5.0 ** np.arange(1, p + 1)))
            stats = compute_stats(vdata, ModelParams.from_vector(np.append(theta, 0.0)))
            for k in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[k] += 1e-7 * abs(theta[k])
                down[k] -= 1e-7 * abs(theta[k])
                s_up, s_down = (compute_stats(vdata, ModelParams.from_vector(np.append(th, 0.0)))
                                for th in (up, down))
                for name in ("w", "x", "y"):
                    fd = (getattr(s_up, name) - getattr(s_down, name)) / (up[k] - down[k])
                    got = getattr(stats, "d" + name)[:, k]
                    # column-relative, and entry-wise for the eta-beta entries,
                    # whose two signs differ
                    scale = np.max(np.abs(fd))
                    assert np.max(np.abs(got - fd)) <= 1e-5 * scale
                    rows = range(1, theta.size) if k == 0 else [0]
                    for l in rows:
                        assert got[l] == pytest.approx(fd[l], rel=1e-4, abs=1e-8 * scale)

    def test_signs_against_symbolic_differentiation(self):
        """The telescoping difference equals +dm/deta for l=0 and -dm/dbeta_l else."""
        eta_s, b1_s, b2_s, s2_s = sp.symbols("eta b1 b2 s2", positive=True)
        ta, tb = sp.Rational(1, 2), sp.Rational(7, 4)
        q = lambda t: b1_s * t + b2_s * t**2
        lam_s = sp.log((eta_s + sp.exp(-q(ta))) / (eta_s + sp.exp(-q(tb))))
        m_s = lam_s - s2_s / 2 * (tb - ta)

        point = {eta_s: sp.Float(0.7), b1_s: sp.Float(0.3), b2_s: sp.Float(0.05), s2_s: sp.Float(0.02)}
        params = ModelParams(eta=0.7, poly=PolyCoeffs((0.3, 0.05)), sigma2=0.02)
        panel = PathPanel.from_matrix([float(ta), float(tb)], [[2.0, 2.5]])
        vdata = transform(panel)
        object.__setattr__(vdata, "times", vdata.times + float(ta))
        stats = compute_stats(vdata, params)
        assert stats.d_g.shape == (3, 1)

        for l, sym in enumerate((eta_s, b1_s, b2_s)):
            dm = float(sp.diff(m_s, sym).subs(point))
            sign = 1.0 if l == 0 else -1.0
            assert sign * stats.d_g[l, 0] == pytest.approx(dm, rel=1e-12)

    def test_lambda_matches_symbolic(self):
        eta, b1 = 0.9, 0.4
        params = ModelParams(eta=eta, poly=PolyCoeffs((b1,)), sigma2=0.0)
        panel = PathPanel.from_matrix([0.0, 2.0], [[1.0, 1.2]])
        stats = compute_stats(transform(panel), params)
        want = math.log((eta + 1.0) / (eta + math.exp(-b1 * 2.0)))
        # one transition: c = sum lam is its lambda
        assert stats.c == pytest.approx(want, rel=1e-14)


class TestLoglik:
    def test_perfect_fit_quadratic_form_vanishes(self):
        # build a noiseless panel so v = m/sqrt(dt) exactly
        params = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=1e-4)
        grid = np.linspace(0.0, 50.0, 51)
        m = np.diff(integrated_drift(params, 0.0, grid))
        values = 5.0 * np.exp(np.concatenate(([0.0], np.cumsum(m))))
        panel = PathPanel.from_matrix(grid, values[None, :])
        stats = compute_stats(transform(panel), params)
        from mslogistic.likelihood import _quad_form

        assert _quad_form(stats, stats.a, stats.b, stats.c, params.sigma2) == pytest.approx(
            0.0, abs=1e-12)

    def test_alpha_xi_separability(self):
        rng = np.random.default_rng(6)
        panel = random_panel(rng, d=4)
        vdata = transform(panel)
        xi1 = random_params(rng, 2)
        xi2 = random_params(rng, 2)
        a1 = LognormalStart(0.2, 0.5)
        a2 = LognormalStart(-0.1, 1.5)
        d1 = loglik(vdata, a1, xi1) - loglik(vdata, a2, xi1)
        d2 = loglik(vdata, a1, xi2) - loglik(vdata, a2, xi2)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_degenerate_initial_drops_alpha_terms(self):
        panel = PathPanel.from_matrix([0.0, 1.0, 2.0], [[5.0, 5.5, 6.0], [5.0, 5.2, 5.9]])
        vdata = transform(panel)
        xi = random_params(np.random.default_rng(7), 2)
        stats = compute_stats(vdata, xi)
        expected = core_loglik(stats, xi.sigma2) - 0.5 * stats.n * math.log(2 * math.pi)
        assert loglik(vdata, None, xi) == expected

    def test_rejects_nonpositive_sigma2(self):
        panel = PathPanel.from_matrix([0.0, 1.0], [[1.0, 2.0]])
        vdata = transform(panel)
        with pytest.raises(ValueError):
            core_loglik(compute_stats(vdata, CASE1), 0.0)


class TestNegCoreLoglik:
    """The batched value kernel against the scalar path, bit for bit."""

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_rows_equal_scalar_path(self, k):
        rng = np.random.default_rng(100 + k)
        for trial in range(4):
            vdata = transform(random_panel(rng, d=int(rng.integers(1, 5)), ragged=trial % 2 == 1))
            p = int(rng.integers(1, 5))
            params = [random_params(rng, p) for _ in range(k)]
            rows = np.array([prm.as_vector() for prm in params])
            want = [-core_loglik(compute_stats(vdata, prm), prm.sigma2) for prm in params]
            wide = np.zeros((2 * k, p + 4))
            wide[::2, 1:-1] = rows
            for view in (rows, np.asfortranarray(rows), wide[::2, 1:-1]):
                assert neg_core_loglik(vdata, view).tolist() == want

    @pytest.mark.parametrize("source", ["fixture", "ragged"])
    def test_reused_workspace_as_rows_leave(self, source):
        # one workspace for 10, 9, ..., 1 rows, as annealing uses it while
        # replications stop: no row may read what an earlier call left behind
        rng = np.random.default_rng(31)
        if source == "fixture":
            panel = ingest_csv(Path(__file__).parent / "data" / "epidemic_shaped.csv")
        else:
            panel = random_panel(rng, d=4, ragged=True)
        vdata = transform(panel)
        ws = _Workspace(vdata, 10)
        for k in range(10, 0, -1):
            params = [random_params(rng, 3) for _ in range(k)]
            rows = np.array([prm.as_vector() for prm in params])
            want = [-core_loglik(compute_stats(vdata, prm), prm.sigma2) for prm in params]
            assert _neg_core_loglik(ws, rows).tolist() == want
            assert neg_core_loglik(vdata, rows).tolist() == want

    @pytest.mark.parametrize("col, bad", [(0, 0.0), (0, -1.0), (1, math.inf), (2, math.nan),
                                          (-1, 0.0), (-1, -1e-3)])
    def test_invalid_row_rejected(self, col, bad):
        vdata = transform(random_panel(np.random.default_rng(9), d=2))
        rows = np.array([CASE1.as_vector()] * 3)
        rows[1, col] = bad
        with pytest.raises(ValueError):
            neg_core_loglik(vdata, rows)


class TestGradient:
    @staticmethod
    def fd_gradient(vdata, xi, rel_step=5e-6):
        from mslogistic.likelihood import compute_stats as cs

        def f(vec):
            p = ModelParams(eta=vec[0], poly=PolyCoeffs(tuple(vec[1:-1])), sigma2=vec[-1])
            return core_loglik(cs(vdata, p), p.sigma2)

        x = xi.as_vector()
        g = np.empty_like(x)
        for k in range(x.size):
            h = rel_step * max(abs(x[k]), 1e-3)
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            g[k] = (f(xp) - f(xm)) / (2 * h)
        return g

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(25):
            panel = random_panel(rng, d=int(rng.integers(1, 4)))
            xi = random_params(rng, p=int(rng.integers(1, 5)))
            vdata = transform(panel)
            g = grad_loglik(vdata, xi)
            fd = self.fd_gradient(vdata, xi)
            scale = np.maximum(np.abs(g), 1e-6 * np.max(np.abs(g)) + 1e-12)
            worst = max(worst, float(np.max(np.abs(g - fd) / scale)))
        assert worst < 1e-6
