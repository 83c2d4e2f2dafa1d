import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from mslogistic import (Degenerate, ModelParams, PolyCoeffs, SimSpec, carrying_capacity, curve,
                        fpt, integrated_drift, simulate_panel)
from mslogistic.fpt import (
    FptlCurve,
    FptProblem,
    VolterraError,
    _summaries,
    adaptive_steps,
    crossing_time_deterministic,
    fptl,
    fptl_curve,
    solve_density,
)

# a floating-point warning inside the solver fails the test instead of
# reaching msl fpt's stderr
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DATA_DIR = Path(__file__).parent / "data"
# Outcomes of named solve_density calls, written by make_fpt_golden.py:
# Table 4, the fixture's data-driven problem, Table 4 on a seeded
# non-uniform grid and on uniform 2-, 3- and 4-node grids.
FPT_GOLDEN_TEXT = (DATA_DIR / "fpt_golden.json").read_text()
_maker = importlib.util.spec_from_file_location("make_fpt_golden", DATA_DIR / "make_fpt_golden.py")
make_fpt_golden = importlib.util.module_from_spec(_maker)
_maker.loader.exec_module(make_fpt_golden)

EX41 = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=1e-4)
# a line so flat that its crossings lie near the largest double
TINY_SLOPE = ModelParams(0.3679, PolyCoeffs((1e-307,)), 1e-4)


def ex41_problem(t_max=50.0, boundary=15.0):
    return FptProblem(params=EX41, x0=5.0, t0=0.0, boundary=boundary, t_max=t_max)


from conftest import simulate_crossings


class TestFptl:
    def test_vanishes_at_start(self):
        prob = ex41_problem()
        assert fptl(prob, 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_domain_error(self):
        prob = ex41_problem()
        with pytest.raises(ValueError):
            fptl(prob, 0.0)

    def test_limit_matches_lognormal_tail(self):
        # far beyond the rise, the crossing probability approaches the
        # marginal lognormal tail probability at that time
        prob = ex41_problem(t_max=50.0)
        t = 49.5
        mean_log = math.log(5.0) + float(integrated_drift(EX41, 0.0, t))
        sd_log = EX41.sigma * math.sqrt(t)
        want = 1.0 - ndtr((math.log(15.0) - mean_log) / sd_log)
        assert fptl(prob, t) == pytest.approx(want, rel=1e-12)

    def test_recomputed_independently(self):
        # same quantity assembled from the closed-form pieces
        prob = ex41_problem()
        for t in (10.0, 35.0, 40.0, 45.0):
            c = (math.log(15.0 / 5.0) - float(integrated_drift(EX41, 0.0, t))) / (
                0.01 * math.sqrt(t)
            )
            assert fptl(prob, t) == pytest.approx(1.0 - ndtr(c), abs=1e-12)

    def test_single_sharp_rise_near_crossing(self):
        prob = ex41_problem()
        curve = fptl_curve(prob)
        assert len(curve.growth_intervals) == 1
        a, b = curve.growth_intervals[0]
        assert 34.0 < a < 39.5
        assert 42.0 < b < 47.0
        assert np.all(curve.values >= 0) and np.all(curve.values <= 1)


def seeded_case1_problems(n, seed):
    """Problems like case 1: random growth, noise, start, horizon and a boundary below capacity."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(n):
        beta = (rng.uniform(0.02, 0.2), -rng.uniform(0.0, 0.01), rng.uniform(1e-4, 4e-4))
        params = ModelParams(math.exp(rng.uniform(-3.0, 1.0)), PolyCoeffs(beta),
                             10.0 ** rng.uniform(-6.0, -2.0))
        x0 = rng.uniform(1.0, 10.0)
        boundary = x0 + rng.uniform(0.1, 0.95) * (carrying_capacity(params, x0, 0.0) - x0)
        problems.append(FptProblem(params, x0, 0.0, boundary, rng.uniform(50.0, 400.0)))
    return problems


class TestGridInvariance:
    def test_scipy_ndtr_gives_the_same_grid(self, monkeypatch):
        # the location values only place the grid: scipy's bits for them move no node
        problems = [make_fpt_golden.TABLE4, make_fpt_golden.fixture_problem(),
                    *(ex41_problem(210.0, s) for s in np.linspace(5.5, 22.0, 34)),
                    *seeded_case1_problems(300, seed=30)]
        ours = [adaptive_steps(fptl_curve(p)) for p in problems]
        monkeypatch.setattr(fpt, "ndtr", ndtr)
        for p, steps in zip(problems, ours):
            np.testing.assert_array_equal(adaptive_steps(fptl_curve(p)), steps, err_msg=repr(p))


class TestAdaptiveSteps:
    def test_flat_curve_uniform_schedule(self):
        # boundary above the carrying capacity: the location function never rises
        prob = ex41_problem(boundary=30.0)
        curve = fptl_curve(prob)
        assert curve.growth_intervals == ()
        steps = adaptive_steps(curve)
        assert steps[0] == 0.0 and steps[-1] == 50.0
        np.testing.assert_allclose(np.diff(steps), np.diff(steps)[0], rtol=1e-9)

    def test_nodes_concentrate_in_mass_window(self):
        prob = ex41_problem()
        steps = adaptive_steps(fptl_curve(prob))
        frac = np.mean((steps >= 36.0) & (steps <= 46.0))
        assert frac >= 0.75

    def test_window_at_either_end_leaves_no_coarse_span_there(self):
        # fine step 2/400 inside the windows [0, 1] and [9, 10], coarse 20 times that between
        curve = FptlCurve(np.linspace(0.0, 10.0, 11), np.zeros(11), ((0.0, 1.0), (9.0, 10.0)))
        steps = adaptive_steps(curve)
        assert steps[0] == 0.0 and steps[-1] == 10.0 and {1.0, 9.0} <= set(steps.tolist())
        gaps, ends = np.diff(steps), steps[1:]
        np.testing.assert_allclose(gaps[(ends <= 1.0) | (ends > 9.0)], 0.005)
        np.testing.assert_allclose(gaps[(ends > 1.0) & (ends <= 9.0)], 0.1)

    def test_covers_interval_exactly(self):
        prob = ex41_problem()
        steps = adaptive_steps(fptl_curve(prob))
        assert steps[0] == prob.t0
        assert steps[-1] == pytest.approx(prob.t_max, abs=1e-12)
        assert np.all(np.diff(steps) > 0)


class TestSolveDensity:
    def test_example_41_summaries(self):
        # solved over the horizon that reproduces the published summary row;
        # see the decisions ledger for the horizon analysis
        dens = solve_density(ex41_problem(t_max=210.0))
        assert dens.mean == pytest.approx(40.18765, rel=0.005)
        assert dens.std == pytest.approx(1.568392, rel=0.005)
        assert dens.mode == pytest.approx(39.92321, rel=0.005)
        assert dens.deciles[0] == pytest.approx(39.02346, rel=0.005)
        assert dens.deciles[1] == pytest.approx(40.11264, rel=0.005)
        assert dens.deciles[2] == pytest.approx(41.58065, rel=0.005)
        assert not dens.mass_warning
        assert not dens.negative_warning

    def test_density_nonnegative_and_cdf_monotone(self):
        dens = solve_density(ex41_problem())
        assert dens.density.min() > -1e-9
        assert np.all(np.diff(dens.cumulative) >= -1e-12)
        assert dens.cumulative[-1] <= 1.0 + 1e-6

    def test_noisy_regime_against_bridge_corrected_monte_carlo(self):
        # a high-noise configuration where intra-step excursions matter: the
        # oracle uses the exact Brownian-bridge crossing correction
        params = ModelParams(eta=1.0, poly=PolyCoeffs((0.5,)), sigma2=0.09)
        prob = FptProblem(params=params, x0=1.0, t0=0.0, boundary=1.8, t_max=30.0)
        dens = solve_density(prob)
        ct, n_total = simulate_crossings(params, 1.0, 1.8, 30.0, 0.005, 10_000,
                                         seed=5, bridge=True)
        ts = dens.times
        emp = np.searchsorted(np.sort(ct), ts, side="right") / n_total
        assert np.max(np.abs(dens.cumulative - emp)) < 0.02

    def test_monte_carlo_cdf_agreement(self):
        dens = solve_density(ex41_problem(t_max=60.0))
        ct, n_total = simulate_crossings(EX41, 5.0, 15.0, 60.0, 0.01, 4000, seed=11)
        sel = dens.times <= 60.0
        emp = np.searchsorted(np.sort(ct), dens.times[sel], side="right") / n_total
        assert np.max(np.abs(dens.cumulative[sel] - emp)) < 0.02

    def test_small_noise_concentrates_at_deterministic_crossing(self):
        params = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)),
                             sigma2=1e-8)
        prob = FptProblem(params=params, x0=5.0, t0=0.0, boundary=15.0, t_max=50.0)
        dens = solve_density(prob)
        t_star = crossing_time_deterministic(params, 5.0, 0.0, 15.0)
        steps = np.diff(dens.times).max()
        assert abs(dens.mode - t_star) < max(steps, 0.05)

    def test_self_convergence_under_step_halving(self):
        # the midpoint refinement halves every interval of the default grid
        prob = ex41_problem(t_max=60.0)
        steps = adaptive_steps(fptl_curve(prob))
        halved = np.empty(2 * steps.size - 1)
        halved[0::2] = steps
        halved[1::2] = 0.5 * (steps[:-1] + steps[1:])
        coarse = solve_density(prob, steps=steps)
        fine = solve_density(prob, steps=halved)
        assert abs(fine.mean - coarse.mean) / coarse.mean < 1e-3
        assert abs(fine.mode - coarse.mode) / coarse.mode < 1e-3

    @pytest.mark.parametrize("eta, sigma2, x0, boundary, t_max", [
        (1.0, 0.04, 1.0, 1.5, 50.0), (math.exp(-1), 1e-3, 5.0, 6.0, 400.0)])
    @pytest.mark.parametrize("uniform", [False, True], ids=["adaptive", "uniform"])
    def test_linear_boundary_gives_the_inverse_gaussian(self, eta, sigma2, x0, boundary, t_max,
                                                        uniform):
        # Q = 0: the log-scale boundary a + sigma2 t / 2 is linear, so the integral term vanishes
        # and the free term is the inverse-Gaussian density, which anchors the kernel's signs
        prob = FptProblem(ModelParams(eta, PolyCoeffs((0.0,)), sigma2), x0, 0.0, boundary, t_max)
        dens = solve_density(prob, np.linspace(0.0, t_max, 300) if uniform else None)
        a, t = math.log(boundary / x0), dens.times[1:]
        want = a / np.sqrt(2 * math.pi * sigma2 * t**3) * np.exp(-(a + sigma2 * t / 2) ** 2
                                                                 / (2 * sigma2 * t))
        assert dens.density[0] == 0.0
        np.testing.assert_allclose(dens.density[1:], want, rtol=1e-13, atol=0.0)

    def test_horizon_warning(self):
        dens = solve_density(ex41_problem(t_max=40.0))
        assert dens.mass_warning  # only ~half the mass has crossed by t=40

    @pytest.mark.parametrize("steps", [
        [0.0, 50.0, math.nan, 210.0],
        [0.0, 50.0, 100.0, math.inf],
        np.append(np.linspace(0.0, 210.0, 400), math.nan),
        [],
        [[0.0, 50.0, 210.0]],
        [0.0],
    ], ids=["nan", "inf", "nan_appended", "empty", "2d", "one_node"])
    def test_non_finite_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps"):
            solve_density(ex41_problem(t_max=210.0), np.array(steps))

    @pytest.mark.parametrize("nodes", [None, 2, 3, 4])
    def test_no_warning_on_table4_and_tiny_grids(self, nodes):
        prob = ex41_problem(t_max=210.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if nodes is None:
                solve_density(prob)
            else:  # too coarse to capture any mass
                with pytest.raises(VolterraError, match=f"no probability mass captured on the "
                                                        f"{nodes}-node grid up to t_max 210;"):
                    solve_density(prob, np.linspace(0.0, 210.0, nodes))

    def test_invalid_problems_rejected(self):
        with pytest.raises(ValueError):
            FptProblem(params=EX41, x0=5.0, t0=0.0, boundary=5.0, t_max=50.0)
        with pytest.raises(ValueError):
            FptProblem(params=EX41, x0=5.0, t0=10.0, boundary=15.0, t_max=5.0)
        with pytest.raises(ValueError, match="down-crossing"):
            FptProblem(params=EX41, x0=5.0, t0=0.0, boundary=2.0, t_max=50.0)
        noiseless = ModelParams(eta=1.0, poly=PolyCoeffs((0.5,)), sigma2=0.0)
        with pytest.raises(ValueError):
            FptProblem(params=noiseless, x0=5.0, t0=0.0, boundary=15.0, t_max=50.0)

    @pytest.mark.parametrize("field", ["x0", "t0", "boundary", "t_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments_rejected(self, field, value):
        args = {"x0": 5.0, "t0": 0.0, "boundary": 15.0, "t_max": 50.0, field: value}
        with pytest.raises(ValueError, match="need finite x0 > 0, t0, boundary > 0 and t_max"):
            FptProblem(params=EX41, **args)


class TestSummaries:
    """``_summaries`` on densities built by hand."""

    def test_uniform_density(self):
        t = np.linspace(0.0, 10.0, 11)
        dens = _summaries(t, np.full(11, 0.1))
        assert dens.captured_mass == pytest.approx(1.0, rel=1e-15)
        assert dens.mean == pytest.approx(5.0, rel=1e-15)
        assert dens.std == pytest.approx(math.sqrt(33.5 - 25.0), rel=1e-14)  # trapezoid moments
        np.testing.assert_allclose(dens.deciles, (1.0, 5.0, 9.0), rtol=1e-14)
        np.testing.assert_allclose(dens.cumulative, t / 10.0, rtol=1e-15)
        assert not dens.mass_warning and not dens.negative_warning

    def test_mode_at_a_concave_peak_is_the_parabola_vertex(self):
        # vertex of the parabola through (1, 0.1), (2, 0.5), (3, 0.3)
        dens = _summaries(np.arange(5.0), np.array([0.0, 0.1, 0.5, 0.3, 0.0]))
        assert dens.mode == pytest.approx(2.0 + 1.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("g, mode", [([0.6, 0.3, 0.1], 0.0), ([0.1, 0.3, 0.6], 2.0)],
                             ids=["first_node", "last_node"])
    def test_mode_at_an_end_node(self, g, mode):
        assert _summaries(np.arange(3.0), np.array(g)).mode == mode

    @pytest.mark.parametrize("height, warned", [(0.094, True), (0.096, False)])
    def test_mass_warning_below_095(self, height, warned):
        dens = _summaries(np.linspace(0.0, 10.0, 11), np.full(11, height))
        assert dens.captured_mass == pytest.approx(10 * height, rel=1e-14)
        assert dens.mass_warning is warned

    @pytest.mark.parametrize("g", [[0.0, 0.0, 0.0], [0.0, -1.0, 0.0]], ids=["zero", "negative"])
    def test_no_mass_refused(self, g):
        with pytest.raises(VolterraError, match="no probability mass captured on the 3-node grid "
                                                "up to t_max 2; refine the grid"):
            _summaries(np.arange(3.0), np.array(g))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_not_finite_refused(self, bad):
        with pytest.raises(VolterraError, match="the passage density is not finite up to t_max 2: "
                                                "the drift overflows on this horizon"):
            _summaries(np.arange(3.0), np.array([0.0, bad, 0.0]))

    def test_negative_dip_with_negative_variance_refused(self):
        # mass 1.1 at t = 10: second moment 110 below the squared mean 121
        g = np.array([0.0, -0.01, 1.1, 0.0, 0.0])
        with pytest.raises(VolterraError, match="negative variance -11 of the passage density on "
                                                "the 5-node grid: the grid is too coarse"):
            _summaries(np.array([0.0, 9.0, 10.0, 11.0, 12.0]), g)

    def test_narrow_density_with_mass_above_one_reads_zero_std(self):
        # a triangle of half-width 0.05 at t = 20 with mass 1 + 1e-5: its centered variance
        # 0.05^2 / 6 is below the mass term (M - 1) M 20^2, so second - mean^2 < 0 and, with
        # no negative node, std is clipped to 0.0 (the unnormalised-moment formula as it stands)
        mass = 1.0 + 1e-5
        t = np.array([0.0, 19.9, 19.95, 20.0, 20.05, 20.1])
        dens = _summaries(t, np.array([0.0, 0.0, 0.0, mass / 0.05, 0.0, 0.0]))
        assert dens.captured_mass == pytest.approx(mass, rel=1e-14)
        assert dens.mean == pytest.approx(20.0 * mass, rel=1e-14)
        assert 0.05**2 / 6 < (mass - 1) * mass * 20.0**2
        assert dens.std == 0.0 and not dens.negative_warning


class TestGolden:
    def test_matches_recorded_densities_bit_for_bit(self):
        # compares SHA-256s of the arrays and the repr text of every summary
        assert make_fpt_golden.dumps(
            {name: make_fpt_golden.record(name) for name in make_fpt_golden.NAMES}
        ) + "\n" == FPT_GOLDEN_TEXT


class TestDeterministicCrossing:
    def test_boundary_above_carrying_capacity(self):
        assert crossing_time_deterministic(EX41, 5.0, 0.0, 20.0) is None
        assert carrying_capacity(EX41, 5.0, 0.0) < 20.0

    @pytest.mark.parametrize("l0, t0, boundary", [
        (5.0, 0.0, math.nan), (5.0, 0.0, 0.0), (5.0, 0.0, -1.0),
        (math.nan, 0.0, 15.0), (0.0, 0.0, 15.0), (-1.0, 0.0, 15.0), (math.inf, 0.0, 15.0),
        (5.0, math.nan, 15.0), (5.0, math.inf, 15.0),
    ])
    def test_invalid_arguments_rejected(self, l0, t0, boundary):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need finite l0 > 0"):
                crossing_time_deterministic(EX41, l0, t0, boundary)

    @pytest.mark.parametrize("beta", [(0.1, -0.009, 0.0002), (0.1, -0.009)])
    def test_infinite_boundary_never_reached(self, beta):
        params = ModelParams(eta=math.exp(-1), poly=PolyCoeffs(beta), sigma2=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert crossing_time_deterministic(params, 5.0, 0.0, math.inf) is None

    def test_boundary_at_start(self):
        assert crossing_time_deterministic(EX41, 5.0, 0.0, 5.0) == 0.0

    def test_example_crossing_location(self):
        t_star = crossing_time_deterministic(EX41, 5.0, 0.0, 15.0)
        assert t_star == pytest.approx(40.086, abs=0.01)
        assert float(curve(EX41, 5.0, 0.0, t_star)) == pytest.approx(15.0, rel=1e-9)

    def test_smallest_crossing_returned(self):
        # non-monotone curve: the first passage through the dip level is
        # before the local maximum
        params = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)))
        grid = np.linspace(0.0, 50.0, 5001)
        vals = np.asarray(curve(params, 5.0, 0.0, grid))
        peak = int(np.argmax(vals[:2000]))
        level = vals[peak] * 0.98
        t_first = crossing_time_deterministic(params, 5.0, 0.0, level)
        assert t_first < grid[peak]

    @pytest.mark.parametrize("boundary", np.linspace(5.5, 22.0, 34))
    def test_first_time_at_the_boundary(self, boundary):
        # the curve meets the boundary at t*, stays below it before, and None means never
        grid = np.linspace(0.0, 200.0, 200_001)
        vals = np.asarray(curve(EX41, 5.0, 0.0, grid))
        t_star = crossing_time_deterministic(EX41, 5.0, 0.0, boundary)
        if t_star is None:
            assert vals.max() < boundary
        else:
            assert float(curve(EX41, 5.0, 0.0, t_star)) == pytest.approx(boundary, rel=1e-13)
            assert np.all(vals[grid < t_star] < boundary)

    def test_boundary_touching_a_peak(self):
        # S is the curve's peak near t = 7.36 to the last bits: np.roots splits the double
        # root of Q - c into a complex pair; the curve reaches S there, and just above S it
        # does not, so the next crossing counts
        peak = 6.285689089004772
        assert crossing_time_deterministic(EX41, 5.0, 0.0, peak) == pytest.approx(7.362374, abs=1e-5)
        assert crossing_time_deterministic(EX41, 5.0, 0.0, peak * (1 + 1e-15)) == 30.27525231651947

    def test_decreasing_curve_reaches_only_what_it_rises_to(self):
        # a negative leading coefficient: the curve rises to a peak near t = 10, then falls to 0
        params = ModelParams(math.exp(-1), PolyCoeffs((0.2, -0.01)))
        peak = float(curve(params, 5.0, 0.0, 10.0))
        assert crossing_time_deterministic(params, 5.0, 0.0, 1.0001 * peak) is None
        t_star = crossing_time_deterministic(params, 5.0, 0.0, 0.999 * peak)
        assert 0.0 < t_star < 10.0
        assert float(curve(params, 5.0, 0.0, t_star)) == pytest.approx(0.999 * peak, rel=1e-13)


class TestErrorContract:
    """Arguments at or past the floating-point range: a named error or a result, no warning."""

    @pytest.mark.parametrize("call, outcome", [
        (lambda: FptProblem(params=EX41, x0=5.0, t0=0.0, boundary=15.0, t_max=math.inf),
         ValueError),
        (lambda: FptProblem(params=EX41, x0=5.0, t0=0.0, boundary=math.inf, t_max=50.0),
         ValueError),
        (lambda: solve_density(ex41_problem(t_max=1e300)), VolterraError),
        (lambda: crossing_time_deterministic(EX41, 5.0, 1e200, 15.0), None),
        (lambda: simulate_panel(SimSpec(params=EX41, init=Degenerate(5.0),
                                        grid=np.array([0.0, 1e300]), d=2, seed=1)),
         FloatingPointError),
        # the log gap at t0 is inf, so the curve would take inf - inf
        (lambda: crossing_time_deterministic(
            ModelParams(0.3679, PolyCoeffs((0.1, -0.009)), 1e-4), 5.0, 1e300, 1e6), None),
        # Q = 1e-307 t reaches c near 1.4093e308, within the double range
        (lambda: float(curve(TINY_SLOPE, 5.0, 1e307,
                             crossing_time_deterministic(TINY_SLOPE, 5.0, 1e307, 9.9997))),
         pytest.approx(9.9997, rel=1e-12)),
        # below the capacity 9.99972059..., but the root of Q - c is past the double range
        (lambda: crossing_time_deterministic(TINY_SLOPE, 5.0, 1e307, 9.9997205), None),
    ], ids=["fpt_infinite_t_max", "fpt_infinite_boundary", "density_overflowing_horizon",
            "crossing_overflowing_start", "simulate_overflowing_grid",
            "crossing_infinite_gap_at_start", "crossing_overflowing_horizon",
            "crossing_root_past_the_range"])
    def test_no_warning_on_the_way(self, call, outcome):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(outcome, type):
                with pytest.raises(outcome):
                    call()
            else:
                assert call() == outcome

    def test_crossing_near_the_largest_double(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = crossing_time_deterministic(TINY_SLOPE, 5.0, 1e307, 9.999)
        assert 1e308 < t < 1.1e308
        assert float(curve(TINY_SLOPE, 5.0, 1e307, t)) == pytest.approx(9.999, rel=1e-12)
