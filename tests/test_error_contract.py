"""The library's error contract as a property.

Whatever the arguments, each public entry point returns, or raises one of the
named errors below, and warns of nothing on the way (a ``RuntimeWarning``
from numpy counts as a failure).  Arguments are drawn from two pools: floats
anywhere in the double range, non-finite ones included, and values near the
paper's examples, so that the calls also run past their argument checks.
"""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslogistic import (Degenerate, LognormalStart, ModelParams, PathPanel, PolyCoeffs, SimSpec,
                        carrying_capacity, curve, drift_rate, inflection_points, integrated_drift,
                        percentile, process_mean, simulate_panel, transform)
from mslogistic.asymptotics import SingularInformationError, confidence_intervals, fisher_info
from mslogistic.fit_nr import DegreeError, FitError, fit
from mslogistic.fit_sa import ParamBox, SaSchedule, anneal, build_box
from mslogistic.fpt import (FptProblem, VolterraError, crossing_time_deterministic, fptl, fptl_curve,
                            solve_density)
from mslogistic.selection import aic_bic, kl_divergence, rae, resistor_average, select_degree

NAMED = (ValueError, FitError, DegreeError, VolterraError, SingularInformationError,
         FloatingPointError)
TINY = SaSchedule(seed=0, replications=2, chain_length=3, max_iter=4, pilot_pairs=4)


def keeps_contract(call) -> None:
    """Run ``call`` with warnings as errors; it may return or raise a named error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # build_box's documented note on paths that do not grow
        warnings.filterwarnings("ignore", "paths .* do not end above", UserWarning)
        try:
            call()
        except NAMED:
            pass


def near(lo, hi):
    """Mostly moderate values; one draw in four is any double, a NaN or an infinity included."""
    moderate = st.floats(lo, hi)
    return st.one_of(moderate, moderate, moderate, st.floats())


ETA = near(1e-3, 10.0)
BETA = st.lists(near(-0.5, 0.5), min_size=1, max_size=3).map(tuple)
SIGMA2 = near(0.0, 0.05)
LEVEL = near(0.1, 1e3)
TIME = near(-50.0, 200.0)
SEED = st.integers(0, 2**64 - 1)
# a Degenerate start's x0, or a LognormalStart's (mu1, sigma1sq)
START = LEVEL | st.tuples(near(-3.0, 3.0), near(0.0, 1.0))


def params(eta, beta, sigma2):
    return ModelParams(eta, PolyCoeffs(beta), sigma2)


def initial(start):
    return LognormalStart(*start) if isinstance(start, tuple) else Degenerate(start)


def simulated(xi, x0, t_max, n, d, seed):
    return simulate_panel(SimSpec(params(*xi), Degenerate(x0), np.linspace(0.0, t_max, n), d, seed))


@st.composite
def panels(draw):
    """A simulated logistic-like panel, or any matrix on any times, built inside the call."""
    if draw(st.integers(0, 2)):
        xi = (draw(st.floats(0.1, 2.0)), (draw(st.floats(0.02, 0.3)), draw(st.floats(-0.01, 0.01))),
              draw(st.floats(1e-8, 0.02)))
        return partial(simulated, xi, draw(st.floats(0.5, 10.0)), draw(st.floats(5.0, 100.0)),
                       draw(st.integers(2, 25)), draw(st.integers(1, 5)), draw(SEED))
    # moderate entries, or any doubles in every entry
    time, value = draw(st.sampled_from([(st.floats(-50.0, 200.0), st.floats(1e-3, 1e3)),
                                        (st.floats(), st.floats())]))
    n = draw(st.integers(1, 6))
    times = sorted(draw(st.lists(time, min_size=n, max_size=n, unique=True)))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=4))
    return partial(PathPanel.from_matrix, times, rows)


@settings(max_examples=100, deadline=None)
@given(panel=panels(), p=st.integers(1, 4), init=st.none() | st.lists(near(-1.0, 1.0),
                                                                      min_size=2, max_size=5))
def test_fit(panel, p, init):
    keeps_contract(lambda: fit(panel(), p, max_iter=30, init=init))


@settings(max_examples=60, deadline=None)
@given(panel=panels(), degrees=st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_select_degree(panel, degrees):
    keeps_contract(lambda: select_degree(panel(), degrees))


@settings(max_examples=60, deadline=None)
@given(panel=panels(), p=st.integers(1, 3))
def test_build_box_and_anneal(panel, p):
    def call():
        pnl = panel()
        box = build_box(pnl, p)
        anneal(pnl, p, box, TINY)
    keeps_contract(call)


@settings(max_examples=60, deadline=None)
@given(panel=panels(), eta=ETA, beta=BETA, sigma2_side=st.tuples(near(0.0, 0.01), near(0.0, 0.01)))
def test_anneal_in_any_box(panel, eta, beta, sigma2_side):
    def call():
        box = ParamBox((eta, eta + 1.0), tuple((b, b + 0.1) for b in beta), sigma2_side)
        anneal(panel(), len(beta), box, TINY)
    keeps_contract(call)


@settings(max_examples=100, deadline=None)
@given(panel=panels(), eta=ETA, beta=BETA, sigma2=near(1e-6, 0.05),
       levels=st.lists(near(0.5, 0.99), min_size=1, max_size=3).map(tuple))
def test_confidence_intervals(panel, eta, beta, sigma2, levels):
    def call():
        xi = params(eta, beta, sigma2)
        confidence_intervals(fisher_info(transform(panel()), xi), xi, levels)
    keeps_contract(call)


@settings(max_examples=100, deadline=None)
@given(eta=ETA, beta=BETA, sigma2=near(1e-4, 0.05), x0=LEVEL, rise=near(1.01, 10.0), t0=TIME,
       horizon=near(1.0, 300.0))
def test_solve_density(eta, beta, sigma2, x0, rise, t0, horizon):
    keeps_contract(lambda: solve_density(FptProblem(params(eta, beta, sigma2), x0, t0, x0 * rise,
                                                    t0 + horizon)))


@settings(max_examples=200, deadline=None)
@given(eta=ETA, beta=BETA, l0=LEVEL, t0=TIME, boundary=LEVEL)
def test_crossing_time_deterministic(eta, beta, l0, t0, boundary):
    keeps_contract(lambda: crossing_time_deterministic(params(eta, beta, 0.0), l0, t0, boundary))


@settings(max_examples=150, deadline=None)
@given(eta=ETA, beta=BETA, sigma2=SIGMA2, start=START,
       grid=st.lists(TIME, min_size=2, max_size=6, unique=True).map(sorted), d=st.integers(1, 4),
       seed=SEED)
def test_simulate_panel(eta, beta, sigma2, start, grid, d, seed):
    keeps_contract(lambda: simulate_panel(SimSpec(params(eta, beta, sigma2), initial(start),
                                                  np.array(grid), d, seed)))


@settings(max_examples=200, deadline=None)
@given(eta=ETA, beta=BETA, sigma2=SIGMA2, start=START, t0=near(-50.0, 10.0),
       times=st.lists(TIME, min_size=1, max_size=4), alpha=near(0.01, 0.99))
def test_process_mean_and_percentile(eta, beta, sigma2, start, t0, times, alpha):
    keeps_contract(lambda: process_mean(params(eta, beta, sigma2), initial(start), t0,
                                        np.array(times)))
    keeps_contract(lambda: percentile(params(eta, beta, sigma2), initial(start), t0,
                                      np.array(times), alpha))


@settings(max_examples=100, deadline=None)
@given(eta=ETA, beta=BETA, t0=TIME, horizon=near(1.0, 300.0), l0=LEVEL)
def test_inflection_points(eta, beta, t0, horizon, l0):
    keeps_contract(lambda: inflection_points(params(eta, beta, 0.0), t0, t0 + horizon, l0))


@settings(max_examples=100, deadline=None)
@given(eta=ETA, beta=BETA, sigma2=near(1e-4, 0.05), x0=LEVEL, rise=near(1.01, 10.0), t0=TIME,
       horizon=near(1.0, 300.0), times=st.lists(TIME, min_size=1, max_size=4))
def test_fptl_and_fptl_curve(eta, beta, sigma2, x0, rise, t0, horizon, times):
    def problem():
        return FptProblem(params(eta, beta, sigma2), x0, t0, x0 * rise, t0 + horizon)
    keeps_contract(lambda: fptl(problem(), times[0]))
    keeps_contract(lambda: fptl(problem(), np.array(times)))
    keeps_contract(lambda: fptl_curve(problem()))


@settings(max_examples=300, deadline=None)
@given(eta=ETA, beta=BETA, sigma2=SIGMA2, l0=LEVEL, t0=TIME,
       times=st.lists(TIME, min_size=1, max_size=4))
def test_curve_and_drift(eta, beta, sigma2, l0, t0, times):
    for t in (times[0], np.array(times)):
        keeps_contract(lambda: curve(params(eta, beta, sigma2), l0, t0, t))
        keeps_contract(lambda: drift_rate(params(eta, beta, sigma2), t))
        keeps_contract(lambda: integrated_drift(params(eta, beta, sigma2), t0, t))
    keeps_contract(lambda: carrying_capacity(params(eta, beta, sigma2), l0, t0))


def columns(*pools):
    """Equal-length lists, one per pool: the entries of arrays that broadcast."""
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(*(st.lists(p, min_size=n, max_size=n) for p in pools)))


MU, VAR, KL = near(-5.0, 5.0), near(1e-6, 5.0), near(0.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(kl_args=columns(MU, VAR, MU, VAR), ra_args=columns(KL, KL), rae_args=columns(LEVEL, LEVEL),
       p=st.integers(1, 6), loglik=st.floats(), n=st.integers(0, 10**6))
def test_goodness_measures(kl_args, ra_args, rae_args, p, loglik, n):
    for args in ([a[0] for a in kl_args], [np.array(a) for a in kl_args]):
        keeps_contract(lambda: kl_divergence(*args))
    for args in ([a[0] for a in ra_args], [np.array(a) for a in ra_args]):
        keeps_contract(lambda: resistor_average(*args))
    keeps_contract(lambda: rae(*rae_args))
    keeps_contract(lambda: aic_bic(p, loglik, n))


EX41 = ModelParams(math.exp(-1.0), PolyCoeffs((0.1, -0.009, 0.0002)), 1e-4)
TABLE4 = FptProblem(EX41, 5.0, 0.0, 15.0, 210.0)


@pytest.mark.parametrize("call, outcome", [
    (lambda: fptl(TABLE4, math.nan), ValueError),
    (lambda: fptl(TABLE4, math.inf), ValueError),
    (lambda: carrying_capacity(EX41, 5.0, math.nan), math.isnan),
    (lambda: integrated_drift(EX41, 0.0, math.nan), math.isnan),
    (lambda: drift_rate(EX41, 1e200), 0.0),  # Q' overflows where the sigmoid is 0
    (lambda: kl_divergence(1e200, 1.0, -1e200, 1.0), math.inf),
    (lambda: kl_divergence(0.0, math.inf, 0.0, 1.0), ValueError),
    (lambda: kl_divergence(0.0, 1e-300, 0.0, 1e300),  # about 690.3
     0.5 * (math.log(1e300) - math.log(1e-300) - 1)),
    (lambda: kl_divergence(0.0, 1e300, 0.0, 1e-300), math.inf),
    (lambda: kl_divergence(0.0, 1.0, 0.0, 1e-308), 0.5 * (math.log(1e-308) + 1.0 / 1e-308 - 1)),
    (lambda: resistor_average(math.inf, math.inf), math.inf),
    (lambda: resistor_average(math.inf, 5.0), 5.0),
    (lambda: rae([0.0, 1.0], [1.0, 1.0]), ValueError),
], ids=["fptl_nan", "fptl_inf", "capacity_nan_start", "drift_nan_time", "rate_past_the_range",
        "kl_square_past_the_range", "kl_infinite_variance", "kl_ratio_past_the_range",
        "kl_ratio_under_the_range", "kl_subnormal_ratio", "ra_both_infinite", "ra_one_infinite",
        "rae_zero_sample_mean"])
def test_arguments_at_the_edge_of_the_range(call, outcome):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                call()
        elif callable(outcome):
            assert outcome(call())
        else:
            assert call() == outcome
