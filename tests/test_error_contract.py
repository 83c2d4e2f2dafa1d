"""The library's error contract as a property.

Whatever the arguments, each public entry point returns, or raises one of the
named errors below, and warns of nothing on the way (a ``RuntimeWarning``
from numpy counts as a failure).  Arguments are drawn from two pools: floats
anywhere in the double range, non-finite ones included, and values near the
paper's examples, so that the calls also run past their argument checks.
"""

import warnings
from functools import partial

import numpy as np
from hypothesis import given, settings, strategies as st

from mslogistic import (Degenerate, LognormalStart, ModelParams, PathPanel, PolyCoeffs, SimSpec,
                        inflection_points, percentile, process_mean, simulate_panel, transform)
from mslogistic.asymptotics import SingularInformationError, confidence_intervals, fisher_info
from mslogistic.fit_nr import DegreeError, FitError, fit
from mslogistic.fit_sa import ParamBox, SaSchedule, anneal, build_box
from mslogistic.fpt import FptProblem, VolterraError, crossing_time_deterministic, solve_density
from mslogistic.selection import select_degree

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
