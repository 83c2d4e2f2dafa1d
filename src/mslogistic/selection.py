"""Goodness-of-fit measures and selection of the polynomial degree.

Four measures are computed per candidate degree:

* RAE: mean absolute relative error between the sample mean curve and the
  fitted process mean;
* AIC and BIC with ``p + 2`` free parameters and the transition count as
  sample size;
* the resistor-average distance (harmonic mean of the two directional
  Kullback-Leibler divergences) between the cross-sectional lognormal law
  estimated from the panel and the fitted law, evaluated along the grid and
  summarized by its median and mean.

Degree choice is BIC-first with a parsimony tie-break, among the degrees
whose fit converged: the smallest degree within two BIC units of the minimum
wins.  RAE typically keeps improving with degree and is reported but never
decisive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._special import libm_map
from .fit_nr import DegreeError, FitError, fit
from .likelihood import fit_initial, loglik, transform
from .model import LognormalStart, ModelParams, integrated_drift, process_mean
from .simulate import PathPanel, _check_count

__all__ = [
    "DegreeGoodness",
    "GoodnessReport",
    "rae",
    "aic_bic",
    "kl_divergence",
    "resistor_average",
    "select_degree",
]

VARIANCE_FLOOR = 1e-12
BIC_TIE_WINDOW = 2.0  # BIC units within which the smallest degree wins


@np.errstate(over="ignore")  # an error past the double range is inf
def rae(sample_mean_series, fitted_mean_series) -> float:
    """Mean absolute relative error of the fitted means from positive, finite sample means."""
    m = np.asarray(sample_mean_series, dtype=float)
    f = np.asarray(fitted_mean_series, dtype=float)
    if m.shape != f.shape:
        raise ValueError(f"series shapes differ: {m.shape} vs {f.shape}")
    if not np.all((m > 0) & (m < math.inf)):
        raise ValueError("the sample means must be positive and finite")
    return float(np.mean(np.abs(m - f) / m))


def aic_bic(p: int, loglik_value: float, n: int) -> tuple[float, float]:
    """Information criteria for a degree-``p`` model with ``p + 2`` parameters."""
    if n < 1:
        raise ValueError("sample size must be positive")
    k = p + 2
    return 2 * k - 2 * loglik_value, k * math.log(n) - 2 * loglik_value


def _square(v: float) -> float:
    """libm's ``v ** 2``, and inf past the double range, where Python raises OverflowError."""
    try:
        return v ** 2
    except OverflowError:
        return math.inf


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # the ratio is checked below
def kl_divergence(mu_c, var_c, mu_s, var_s):
    """KL divergence between lognormal laws with log-scale moments (mu, var).

    Equals the Gaussian divergence of the logs:
    ``(log(var_s/var_c) + (var_c + (mu_c - mu_s)^2)/var_s - 1) / 2``.  Arrays
    broadcast and scalars give a float.  The logs and the square are libm's, as
    in scalar code; where the ratio is past the normal double range its log is
    ``log(var_s) - log(var_c)``.  The variances must be positive and finite, and the
    means must differ by a number; a divergence past the double range is inf.
    """
    mu_c, var_c, mu_s, var_s = (np.asarray(a, dtype=float) for a in (mu_c, var_c, mu_s, var_s))
    if not np.all((var_c > 0) & (var_s > 0) & (var_c < math.inf) & (var_s < math.inf)):
        raise ValueError("variances must be positive and finite")
    ratio, diff = var_s / var_c, mu_c - mu_s
    if np.isnan(diff).any():
        raise ValueError("the means must differ by a number, not NaN")
    past = ~((ratio >= np.finfo(float).tiny) & (ratio < math.inf))
    log_ratio = libm_map(math.log, np.where(past, 1.0, ratio))
    v_s, v_c = np.broadcast_arrays(var_s, var_c)
    log_ratio[past] = libm_map(math.log, v_s[past]) - libm_map(math.log, v_c[past])
    kl = 0.5 * (log_ratio + (var_c + libm_map(_square, diff)) / var_s - 1.0)
    return float(kl) if kl.ndim == 0 else kl


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # the product's overflow is redone
def resistor_average(kl_cs, kl_sc):
    """Harmonic mean of the two directional divergences (0 where both vanish); arrays broadcast.

    ``kl_cs kl_sc / (kl_cs + kl_sc)``, or ``1 / (1/kl_cs + 1/kl_sc)`` where that product is past
    the double range, so an infinite divergence gives the other one.
    """
    kl_cs, kl_sc = np.asarray(kl_cs, dtype=float), np.asarray(kl_sc, dtype=float)
    if not (np.all(kl_cs >= 0) and np.all(kl_sc >= 0)):
        raise ValueError("divergences must be nonnegative, not NaN")
    total, product = kl_cs + kl_sc, kl_cs * kl_sc
    ra = np.divide(product, total, out=np.zeros_like(total), where=total != 0.0)
    ra = np.where(np.isfinite(product), ra, 1.0 / (1.0 / kl_cs + 1.0 / kl_sc))
    return float(ra) if ra.ndim == 0 else ra


def _median(x: np.ndarray) -> float:
    """``np.median`` of nonempty 1-D ``x`` bit for bit, NaN included, without loading numpy.ma."""
    lo, hi = (x.size - 1) // 2, x.size // 2
    part = np.partition(x, [lo, hi])
    mid = part[hi] if lo == hi else 0.5 * (part[lo] + part[hi])
    return math.nan if np.isnan(x).any() else float(mid)


@dataclass(frozen=True)
class DegreeGoodness:
    """All measures for one candidate degree."""

    p: int
    xi_hat: ModelParams
    loglik: float
    rae: float
    aic: float
    bic: float
    dra_median: float
    dra_mean: float
    dra_times: np.ndarray = field(repr=False)
    dra_values: np.ndarray = field(repr=False)
    converged: bool = True


@dataclass(frozen=True)
class GoodnessReport:
    """Degree sweep outcome; ``chosen_p`` minimizes BIC over converged degrees, with parsimony."""

    per_degree: tuple[DegreeGoodness, ...]
    chosen_p: int
    failures: tuple[tuple[int, str], ...] = ()

    def __getitem__(self, p: int) -> DegreeGoodness:
        for d in self.per_degree:
            if d.p == p:
                return d
        raise KeyError(p)


def dra_curve(panel: PathPanel, xi: ModelParams, init: LognormalStart):
    """Resistor-average distance between sample and fitted laws along the grid.

    The sample law at each time uses the lognormal moment proxies
    ``mu = log(geometric mean)`` and ``var = 2 log(mean / geometric mean)``
    (floored); the fitted law propagates the log-moments of the initial law
    ``init`` with the integrated drift and ``sigma2 (t - t0)``.
    """
    grid = panel.common_grid()
    if grid is None:
        raise ValueError("distance curve needs a common observation grid")
    m, g = panel.pointwise_mean[1:], panel.pointwise_geometric_mean[1:]
    t0, times = grid[0], grid[1:]
    mu_c, var_c = np.log(g), np.maximum(2.0 * np.log(m / g), VARIANCE_FLOOR)
    mu_s = init.mu1 + np.asarray(integrated_drift(xi, 0.0, times - t0))
    var_s = np.maximum(init.sigma1sq + xi.sigma2 * (times - t0), VARIANCE_FLOOR)
    return times, resistor_average(kl_divergence(mu_c, var_c, mu_s, var_s),
                                   kl_divergence(mu_s, var_s, mu_c, var_c))


def select_degree(
    panel: PathPanel,
    p_range=range(2, 7),
    fitter: Callable[[PathPanel, int], object] | None = None,
) -> GoodnessReport:
    """Fit every degree in ``p_range`` and pick one by BIC with parsimony.

    ``fitter`` defaults to the Newton-Raphson :func:`~mslogistic.fit_nr.fit`,
    which reads the prepared data the panel keeps, so the panel is transformed
    once; it must return an object with ``xi_hat`` (ModelParams) and
    ``converged``.  Degrees whose fit raises are recorded in ``failures`` and
    skipped.  A degree whose fit did not converge keeps its entry
    (``converged=False``) and is also listed in ``failures``; only converged
    degrees can be chosen.  If no degree converges, FitError is raised; if
    every degree raised DegreeError, the first degree's DegreeError is.  An
    empty ``p_range``, a repeat or a degree not an integer >= 1 raises ValueError.
    """
    p_list = [_check_count(p, "degree") for p in p_range]
    if not p_list:
        raise ValueError("empty degree range")
    if len(set(p_list)) != len(p_list):
        raise ValueError(f"repeated degree in {p_list}")

    vdata = transform(panel)
    fitter = fitter or fit
    alpha = fit_initial(vdata)
    grid, m = panel.common_grid(), panel.pointwise_mean

    entries, failures, errors = [], [], []
    for p in p_list:
        try:
            res = fitter(panel, p)
        except (FitError, ValueError) as exc:
            failures.append((p, str(exc)))
            errors.append(exc)
            continue
        xi = res.xi_hat
        l_value = loglik(vdata, alpha, xi)
        if not math.isfinite(l_value):
            failures.append((p, f"non-finite log-likelihood at the degree-{p} fit"))
            continue
        aic, bic = aic_bic(p, l_value, vdata.n)
        fitted = process_mean(xi, alpha, 0.0, grid - grid[0])
        times, dra = dra_curve(panel, xi, alpha)
        entries.append(
            DegreeGoodness(
                p=p,
                xi_hat=xi,
                loglik=l_value,
                rae=rae(m, fitted),
                aic=aic,
                bic=bic,
                dra_median=_median(dra),
                dra_mean=float(np.mean(dra)),
                dra_times=times,
                dra_values=dra,
                converged=bool(res.converged),
            )
        )
        if not entries[-1].converged:
            failures.append((p, f"the degree-{p} fit did not converge"))
    converged = [e for e in entries if e.converged]
    if not converged:
        if len(errors) == len(p_list) and all(isinstance(e, DegreeError) for e in errors):
            raise errors[0]  # the data support no degree in the sweep: a data error, as in fit
        raise FitError(f"no degree in {p_list} gave a converged fit") from (
            errors[-1] if errors else None)

    best_bic = min(e.bic for e in converged)
    chosen = min(e.p for e in converged if e.bic <= best_bic + BIC_TIE_WINDOW)
    return GoodnessReport(per_degree=tuple(entries), chosen_p=chosen,
                          failures=tuple(failures))
