"""Maximum likelihood by Newton-Raphson on the critical-point system.

The score equations reduce to p+2 equations: one for sigma2, whose only
admissible root has a closed form given the growth shape, and p+1 shape
equations ``y_l + sigma2/2 w_l + x_l = 0``.  The fitter eliminates sigma2
through that root and runs a damped Newton iteration on the shape equations;
one :func:`~mslogistic.likelihood.compute_stats` call gives each point's
residual and exact Jacobian (sigma2's part by the chain rule through the
root).  A solve that fails or gives a non-finite step is retried once with a
Levenberg-style diagonal shift, and each step is halved until it lowers the
residual norm.  The components carry factors ``t^l``, so the norm is taken
over residuals divided by per-equation scales frozen at the start.  A norm
below ``tol`` converges with an empty ``NrResult.message``; otherwise the
message names the stop rule:

* "singular Jacobian": neither solve gives a finite step;
* "line search stalled": :data:`MAX_BACKTRACKS` halvings do not lower the norm;
* "no convergence in N iterations": ``max_iter`` steps were taken.

A start whose residual or sigma2 root is not finite raises :class:`FitError`.
The regression start is least squares of ``-log(m_N/m_j - 1)`` on
``(1, t, ..., t^p)`` over the sample mean curve, which approximates the
exponent polynomial plus ``log eta`` once the mean has saturated; sigma2
needs no start, so the fit does not call :func:`initial_sigma2`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .likelihood import (LikelihoodStats, VData, compute_stats, direction_signs, fit_initial,
                         transform)
from .model import ModelParams, PolyCoeffs
from .simulate import PathPanel, _check_count

__all__ = ["FitError", "DegreeError", "InitSolution", "NrResult", "initial_theta", "initial_sigma2",
           "sigma2_root", "system_residual", "fit"]

SIGMA2_FLOOR = 1e-12
MAX_BACKTRACKS = 30   # step halvings per Newton iteration before the line search stalls
NOISE_SIGMAS = 5.0    # saturation ratios below this many noise SDs are dropped


class FitError(RuntimeError):
    """Raised when an estimation step cannot produce a usable result."""


class DegreeError(FitError):
    """The panel has too few usable points for the requested degree: a data error."""


@dataclass(frozen=True)
class InitSolution:
    """Regression-based starting point for the Newton iteration."""

    eta0: float
    beta0: PolyCoeffs
    r_squared: float


@dataclass(frozen=True)
class NrResult:
    """Outcome of a Newton-Raphson fit."""

    xi_hat: ModelParams
    iterations: int
    residual_norm: float
    converged: bool
    trace: tuple[float, ...]
    init: InitSolution | None = None
    message: str = ""


def _scaled_vandermonde(t: np.ndarray, p: int, intercept: bool):
    """Design matrix ``[1?, t, ..., t^p]`` with unit-norm columns (SVD-friendly).

    Returns ``(scaled, norms, design)``: the scaled matrix, its column norms
    and the unscaled matrix.
    """
    cols = [np.ones_like(t)] if intercept else []
    cols += [t**i for i in range(1, p + 1)]
    design = np.column_stack(cols)
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0] = 1.0
    return design / norms, norms, design


def usable_saturation_pairs(panel: PathPanel):
    """Times and ratios ``m_N/m_j - 1`` that carry usable saturation signal.

    Pairs where the ratio is nonpositive are infeasible for the log response
    (this always drops the final time).  Pairs where the ratio is positive but
    smaller than ``NOISE_SIGMAS`` times its own sampling noise (delta-method
    estimate from the cross-sectional spread of the panel) are noise-dominated:
    their log response has unbounded variance as the ratio approaches zero and
    a large structural bias, so they are dropped too.  On noiseless panels the
    noise estimate is zero and the rule reduces to plain feasibility.

    Returns the kept pairs ``(t_shifted, ratio)`` among ``j = 1..N-1``.
    """
    grid = panel.common_grid()
    if grid is None:
        raise FitError("saturation regression needs a common observation grid")
    t = grid - grid[0]
    m = panel.pointwise_mean
    ratio = m[-1] / m[:-1] - 1.0
    if panel.d > 1:
        sd_m = panel.pointwise_sd / math.sqrt(panel.d)
        rel = np.sqrt((sd_m[-1] / m[-1]) ** 2 + (sd_m[:-1] / m[:-1]) ** 2)
        noise = (m[-1] / m[:-1]) * rel
    else:
        noise = np.zeros_like(ratio)
    keep = ratio > NOISE_SIGMAS * noise
    return t[:-1][keep], ratio[keep]


def initial_theta(panel: PathPanel, p: int) -> InitSolution:
    """Polynomial-regression starting values for ``(eta, beta)`` and the regression's R^2.

    Infeasible and noise-dominated pairs are dropped per
    :func:`usable_saturation_pairs`.
    """
    t_keep, ratio = usable_saturation_pairs(panel)
    y = -np.log(ratio)
    if t_keep.size < p + 2:
        raise DegreeError(
            f"only {t_keep.size} usable regression points for degree {p} "
            f"(need {p + 2}); the sample mean may not be increasing"
        )
    design, norms, _ = _scaled_vandermonde(t_keep, p, intercept=True)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    coef = coef / norms
    resid = y - design @ (coef * norms)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return InitSolution(eta0=float(np.exp(coef[0])), beta0=PolyCoeffs(tuple(coef[1:])),
                        r_squared=r2)


def initial_sigma2(panel: PathPanel) -> float:
    """No-intercept slope of the lognormal variance proxy over elapsed time.

    ``2 log(m_j / m^g_j)`` estimates ``sigma1sq + sigma2 (t_j - t0)``; the
    slope of its recentred regression on ``t_j - t0`` estimates sigma2.
    Needs at least two paths (arithmetic and geometric means must differ).
    """
    if panel.d < 2:
        raise FitError("sigma2 starting value needs at least two paths")
    grid = panel.common_grid()
    if grid is None:
        raise FitError("sigma2 starting value needs a common observation grid")
    sigma1sq_hat = fit_initial(transform(panel)).sigma1sq
    proxy = 2.0 * np.log(panel.pointwise_mean / panel.pointwise_geometric_mean)
    x = grid - grid[0]
    slope = float(np.dot(x, proxy - sigma1sq_hat) / np.dot(x, x))
    return max(slope, SIGMA2_FLOOR)


def sigma2_root(stats: LikelihoodStats, n: int) -> float:
    """Closed-form admissible root of the sigma2 score equation given the shape.

    Solves ``sigma2 (n + sigma2 z3/4) = z1 + a - 2b``; the right side is a sum
    of squares, so the positive branch of the quadratic is the only admissible
    solution.
    """
    if not stats.z3 > 0:
        raise ValueError("z3 must be positive")
    k = stats.z1 + stats.a - 2.0 * stats.b
    if k < -1e-12 * max(1.0, stats.z1):
        raise FitError(f"sum-of-squares aggregate is negative ({k}); inconsistent stats")
    k = max(k, 0.0)
    return 2.0 * (-n + math.sqrt(n * n + stats.z3 * k)) / stats.z3


def _theta_residual(stats: LikelihoodStats, sigma2: float) -> np.ndarray:
    return stats.y + 0.5 * sigma2 * stats.w + stats.x


def system_residual(vdata: VData, xi: ModelParams) -> np.ndarray:
    """The p+2 critical-point equations at ``xi``: (sigma2 equation, l = 0..p)."""
    stats = compute_stats(vdata, xi)
    s2 = xi.sigma2
    sig_eq = s2 * (stats.n + 0.25 * s2 * stats.z3) - stats.z1 - stats.a + 2.0 * stats.b
    return np.concatenate(([sig_eq], _theta_residual(stats, s2)))


def _shape_point(vdata: VData, theta: np.ndarray):
    """Shape residual at ``theta``, its exact Jacobian and the floored sigma2 root there.

    sigma2 is eliminated through its closed-form root, so the residual
    ``y + sigma2/2 w + x`` reads theta through sigma2 too:
    ``d sigma2/d theta_k = -2 s_k (y_k + x_k) / (n + sigma2 z3/2)``, which is 0
    where the root sits on the floor.
    """
    stats = compute_stats(vdata, ModelParams.from_vector(np.append(theta, 0.0)))
    root = sigma2_root(stats, stats.n)
    sigma2 = max(root, SIGMA2_FLOOR)
    d_sigma2 = (root > SIGMA2_FLOOR) * -2.0 * direction_signs(stats.p) * (stats.y + stats.x) / (
        stats.n + 0.5 * root * stats.z3)
    jac = stats.dy + 0.5 * sigma2 * stats.dw + 0.5 * np.outer(stats.w, d_sigma2) + stats.dx
    return _theta_residual(stats, sigma2), jac, sigma2, stats


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """``a^-1 b``, or None where ``a`` is singular or the solution is not finite."""
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    return x if np.all(np.isfinite(x)) else None


def fit(
    panel: PathPanel,
    p: int,
    tol: float = 1e-9,
    max_iter: int = 200,
    init: np.ndarray | None = None,
) -> NrResult:
    """Maximum-likelihood fit of degree ``p`` by damped Newton-Raphson.

    ``init`` optionally overrides the regression start ``theta0 = (eta, beta_1..beta_p)``
    and must hold those p + 1 values; sigma2 needs no start, as its closed-form
    root eliminates it.  A bad ``init``, ``tol``, ``max_iter`` or degree raises ValueError.
    Non-convergence is reported, not raised: the best iterate reached is
    returned with ``converged=False`` and the residual trace attached.
    """
    _check_count(p, "degree")
    _check_count(max_iter, "max_iter")
    if not 0 < tol < math.inf:  # False for NaN
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    vdata = transform(panel)
    init_solution = None
    if init is None:
        init_solution = initial_theta(panel, p)
        init = (init_solution.eta0, *init_solution.beta0.beta)
    theta0 = np.asarray(init, dtype=float)
    if theta0.shape != (p + 1,):
        raise ValueError(f"init needs the p + 1 = {p + 1} values (eta, beta_1..beta_{p}), "
                         f"got shape {theta0.shape}")

    # per-equation characteristic scales, frozen at the starting point
    resid, jac, sigma2, stats0 = _shape_point(vdata, theta0)
    if not (math.isfinite(sigma2) and np.all(np.isfinite(resid))):
        raise FitError(f"the degree-{p} start {theta0.tolist()} gives a non-finite residual "
                       "or sigma2 root")
    scale = np.maximum.reduce([np.abs(stats0.y), np.abs(stats0.x), 0.5 * sigma2 * np.abs(stats0.w)])
    scale = np.maximum(scale, 1e-12 * np.max(scale) + 1e-300)

    theta = theta0
    norm = float(np.max(np.abs(resid / scale)))
    trace = [norm]
    message = ""
    while norm >= tol:
        if len(trace) > max_iter:
            message = f"no convergence in {max_iter} iterations"
            break
        finite = np.all(np.isfinite(jac))
        step = _solve(jac, -resid) if finite else None
        if step is None and finite:  # Levenberg-style shift on the scaled system
            shift = 1e-8 * np.linalg.norm(jac, ord="fro") / theta.size
            step = _solve(jac + shift * np.eye(theta.size), -resid)
        if step is None:
            message = "singular Jacobian"
            break
        lam = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            cand = theta + lam * step
            if cand[0] > 0:
                point = _shape_point(vdata, cand)
                cand_norm = float(np.max(np.abs(point[0] / scale)))
                if cand_norm < norm:  # False for a NaN norm
                    break
            lam *= 0.5
        else:
            message = "line search stalled"
            break
        theta, norm = cand, cand_norm
        resid, jac, sigma2 = point[:3]
        trace.append(norm)

    return NrResult(
        xi_hat=ModelParams.from_vector(np.append(theta, sigma2)),
        iterations=len(trace) - 1,
        residual_norm=norm,
        converged=norm < tol,
        trace=tuple(trace),
        init=init_solution,
        message=message,
    )
