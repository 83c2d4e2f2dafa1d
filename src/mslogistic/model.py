"""Multisigmoidal logistic growth curve and the moments of its lognormal diffusion.

The deterministic skeleton is the curve

    l(t) = l0 * (eta + exp(-Q(t0))) / (eta + exp(-Q(t))),

where ``Q(t) = sum_i beta_i t^i`` is a polynomial with no constant term.  When
the leading coefficient is positive the curve saturates at the carrying
capacity ``l0 * (eta + exp(-Q(t0))) / eta`` and, depending on the lower-order
coefficients, may go through several growth waves (hence several inflection
points) on the way there.

The stochastic counterpart multiplies the relative growth rate into the drift
of a lognormal diffusion: ``dX = h(t) X dt + sigma X dW`` with
``h(t) = Q'(t) exp(-Q(t)) / (eta + exp(-Q(t)))``.  Because the equation is
linear in ``X``, every conditional law is lognormal and the quantities needed
downstream (transition log-means, process mean, percentile bands) have closed
forms collected here.

All functions are pure; scalars broadcast against numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import expit, ndtri

__all__ = [
    "PolyCoeffs",
    "ModelParams",
    "Degenerate",
    "LognormalStart",
    "InitialDistribution",
    "InflectionSet",
    "curve",
    "carrying_capacity",
    "drift_rate",
    "integrated_drift",
    "process_mean",
    "percentile",
    "inflection_points",
    "log_saturation_gap",
]

INFLECTION_SCAN_POINTS = 2000   # bracketing subintervals of the inflection scan
INFLECTION_WIDTH_TOL = 1e-12    # bisection stops at an interval this wide


@dataclass(frozen=True)
class PolyCoeffs:
    """Coefficients ``(beta_1, ..., beta_p)`` of the growth exponent polynomial.

    The polynomial has no constant term, so ``value(0) == 0`` exactly.  For a
    saturating growth curve the leading coefficient should be positive; that is
    not enforced here because intermediate optimizer states (and occasionally
    converged fits on noisy data) step outside that region.
    """

    beta: tuple[float, ...]

    def __post_init__(self):
        beta = tuple(float(b) for b in self.beta)
        if len(beta) < 1:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(math.isfinite(b) for b in beta):
            raise ValueError(f"non-finite polynomial coefficients: {beta}")
        object.__setattr__(self, "beta", beta)

    @property
    def degree(self) -> int:
        return len(self.beta)

    def value(self, t):
        """Horner evaluation of ``sum_i beta_i t^i``."""
        # highest power first, constant term 0
        return np.polyval(list(reversed(self.beta)) + [0.0], t)

    def deriv(self, t):
        """Derivative ``sum_i i beta_i t^(i-1)``."""
        coeffs = [i * b for i, b in enumerate(self.beta, start=1)]
        return np.polyval(list(reversed(coeffs)), t)

    def deriv2(self, t):
        """Second derivative of the polynomial."""
        coeffs = [i * (i - 1) * b for i, b in enumerate(self.beta, start=1)]
        if len(coeffs) <= 1:
            return np.zeros_like(np.asarray(t, dtype=float))
        return np.polyval(list(reversed(coeffs[1:])), t)


@dataclass(frozen=True)
class ModelParams:
    """Process parameters: growth shape ``(eta, poly)`` plus diffusion variance.

    ``sigma2`` is the variance per unit time of the multiplicative noise;
    ``sigma2 = 0`` is allowed and reduces every formula to its deterministic
    counterpart.
    """

    eta: float
    poly: PolyCoeffs
    sigma2: float = 0.0

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not (self.sigma2 >= 0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def degree(self) -> int:
        return self.poly.degree

    def as_vector(self) -> np.ndarray:
        """Flat parameter vector ``(eta, beta_1..beta_p, sigma2)``."""
        return np.array([self.eta, *self.poly.beta, self.sigma2])

    @classmethod
    def from_vector(cls, xi) -> "ModelParams":
        """Inverse of :meth:`as_vector`; stores plain Python floats."""
        xi = np.asarray(xi, dtype=float)
        return cls(eta=float(xi[0]), poly=PolyCoeffs(tuple(xi[1:-1])), sigma2=float(xi[-1]))


@dataclass(frozen=True)
class Degenerate:
    """Process started at a fixed positive value ``x0``."""

    x0: float

    def __post_init__(self):
        if not (self.x0 > 0 and math.isfinite(self.x0)):
            raise ValueError(f"x0 must be positive, got {self.x0}")

    @property
    def log_mean(self) -> float:
        return math.log(self.x0)

    @property
    def log_var(self) -> float:
        return 0.0

    @property
    def mean(self) -> float:
        return self.x0


@dataclass(frozen=True)
class LognormalStart:
    """Lognormal initial state: ``log X(t0) ~ N(mu1, sigma1sq)``."""

    mu1: float
    sigma1sq: float

    def __post_init__(self):
        if not math.isfinite(self.mu1):
            raise ValueError(f"mu1 must be finite, got {self.mu1}")
        if not (self.sigma1sq >= 0 and math.isfinite(self.sigma1sq)):
            raise ValueError(f"sigma1sq must be nonnegative, got {self.sigma1sq}")

    @property
    def log_mean(self) -> float:
        return self.mu1

    @property
    def log_var(self) -> float:
        return self.sigma1sq

    @property
    def mean(self) -> float:
        """``exp(mu1 + sigma1sq/2)``; ValueError when that is past the double range."""
        try:
            mean = math.exp(self.mu1 + self.sigma1sq / 2.0)  # an infinite exponent gives inf
        except OverflowError:
            mean = math.inf
        if mean == math.inf:
            raise ValueError(f"the mean of LognormalStart({self.mu1}, {self.sigma1sq}) "
                             "is past the double range")
        return mean


InitialDistribution = Degenerate | LognormalStart


def log_saturation_gap(params: ModelParams, t):
    """``log(eta + exp(-Q(t)))``, the log-scale gap to saturation.

    Evaluated as ``logaddexp(log eta, -Q(t))`` so it never overflows, even when
    ``-Q(t)`` is far outside the double exponent range.  Everything else in
    this module is expressed through this quantity.
    """
    with np.errstate(over="ignore"):  # a Q(t) past the double range is +-inf: logaddexp takes it
        return np.logaddexp(math.log(params.eta), -params.poly.value(t))


@np.errstate(over="ignore", invalid="ignore")  # a level past the double range is inf
def curve(params: ModelParams, l0: float, t0: float, t):
    """Multisigmoidal logistic curve through ``(t0, l0)``.

    ``curve(t0) == l0`` holds exactly (the exponent cancels to zero).  It is
    also the conditional mean ``E[X(t) | X(t0) = l0]`` of the diffusion.  A level
    past the double range is inf, and NaN where the log gaps at both times are.
    """
    return l0 * np.exp(log_saturation_gap(params, t0) - log_saturation_gap(params, t))


@np.errstate(over="ignore")  # a level past the double range is inf
def carrying_capacity(params: ModelParams, l0: float, t0: float) -> float:
    """Limit of :func:`curve` as ``t -> inf``; requires a positive leading coefficient."""
    if params.poly.beta[-1] <= 0:
        raise ValueError("carrying capacity needs a positive leading coefficient")
    return float(l0 * np.exp(log_saturation_gap(params, t0) - math.log(params.eta)))


def drift_rate(params: ModelParams, t):
    """Relative growth rate ``h(t) = Q'(t) exp(-Q(t)) / (eta + exp(-Q(t)))``.

    The ratio is computed as a logistic sigmoid of ``-(Q(t) + log eta)``, which
    stays in (0, 1) without overflow for any polynomial value.
    """
    q = params.poly.value(t)
    return params.poly.deriv(t) * expit(-(q + math.log(params.eta)))


def integrated_drift(params: ModelParams, t0, t):
    """Closed form of ``int_t0^t h(s) ds - sigma2/2 (t - t0)``.

    This is the mean of ``log(X(t)/X(t0))`` conditional on the past; no
    quadrature is involved.  ``t0`` may be an array of steps' starts, one per ``t``.
    """
    t = np.asarray(t, dtype=float) if np.ndim(t) else t
    return (
        log_saturation_gap(params, t0)
        - log_saturation_gap(params, t)
        - 0.5 * params.sigma2 * (np.asarray(t) - t0)
    )


def process_mean(params: ModelParams, init: InitialDistribution, t0: float, t):
    """Unconditional mean ``E[X(t)] = E[X(t0)] * gap(t0)/gap(t)``."""
    return curve(params, init.mean, t0, t)


@np.errstate(over="ignore", invalid="ignore")  # a factor past the double range: inf or NaN
def percentile(params: ModelParams, init: InitialDistribution, t0: float, t, alpha: float):
    """alpha-percentile of the (lognormal) law of ``X(t)`` for ``t >= t0``.

    ``log X(t)`` is normal with mean ``log_mean + H(t0, t)`` and variance
    ``log_var + sigma2 (t - t0)``; the percentile is the exponential of the
    corresponding normal quantile.  It is inf, or NaN, where a factor of it is
    past the double range.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    dt = np.asarray(t, dtype=float) - t0
    if np.any(dt < 0):
        raise ValueError("percentile is defined for t >= t0")
    z = ndtri(alpha)
    ratio = np.exp(log_saturation_gap(params, t0) - log_saturation_gap(params, t))
    return ratio * np.exp(
        init.log_mean - 0.5 * params.sigma2 * dt + z * np.sqrt(init.log_var + params.sigma2 * dt)
    )


@dataclass(frozen=True)
class InflectionSet:
    """Inflection points of the curve on a scanned interval.

    ``times`` are the roots of the inflection equation located by
    :func:`inflection_points`, and ``values`` the curve's values there.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]


def _inflection_residual(params: ModelParams, t):
    """Residual of the inflection equation.

    The curvature of the curve factors as ``l * w * r(t)`` with ``l, w > 0``
    and ``r(t) = Q''(t) - Q'(t)^2 tanh((Q(t) + log eta)/2)``, so curvature sign
    changes are exactly sign changes of ``r``.
    """
    q = params.poly.value(t)
    dp = params.poly.deriv2(t)
    p = params.poly.deriv(t)
    return dp - p * p * np.tanh(0.5 * (q + math.log(params.eta)))


@np.errstate(over="ignore", invalid="ignore")  # a residual past the double range is inf or NaN
def inflection_points(params: ModelParams, t0: float, t_max: float,
                      l0: float = 1.0) -> InflectionSet:
    """Locate curvature sign changes of :func:`curve` on ``(t0, t_max)``.

    A uniform bracketing scan (:data:`INFLECTION_SCAN_POINTS` subintervals) is
    followed by bisection down to an interval of width :data:`INFLECTION_WIDTH_TOL`,
    or until the midpoint falls on an end (times too large for that width).
    A root is found where the residual changes sign between scan points or
    is exactly zero at one; a residual that is not finite brackets no root.
    """
    if not (t_max > t0 and math.isfinite(t_max - t0)):
        raise ValueError("t_max must exceed t0 by a finite span")
    grid = np.linspace(t0, t_max, INFLECTION_SCAN_POINTS + 1)
    res = _inflection_residual(params, grid)
    res[~np.isfinite(res)] = np.nan  # compares false: neither zero nor a sign change

    roots: list[float] = []
    for k in range(INFLECTION_SCAN_POINTS):
        a, b = grid[k], grid[k + 1]
        fa, fb = res[k], res[k + 1]
        if fa == 0.0 and a > t0:
            roots.append(float(a))
            continue
        if fa * fb < 0.0:
            m = 0.5 * a + 0.5 * b  # = 0.5 * (a + b), which overflows near the double max
            while b - a > INFLECTION_WIDTH_TOL and a < m < b:
                fm = _inflection_residual(params, m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
                m = 0.5 * a + 0.5 * b
            roots.append(m)

    roots = sorted(set(roots))
    values = tuple(float(curve(params, l0, t0, r)) for r in roots)
    return InflectionSet(times=tuple(roots), values=values)
