"""Fisher information, Wald confidence intervals, and exact initial-law results.

The transitions are Gaussian in the standardized increments with mean
``m/sqrt(dt)`` depending on the shape parameters and on sigma2 (through the
``-sigma2 dt / 2`` term), so the expected information has closed form:

    I(xi) = (1/sigma2) [[ Xi,            -(1/2) s       ],
                        [ -(1/2) s^T,    n/(2 sigma2) + z3/4 ]]

with ``Xi = sum (1/dt) (dm/dtheta)(dm/dtheta)^T`` and ``s = sum dm/dtheta``
over transitions.  The derivative vector uses the telescoping differences with
their true signs (+ for the eta direction, - for the beta directions).

Asymptotically ``xi_hat ~ N(xi, I(xi)^{-1})``; intervals for the parameters
are Wald intervals, and intervals for a smooth function g of the parameters
use the delta-method variance ``grad g^T I^{-1} grad g``.

The initial-law estimators have exact finite-sample distributions:
``mu1_hat ~ N(mu1, sigma1sq/d)`` and ``d sigma1sq_hat / sigma1sq ~ chi2(d-1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import ndtri
from .likelihood import VData, compute_stats, direction_signs
from .model import ModelParams

__all__ = [
    "FisherInfo",
    "CiReport",
    "ParameterInterval",
    "InitialParamLaws",
    "fisher_info",
    "confidence_intervals",
    "initial_param_laws",
]


MAX_CONDITION = 1e12  # largest condition number of the equilibrated information


class SingularInformationError(RuntimeError):
    """Information matrix too ill-conditioned to invert reliably."""


@dataclass(frozen=True)
class FisherInfo:
    """Expected information matrix of ``(eta, beta_1..p, sigma2)``, shape ``(p+2, p+2)``."""

    matrix: np.ndarray

    def scaling_vector(self) -> np.ndarray:
        """diag(D) with D I D of unit diagonal (equilibration scaling).

        Parameter scales here differ by many orders of magnitude (powers of
        the time horizon on the beta directions, 1/sigma2 powers on the noise
        direction), so conditioning is judged on the equilibrated core, which
        is the correlation structure of the estimator.
        """
        diag = np.diag(self.matrix).copy()
        diag[diag <= 0] = 1.0
        return 1.0 / np.sqrt(diag)

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite core is refused below
    def inverse(self) -> np.ndarray:
        """Covariance matrix ``I^{-1}`` via the equilibrated core.

        Raises :class:`SingularInformationError` when the matrix or its
        equilibrated core is not finite (it overflows as sigma2 nears 0) or the
        core's condition number exceeds :data:`MAX_CONDITION`.
        """
        d = self.scaling_vector()
        core = self.matrix * np.outer(d, d)
        if not np.isfinite(core).all():
            raise SingularInformationError("information matrix is not finite")
        w, v = np.linalg.eigh(core)
        if w.min() <= 0 or w.max() / w.min() > MAX_CONDITION:
            cond = math.inf if w.min() <= 0 else w.max() / w.min()
            raise SingularInformationError(
                f"rescaled information condition number {cond:.3e} exceeds {MAX_CONDITION:.1e}"
            )
        core_inv = (v / w) @ v.T
        return core_inv * np.outer(d, d)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite matrix is refused by inverse()
def fisher_info(vdata: VData, xi: ModelParams) -> FisherInfo:
    """Expected information matrix at ``xi`` for the observation design of ``vdata``.

    Depends on the observation times only (not on the observed values), as the
    expectation removes every data term.  ``xi.sigma2`` must be positive (ValueError).
    """
    if not xi.sigma2 > 0:
        raise ValueError(f"the information needs sigma2 > 0, got {xi.sigma2}")
    stats = compute_stats(vdata, xi)
    p = stats.p
    dm = direction_signs(p)[:, None] * stats.d_g     # (p+1, G): true dm/dtheta
    cnt, dt = vdata.g_count, vdata.g_delta

    matrix = np.empty((p + 2, p + 2))
    matrix[: p + 1, : p + 1] = (dm * (cnt / dt)) @ dm.T
    matrix[: p + 1, p + 1] = matrix[p + 1, : p + 1] = -0.5 * (dm @ cnt)
    matrix[p + 1, p + 1] = 0.5 * stats.n / xi.sigma2 + 0.25 * stats.z3
    matrix /= xi.sigma2
    return FisherInfo(matrix)


@dataclass(frozen=True)
class ParameterInterval:
    """Point estimate with nested central confidence intervals."""

    name: str
    estimate: float
    std_error: float
    intervals: dict[float, tuple[float, float]]


@dataclass(frozen=True)
class CiReport:
    """Wald confidence intervals for the process parameters (and functions of them)."""

    parameters: tuple[ParameterInterval, ...]

    def __getitem__(self, name: str) -> ParameterInterval:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)


def _wald(name: str, est: float, se: float, z_by_level: dict) -> ParameterInterval:
    ivs = {lv: (est - z * se, est + z * se) for lv, z in z_by_level.items()}
    return ParameterInterval(name=name, estimate=est, std_error=se, intervals=ivs)


def confidence_intervals(
    fi: FisherInfo,
    xi_hat: ModelParams,
    levels: tuple[float, ...] = (0.95, 0.90, 0.75),
    functions: dict[str, tuple[float, np.ndarray]] | None = None,
) -> CiReport:
    """Wald intervals at ``levels`` for every parameter of ``xi_hat``.

    ``functions`` optionally maps a name to ``(value, gradient)`` of a smooth
    parameter function; its variance comes from the delta method.  Every level
    must lie in (0, 1) (ValueError otherwise).
    """
    if not all(0.0 < lv < 1.0 for lv in levels):
        raise ValueError(f"confidence levels must lie in (0, 1), got {list(levels)}")
    cov = fi.inverse()
    se = np.sqrt(np.diag(cov))
    est = xi_hat.as_vector()
    p = xi_hat.degree
    names = ["eta", *(f"beta{l}" for l in range(1, p + 1)), "sigma2"]
    z = dict(zip(levels, ndtri(0.5 + np.asarray(levels, dtype=float) / 2.0).tolist()))
    entries = [_wald(nm, float(e), float(s), z) for nm, e, s in zip(names, est, se)]
    for nm, (value, grad) in (functions or {}).items():
        grad = np.asarray(grad, dtype=float)
        var = float(grad @ cov @ grad)
        entries.append(_wald(nm, float(value), math.sqrt(max(var, 0.0)), z))
    return CiReport(parameters=tuple(entries))


@dataclass(frozen=True)
class InitialParamLaws:
    """Exact sampling laws of the initial-distribution MLEs."""

    d: int
    mu1_variance: float       # variance of mu1_hat: sigma1sq / d
    chi2_dof: int             # law of d * sigma1sq_hat / sigma1sq


def initial_param_laws(d: int, sigma1sq: float) -> InitialParamLaws:
    """Descriptors of the exact laws of ``mu1_hat`` and ``sigma1sq_hat``."""
    if d < 2:
        raise ValueError("exact initial-parameter laws need at least two paths")
    if sigma1sq <= 0:
        raise ValueError("sigma1sq must be positive")
    return InitialParamLaws(d=d, mu1_variance=sigma1sq / d, chi2_dof=d - 1)
