"""Lognormal diffusion with a multisigmoidal logistic mean.

Simulation, maximum-likelihood inference (Newton-Raphson on the critical-point
system and simulated annealing on a bounded box), asymptotic confidence
intervals, goodness-of-fit / polynomial-degree selection, and first-passage
time densities through constant boundaries.
"""

from . import asymptotics, fit_nr, fit_sa, fpt, likelihood, model, selection, simulate
from .model import (
    Degenerate,
    InflectionSet,
    InitialDistribution,
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
from .simulate import PathPanel, SamplePath, SimSpec, geometric_mean, sample_mean, simulate_panel
from .likelihood import (
    InitialFit,
    LikelihoodStats,
    VData,
    compute_stats,
    fit_initial,
    grad_loglik,
    loglik,
    transform,
)

__version__ = "0.1.0"

__all__ = [
    "Degenerate",
    "InflectionSet",
    "InitialDistribution",
    "InitialFit",
    "LikelihoodStats",
    "LognormalStart",
    "ModelParams",
    "PathPanel",
    "PolyCoeffs",
    "SamplePath",
    "SimSpec",
    "VData",
    "carrying_capacity",
    "compute_stats",
    "curve",
    "drift_rate",
    "fit_initial",
    "geometric_mean",
    "grad_loglik",
    "inflection_points",
    "integrated_drift",
    "loglik",
    "percentile",
    "process_mean",
    "sample_mean",
    "simulate_panel",
    "transform",
    "__version__",
]
