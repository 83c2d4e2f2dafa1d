"""Lognormal diffusion with a multisigmoidal logistic mean.

Simulation, maximum-likelihood inference (Newton-Raphson on the critical-point
system and simulated annealing on a bounded box), asymptotic confidence
intervals, goodness-of-fit / polynomial-degree selection, and first-passage
time densities through constant boundaries.

The submodules and re-exported names load on first access (PEP 562), so
``import mslogistic`` loads no numpy and the ``msl`` entry point can set up
the BLAS thread pool before numpy starts it.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("asymptotics", "fit_nr", "fit_sa", "fpt", "likelihood", "model", "selection",
               "simulate")
# re-exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("Degenerate", "InflectionSet", "InitialDistribution", "LognormalStart",
                     "ModelParams", "PolyCoeffs", "carrying_capacity", "curve", "drift_rate",
                     "inflection_points", "integrated_drift", "percentile", "process_mean"),
                    "model"),
    **dict.fromkeys(("PathPanel", "SamplePath", "SimSpec", "simulate_panel"), "simulate"),
    **dict.fromkeys(("LikelihoodStats", "VData", "compute_stats", "fit_initial", "grad_loglik",
                     "loglik", "transform"), "likelihood"),
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_EXPORTS})
