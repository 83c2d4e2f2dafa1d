"""Simulated annealing on a bounded parameter box.

The objective is the negative core log-likelihood, minimized over the full
vector ``(eta, beta_1..beta_p, sigma2)`` inside a box built from the data:

* ``eta``: the interval spanned by the per-path estimates
  ``(x_last / x_first - 1)^-1`` (last-over-first growth ratios);
* ``beta``: OLS t-intervals at level 0.999 (quantile from ``_special.stdtrit``) from
  the no-intercept regression of ``-log[(m_N/m_j - 1) * eta_hat]`` on ``(t, ..., t^p)``;
* ``sigma2``: the fixed interval (0, 0.01), i.e. sigma < 0.1.

Schedule: the starting temperature is calibrated from a pilot sample of
objective increases so that uphill moves are initially accepted with
probability ``p0``; cooling is geometric with ratio ``gamma``; each
temperature stage proposes a chain of ``chain_length`` moves uniform in a
box-clipped neighborhood whose radius shrinks with the temperature.  A run
stops when the chain's retained objective has been flat for a full chain,
when the stage budget is exhausted, or when the temperature floor is reached.

Because annealing is stochastic, the estimate is averaged over independent
seeded replications; per-replication solutions are kept alongside the average.
The replications advance in lockstep, each on its own ``(seed, rep)`` random
stream, and every step evaluates all their proposals in one call of the
batched kernel :func:`~mslogistic.likelihood.neg_core_loglik`; the results are
identical to running the replications one after another, as each one's
acceptance test runs as scalar code in replication order.  Each stage tops up
every running replication's list of unread uniforms to a full chain's worth,
and the steps take them from its front: for PCG64, ``random(a)`` then
``random(b)`` equals ``random(a + b)``, so each stream is unchanged.  The box
corners pass the kernel's parameter check once per run; every candidate lies
between them, so the steps skip that check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._special import stdtrit
from .fit_nr import DegreeError, FitError, _scaled_vandermonde, usable_saturation_pairs
from .likelihood import _check_rows, _neg_core_loglik, _Workspace, neg_core_loglik, transform
from .model import ModelParams
from .simulate import PathPanel, _check_count, check_seed

FLAT_TOL = 1e-12  # equality tolerance of the flat-chain stop
CONTAINS_RTOL = 1e-12  # ParamBox.contains slack, relative to each interval's width
BOX_CONFIDENCE = 0.999  # two-sided level of the OLS beta intervals

__all__ = ["ParamBox", "SaSchedule", "SaResult", "build_box", "anneal"]


@dataclass(frozen=True)
class ParamBox:
    """Closed search region per coordinate, ordered (eta, beta_1..p, sigma2)."""

    eta_interval: tuple[float, float]
    beta_intervals: tuple[tuple[float, float], ...]
    sigma2_interval: tuple[float, float] = (0.0, 0.01)

    def __post_init__(self):
        for lo, hi in (self.eta_interval, *self.beta_intervals, self.sigma2_interval):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"need finite endpoints lo < hi, got ({lo}, {hi})")
        if not (self.eta_interval[0] > 0 and self.sigma2_interval[0] >= 0):
            raise ValueError("eta needs a lower bound > 0 and sigma2 a lower bound >= 0")

    @property
    def lower(self) -> np.ndarray:
        return np.array([self.eta_interval[0], *(iv[0] for iv in self.beta_intervals),
                         self.sigma2_interval[0]])

    @property
    def upper(self) -> np.ndarray:
        return np.array([self.eta_interval[1], *(iv[1] for iv in self.beta_intervals),
                         self.sigma2_interval[1]])

    def contains(self, vec: np.ndarray) -> bool:
        pad = CONTAINS_RTOL * (self.upper - self.lower)
        return bool(np.all(vec >= self.lower - pad) and np.all(vec <= self.upper + pad))


@dataclass(frozen=True)
class SaSchedule:
    """Annealing schedule: every field can be set (the flat-chain tolerance is :data:`FLAT_TOL`)."""

    p0: float = 0.9                # initial uphill acceptance probability
    gamma: float = 0.95            # geometric cooling ratio
    chain_length: int = 50         # proposals per temperature stage
    max_iter: int = 1000           # temperature stages
    t_final: float = 1e-7          # temperature floor
    seed: int = 0
    replications: int = 10
    pilot_pairs: int = 100         # proposal pairs used to calibrate T0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.p0 < 1.0:
            raise ValueError("p0 must lie in (0, 1)")
        for name in ("replications", "chain_length", "max_iter", "pilot_pairs"):
            _check_count(getattr(self, name), name)
        if not self.t_final > 0.0:
            raise ValueError(f"t_final must be positive, got {self.t_final!r}")
        check_seed(self.seed)


@dataclass(frozen=True)
class SaResult:
    """Averaged annealing estimate plus the per-replication solutions."""

    xi_hat: ModelParams
    per_replication: tuple[tuple[ModelParams, float], ...]
    stop_reasons: tuple[str, ...]
    t0_temperature: float


@np.errstate(over="ignore", invalid="ignore")  # ParamBox refuses a non-finite interval
def build_box(panel: PathPanel, p: int) -> ParamBox:
    """Data-driven parameter box for degree ``p``.

    Paths whose last value does not exceed their first carry no growth-ratio
    information for eta and are skipped (all skipped is an error).  A
    degenerate eta interval (all ratios equal) is widened by +-10%.
    """
    _check_count(p, "degree")

    values = panel.values_matrix()
    first, last = values[:, 0], values[:, -1]
    grows = last > first
    if not grows.all():
        warnings.warn(
            f"paths {np.flatnonzero(~grows).tolist()} do not end above their first value; "
            "excluded from the eta interval",
            stacklevel=2,
        )
    if not grows.any():
        raise FitError("no path ends above its first value; eta interval undefined")
    ratios = 1.0 / (last[grows] / first[grows] - 1.0)
    a, b = ratios.min(), ratios.max()
    if a == b:
        a, b = a * 0.9, b * 1.1

    m = panel.pointwise_mean
    eta_hat = 1.0 / (m[-1] / m[0] - 1.0)
    t_keep, ratio = usable_saturation_pairs(panel)
    y = -np.log(ratio * eta_hat)
    if t_keep.size < p + 1:
        raise DegreeError(f"only {t_keep.size} usable points for a degree-{p} box")

    scaled, norms, design = _scaled_vandermonde(t_keep, p, intercept=False)
    coef_s, *_ = np.linalg.lstsq(scaled, y, rcond=None)
    coef = coef_s / norms
    resid = y - design @ coef
    dof = max(t_keep.size - p, 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(scaled.T @ scaled)
    se = np.sqrt(np.diag(cov)) / norms
    t_quant = stdtrit(dof, 0.5 + BOX_CONFIDENCE / 2.0)
    intervals = tuple((float(c - t_quant * s), float(c + t_quant * s)) for c, s in zip(coef, se))

    return ParamBox(eta_interval=(float(a), float(b)), beta_intervals=intervals)


def _pilot_temperature(rng, vdata, lower, upper, sched: SaSchedule) -> float:
    """Average uphill jump over random proposal pairs, scaled by -log p0."""
    points = lower + (upper - lower) * rng.random((2 * sched.pilot_pairs, lower.size))
    f = neg_core_loglik(vdata, points)
    f0, f1 = f[0::2], f[1::2]
    increases = (f1 - f0)[np.isfinite(f0) & np.isfinite(f1) & (f1 > f0)]
    if not increases.size:
        return 1.0
    return -float(np.mean(increases)) / math.log(sched.p0)


def _run_lockstep(vdata, box: ParamBox, sched: SaSchedule, t0_temp: float,
                  uphill_log: list | None):
    """All replications in lockstep; returns best vectors, objectives and stop reasons.

    Every piece of state is indexed by replication.  ``active`` lists the running
    replications in order, and row ``i`` of a step's candidates is ``active[i]``'s.
    """
    n_rep, chain = sched.replications, sched.chain_length
    rngs = [np.random.default_rng((sched.seed, rep)) for rep in range(n_rep)]
    lower, upper = box.lower, box.upper
    width = upper - lower
    eps = 1e-12 * width
    lower = lower + eps          # keep the open sigma2 endpoint strictly positive
    upper = upper - eps
    _check_rows(np.array([lower, upper]))      # every candidate lies between these corners
    ws, n = _Workspace(vdata, n_rep), width.size

    current = lower + (upper - lower) * np.array([rng.random(n) for rng in rngs])
    f_curr = _neg_core_loglik(ws, current).tolist()
    best, f_best = current.copy(), list(f_curr)
    stops = ["max_iter"] * n_rep
    unread = [[] for _ in range(n_rep)]     # n uniforms per proposal, 1 per uphill test
    logs = [[] for _ in range(n_rep)]       # (df/T, accepted) of each uphill test
    active = list(range(n_rep))

    temp = t0_temp
    for _ in range(sched.max_iter):
        for r in active:                    # a full chain's uniforms
            unread[r] += rngs[r].random(chain * (n + 1) - len(unread[r])).tolist()
        radius = width * max(0.10 * temp / t0_temp, 0.001)
        seen = [[] for _ in range(n_rep)]   # the objective after each step of the stage
        for _ in range(chain):
            cur = current[active]
            lo, hi = np.maximum(lower, cur - radius), np.minimum(upper, cur + radius)
            cand = lo + (hi - lo) * np.array([unread[r][:n] for r in active])
            f_cand = _neg_core_loglik(ws, cand).tolist()
            for i, r in enumerate(active):
                del unread[r][:n]
                df = f_cand[i] - f_curr[r]
                accept = df <= 0
                if not accept:              # uphill or NaN: the only test that reads a uniform
                    x = df / temp
                    accept = unread[r].pop(0) < math.exp(-x)
                    if uphill_log is not None:      # a default fit makes about 80,000
                        logs[r].append((x, accept))
                if accept:
                    current[r], f_curr[r] = cand[i], f_cand[i]
                    if f_cand[i] < f_best[r]:
                        best[r], f_best[r] = cand[i], f_cand[i]
                seen[r].append(f_curr[r])
        for r in active:    # a NaN is never accepted, so it is all of seen[r] or none
            if max(seen[r]) - min(seen[r]) <= FLAT_TOL:     # all NaN: a NaN spread, not flat
                stops[r] = "flat_chain"
        active = [r for r in active if stops[r] != "flat_chain"]
        if not active:
            break
        temp *= sched.gamma
        if temp < sched.t_final:
            for r in active:
                stops[r] = "temperature_floor"
            break
    if uphill_log is not None:
        for log in logs:
            uphill_log.extend(log)
    return best, f_best, stops


@np.errstate(over="ignore", invalid="ignore")  # a non-finite objective is never accepted
def anneal(panel: PathPanel, p: int, box: ParamBox | None = None,
           sched: SaSchedule | None = None, uphill_log: list | None = None) -> SaResult:
    """Annealed maximum-likelihood estimate of degree ``p`` inside ``box``.

    Runs ``sched.replications`` independent seeded replications and averages
    the per-replication best solutions coordinate-wise (original scale).  Pass
    ``uphill_log`` to record ``(df/T, accepted)`` pairs for acceptance-rule
    diagnostics.
    """
    _check_count(p, "degree")
    if box is None:
        box = build_box(panel, p)
    if sched is None:
        sched = SaSchedule()
    if len(box.beta_intervals) != p:
        raise ValueError(f"box has {len(box.beta_intervals)} beta intervals, need {p}")

    vdata = transform(panel)
    pilot_rng = np.random.default_rng((sched.seed, 0x9E3779B9))
    t0_temp = _pilot_temperature(pilot_rng, vdata, box.lower + 1e-12 * (box.upper - box.lower),
                                 box.upper, sched)

    best, f_best, stops = _run_lockstep(vdata, box, sched, t0_temp, uphill_log)
    return SaResult(
        xi_hat=ModelParams.from_vector(np.mean(best, axis=0)),
        per_replication=tuple((ModelParams.from_vector(vec), f)
                              for vec, f in zip(best, f_best)),
        stop_reasons=tuple(stops),
        t0_temperature=t0_temp,
    )
