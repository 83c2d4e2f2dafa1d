"""First-passage-time density through a constant boundary.

On the log scale the process is a driftless Brownian motion (variance rate
``sigma2``) plus the deterministic integrated drift, so the first passage of
``X`` up through a constant level ``S`` above the start ``x0`` is the first
passage of the Brownian part through the moving boundary

    B(t) = log(S / x0) - H(t0, t),

where ``H`` is the integrated drift.  The passage density solves a
second-kind Volterra equation with the regular (vanishing-diagonal) kernel

    psi(t | y, tau) = 0.5 * [B'(t) - (B(t) - y)/(t - tau)] * phi(B(t) - y; sigma2 (t - tau)),

    g(t) = -2 psi(t | 0, t0) + 2 * int_t0^t g(tau) psi(t | B(tau), tau) dtau,

discretized with the composite trapezoid rule.  For a constant boundary and
zero drift the integral term vanishes and the recursion reproduces the
inverse-Gaussian density exactly, which anchors the kernel's sign conventions.
The kernel does not depend on ``g``: it is evaluated in blocks of about
:data:`KERNEL_BLOCK` entries, and the recurrence over the nodes stays sequential.

The cheap passage-location (FPTL) function ``P[X(t) > S | X(t0) = x0]``
locates where the density mass lives; integration steps are fine inside its
detected growth windows and coarse elsewhere.

The deterministic crossing needs no search: the curve is at or above ``S`` exactly
where ``Q(t) >= c`` for a constant ``c``, so it is a real root of the polynomial ``Q - c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import ndtr
from .model import ModelParams, drift_rate, integrated_drift, log_saturation_gap

__all__ = [
    "FptProblem",
    "FptlCurve",
    "FptDensity",
    "fptl",
    "fptl_curve",
    "adaptive_steps",
    "solve_density",
    "crossing_time_deterministic",
]

SCOUT_POINTS = 2001        # uniform scouting grid of the location function
GROWTH_THRESHOLD = 1e-4    # rise per scout step that marks a growth window
COARSE_FACTOR = 20.0       # coarse integration step over the fine one
REAL_ROOT_TOL = 1e-9       # |imag| over |root| below which a crossing root is real
KERNEL_BLOCK = 2**14       # kernel entries per array pass (128 KB per temporary)


class VolterraError(RuntimeError):
    """Numerical failure while solving the passage-density equation."""


@dataclass(frozen=True)
class FptProblem:
    """Up-crossing of the constant level ``boundary`` above the start ``x0``."""

    params: ModelParams
    x0: float
    t0: float
    boundary: float
    t_max: float

    def __post_init__(self):
        if not (all(map(math.isfinite, (self.x0, self.t0, self.boundary, self.t_max)))
                and self.x0 > 0 and self.boundary > 0):
            raise ValueError(f"need finite x0 > 0, t0, boundary > 0 and t_max, got x0={self.x0}, "
                             f"t0={self.t0}, boundary={self.boundary}, t_max={self.t_max}")
        if not self.boundary > self.x0:
            raise ValueError(f"boundary {self.boundary} must exceed the start {self.x0} "
                             "(down-crossing passages are not solved)")
        if not (self.t_max > self.t0 and math.isfinite(self.t_max - self.t0)):
            raise ValueError("t_max must exceed t0 by a finite span")
        if self.params.sigma2 <= 0:
            raise ValueError("passage-time problems need sigma2 > 0")

    def log_boundary_gap(self, t):
        """``B(t) = log(boundary/x0) - H(t0, t)`` on the log scale."""
        return math.log(self.boundary / self.x0) - np.asarray(
            integrated_drift(self.params, self.t0, t)
        )

    def log_boundary_slope(self, t):
        return 0.5 * self.params.sigma2 - drift_rate(self.params, t)


def fptl(problem: FptProblem, t):
    """Passage-location function ``P[X(t) > S | X(t0) = x0]`` for ``t > t0``."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= problem.t0):
        raise ValueError("fptl is defined for t > t0")
    z = problem.log_boundary_gap(t_arr) / (problem.params.sigma * np.sqrt(t_arr - problem.t0))
    return ndtr(-z)


@dataclass(frozen=True)
class FptlCurve:
    """Scouted passage-location curve with detected growth windows."""

    times: np.ndarray
    values: np.ndarray
    growth_intervals: tuple[tuple[float, float], ...]


def fptl_curve(problem: FptProblem) -> FptlCurve:
    """Evaluate the location function on a uniform scouting grid of :data:`SCOUT_POINTS`.

    Growth windows are maximal runs of scout steps on which the curve rises by
    more than :data:`GROWTH_THRESHOLD` per step; they flag where the passage
    density concentrates.
    """
    grid = np.linspace(problem.t0, problem.t_max, SCOUT_POINTS)
    vals = np.empty(SCOUT_POINTS)
    vals[0] = 0.0
    vals[1:] = fptl(problem, grid[1:])

    # a run of rising steps k..e-1 spans grid[k]..grid[e]; the padding closes runs at both ends
    rising = np.concatenate(([False], np.diff(vals) > GROWTH_THRESHOLD, [False]))
    edges = grid[np.flatnonzero(rising[1:] != rising[:-1])].tolist()
    return FptlCurve(grid, vals, growth_intervals=tuple(zip(edges[0::2], edges[1::2])))


def adaptive_steps(curve: FptlCurve) -> np.ndarray:
    """Integration grid: fine inside growth windows, coarse elsewhere.

    The fine step is 1/400 of the total growth-window width; the coarse step
    is :data:`COARSE_FACTOR` times that.  Without growth windows the schedule
    is uniform with 400 steps.  Returns the full node vector covering
    ``[t0, t_max]`` exactly.
    """
    t0, t_max = curve.times[0], curve.times[-1]
    if not curve.growth_intervals:
        return np.linspace(t0, t_max, 401)

    fine = sum(b - a for a, b in curve.growth_intervals) / 400.0
    # spans between the edges alternate coarse and fine, starting coarse
    edges = [t0, *sum(curve.growth_intervals, ()), t_max]
    nodes = [np.array([t0])]
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        if b > a:
            step = fine if k % 2 else COARSE_FACTOR * fine
            nodes.append(np.linspace(a, b, max(1, math.ceil((b - a) / step)) + 1)[1:])
    return np.concatenate(nodes)


@dataclass(frozen=True)
class FptDensity:
    """Discretized passage density with quadrature summaries."""

    times: np.ndarray
    density: np.ndarray
    cumulative: np.ndarray
    captured_mass: float
    mean: float
    std: float
    mode: float
    deciles: tuple[float, float, float]     # 1st, 5th, 9th
    mass_warning: bool
    negative_warning: bool


def _kernel(sigma2: float, dt, diff, slope):
    """``psi`` at time gap ``dt``, boundary distance ``diff`` and boundary slope ``slope``."""
    var = sigma2 * dt
    phi = np.exp(-diff * diff / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)
    return 0.5 * (slope - diff / dt) * phi


def solve_density(problem: FptProblem, steps: np.ndarray | None = None) -> FptDensity:
    """Solve the Volterra equation for the up-crossing density on ``[t0, t_max]``.

    ``steps`` overrides the FPTL-driven adaptive grid (2+ finite nodes from
    ``t0``).  Mean and standard deviation are moments of the computed density
    over the solved horizon (no renormalization: passage densities through
    near-saturation boundaries carry long right tails, and
    truncated-but-renormalized variances are dominated by the renormalization
    itself); check ``captured_mass`` before trusting them.  Deciles invert the
    cumulative renormalized to the captured mass.  ``mass_warning`` flags
    horizons that truncate more than 5% of the mass.  A negative variance
    raises VolterraError where the density also went negative (a grid too
    coarse for the spread); where it did not, the spread is below what the
    unnormalised moments resolve, and ``std`` reads 0.

    The kernel is evaluated in array passes: the free terms at once, then
    blocks of about :data:`KERNEL_BLOCK` entries (nodes ``t_k`` against
    ``tau_1 .. tau_{k1-2}``).  Each node reads its row of weight times kernel,
    so every product and pairwise sum is the node-by-node one and the result
    is bit-identical to it.  Block entries with ``tau_j >= t_k`` are never
    read; a time gap of 1 keeps them from raising a floating-point warning.
    """
    if steps is None:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite drift is refused below
            steps = adaptive_steps(fptl_curve(problem))
    t = np.asarray(steps, dtype=float)
    if not (t.ndim == 1 and t.size >= 2 and np.all(np.isfinite(t)) and t[0] == problem.t0
            and np.all(np.diff(t) > 0)):
        raise ValueError("steps must be a finite 1-D grid of 2+ nodes from t0, increasing strictly")

    n, g = t.size, np.zeros(t.size)
    with np.errstate(over="ignore", invalid="ignore"):  # a drift that overflows: g is refused below
        b = np.asarray(problem.log_boundary_gap(t))
        slope = np.asarray(problem.log_boundary_slope(t))
        g[1:] = -2.0 * _kernel(problem.params.sigma2, t[1:] - t[0], b[1:], slope[1:])  # free terms
        # trapezoid weights of tau_1 .. tau_{n-2}: g(t0) = 0, and psi vanishes at tau = t_k
        w = 0.5 * (t[2:] - t[:-2])
        rows = max(1, KERNEL_BLOCK // n)
        for k0 in range(2, n, rows):
            k1 = min(k0 + rows, n)
            dt = t[k0:k1, None] - t[1 : k1 - 1]
            dt[dt <= 0.0] = 1.0  # tau_j >= t_k: never read
            wk = _kernel(problem.params.sigma2, dt, b[k0:k1, None] - b[1 : k1 - 1], slope[k0:k1, None])
            wk *= w[: k1 - 2]
            for k in range(k0, k1):
                g[k] += 2.0 * float(np.sum(wk[k - k0, : k - 1] * g[1:k]))

    negative_warning = float(g.min()) < -1e-9
    g_clip = np.maximum(g, 0.0)

    cumulative = np.concatenate(
        ([0.0], np.cumsum(0.5 * np.diff(t) * (g_clip[1:] + g_clip[:-1])))
    )
    captured = float(cumulative[-1])
    mass_warning = captured < 0.95
    if not math.isfinite(captured):
        raise VolterraError(f"the passage density is not finite up to t_max {t[-1]:g}: "
                            "the drift overflows on this horizon")
    if not captured > 0:
        raise VolterraError(f"no probability mass captured on the {n}-node grid up to "
                            f"t_max {t[-1]:g}; refine the grid or extend the horizon")

    mean = float(np.trapezoid(t * g_clip, t))
    second = float(np.trapezoid(t * t * g_clip, t))
    var = second - mean * mean
    if var < 0 and negative_warning:  # an oscillating solution: the grid cannot hold the spread
        raise VolterraError(f"negative variance {var:.3g} of the passage density on the {n}-node "
                            "grid: the grid is too coarse for its spread; refine the grid")

    k_max = int(np.argmax(g_clip))
    mode = t[k_max]
    if 0 < k_max < n - 1:
        x0, x1, x2 = t[k_max - 1 : k_max + 2]
        y0, y1, y2 = g_clip[k_max - 1 : k_max + 2]
        denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
        a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
        bb = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom
        if a < 0:
            mode = -bb / (2 * a)

    cdf = cumulative / captured
    deciles = tuple(float(np.interp(q, cdf, t)) for q in (0.1, 0.5, 0.9))

    return FptDensity(
        times=t,
        density=g,
        cumulative=cumulative,
        captured_mass=captured,
        mean=mean,
        std=math.sqrt(max(var, 0.0)),
        mode=float(mode),
        deciles=deciles,  # type: ignore[arg-type]
        mass_warning=mass_warning,
        negative_warning=negative_warning,
    )


def crossing_time_deterministic(params: ModelParams, l0: float, t0: float,
                                boundary: float) -> float | None:
    """Smallest time after ``t0`` where the deterministic curve reaches ``boundary``.

    With ``gap0`` the log gap at ``t0`` and ``x = log eta + log(S/l0) - gap0``, the curve
    reaches ``S = boundary`` only if ``x < 0`` (``S`` below its supremum ``l0 exp(gap0)/eta``,
    whatever the sign of the leading coefficient), and then exactly where
    ``Q(t) >= c = log(S/l0) - gap0 - log(-expm1(x))``.

    Returns ``t0`` when ``boundary <= l0``, and None when ``gap0`` is not finite, when
    ``x >= 0`` (an infinite boundary included), when the companion matrix of ``Q - c`` is past
    the double range, or when no real root of it follows ``t0``.  Raises ValueError unless
    ``l0`` is finite and positive, ``t0`` is finite and ``boundary`` is positive.
    """
    if not (math.isfinite(l0) and l0 > 0 and math.isfinite(t0) and boundary > 0):
        raise ValueError(f"need finite l0 > 0, finite t0 and boundary > 0, got l0={l0}, "
                         f"t0={t0}, boundary={boundary}")
    if boundary <= l0:
        return t0
    gap0, rise = float(log_saturation_gap(params, t0)), math.log(boundary / l0)
    x = math.log(params.eta) + rise - gap0
    if not (math.isfinite(gap0) and x < 0):
        return None
    c = rise - gap0 - math.log(-math.expm1(x))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # eigvals refuses an inf entry
            roots = np.roots([*reversed(params.poly.beta), -c])
    except np.linalg.LinAlgError:
        return None
    after = roots.real[(np.abs(roots.imag) <= REAL_ROOT_TOL * np.abs(roots)) & (roots.real > t0)]
    return float(after.min()) if after.size else None
