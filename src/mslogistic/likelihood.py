"""Log-likelihood of a panel of paths and its exact building blocks.

The observed vector factors into the law of the first observations and a
product of Gaussian transition densities for the standardized log-increments

    v_ij = dt_ij^{-1/2} * log(x_{i,j+1} / x_ij),

whose conditional mean is the integrated drift over the step divided by
``sqrt(dt)`` and whose variance is ``sigma2``.  Everything the estimators need
reduces to a handful of aggregates over transitions, collected in
:class:`LikelihoodStats`:

* data-only scalars ``z1 = sum v^2``, ``z2 = sum v sqrt(dt)``, ``z3 = sum dt``;
* the log-gap differences ``lam`` (one per time pair) and their aggregates
  ``a = sum lam^2/dt``, ``b = sum v lam/sqrt(dt)``, ``c = sum lam``;
* per-derivative-direction aggregates ``w[l], x[l], y[l]`` built from the
  telescoping differences ``d_l`` (see :func:`_derivative_table`), and their
  exact derivatives in the shape ``theta = (eta, beta_1..beta_p)``.

Transitions that share the same (start, end) time pair contribute identical
parameter-dependent factors, so :func:`transform` reduces the panel to groups
of equal time pairs and keeps only each group's count, ``sum v`` and
``sum v^2``: :class:`VData` holds no per-transition array.  On a common grid
with d paths this cuts the work per likelihood evaluation by a factor of d.

One reduction serves every panel: :func:`transform` takes the column sums of
each of the panel's blocks of paths on one grid (``PathPanel.blocks``) over
blocks of rows, then adds the sums of equal time pairs in block order, so each
group adds its transitions in path order (a two-time grid's one column is
summed pairwise).
A panel cannot change once built, so each panel's read-only result is computed
once and kept while the panel lives: every stage that reads a panel (degree
selection, the fits, the intervals) shares one preparation.

Times are shifted so the panel starts at 0 (the curve family is closed under
time shifts); fitted parameters therefore live on the clock ``s = t - t0``,
with ``t0`` recorded on the :class:`VData`.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .model import LognormalStart, ModelParams
from .simulate import PathPanel, _column_sums

__all__ = [
    "VData",
    "LikelihoodStats",
    "transform",
    "fit_initial",
    "compute_stats",
    "neg_core_loglik",
    "loglik",
    "grad_loglik",
    "direction_signs",
]

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class VData:
    """A panel reduced to what the likelihood reads: group aggregates of its transitions.

    Transitions that share a (start, end) time pair form a group.  ``g_lo`` and
    ``g_hi`` index into ``times`` (the sorted unique observation times, shifted
    so the panel starts at 0) and the other ``g_*`` arrays hold per-group data
    reductions.  No array has one entry per transition; each has one entry per
    path, time or group, so on a common grid of N times none exceeds max(d, N).
    """

    v0: np.ndarray          # (d,) raw first observations
    times: np.ndarray       # (m,) unique shifted observation times
    t0: float               # original first observation time
    n: int                  # number of transitions
    # per-group reductions (groups = unique (lo, hi) pairs)
    g_lo: np.ndarray = field(repr=False)        # (G,) index of step start into times
    g_hi: np.ndarray = field(repr=False)        # (G,) index of step end into times
    g_delta: np.ndarray = field(repr=False)     # (G,) time step
    g_count: np.ndarray = field(repr=False)     # (G,) transitions in the group
    g_sum_v: np.ndarray = field(repr=False)     # (G,) sum of v
    g_sum_v2: np.ndarray = field(repr=False)    # (G,) sum of v^2
    # data-only aggregates z1 = sum v^2, z2 = sum v sqrt(dt), z3 = sum dt
    z1: float = field(repr=False)
    z2: float = field(repr=False)
    z3: float = field(repr=False)

    @property
    def d(self) -> int:
        return self.v0.size


_PREPARED = weakref.WeakKeyDictionary()  # panel -> its VData, dropped with the panel


@np.errstate(over="ignore")  # an increment squared past the range: the likelihood is inf
def transform(panel: PathPanel) -> VData:
    """Grouped standardized log-increments of ``panel``, computed once per panel.

    It reads the panel's :attr:`~mslogistic.simulate.PathPanel.blocks` of paths on
    one grid: one block on a common grid, one single-row block per ragged path.
    Each block gives column sums of ``v`` and ``v^2`` over its rows (in row
    order), and ``bincount`` adds the block sums of equal time pairs from 0.0 in
    block order.  So every group adds its transitions in path order; the one
    exception is a grid of two times, whose single column numpy sums pairwise.
    """
    if panel in _PREPARED:
        return _PREPARED[panel]
    blocks, t0 = panel.blocks, panel.t0
    # sorted unique times (np.unique with no index output imports numpy.ma: 15-40 ms)
    t_all = np.sort(np.concatenate([t for t, _ in blocks]), kind="stable")
    times = t_all[np.concatenate(([True], t_all[1:] != t_all[:-1]))] - t0

    keys, sums = [], []
    for t, values in blocks:
        sqrt_dt = np.sqrt(np.diff(t))

        def v_and_v2(rows):
            v = np.diff(np.log(rows), axis=1) / sqrt_dt
            return v, v * v

        idx = np.searchsorted(times, t - t0)
        keys.append(idx[:-1] * times.size + idx[1:])
        sums.append(np.vstack([np.full(t.size - 1, float(values.shape[0])),
                               *_column_sums(values, v_and_v2)]))

    uniq, group = np.unique(np.concatenate(keys), return_inverse=True)
    # bincount gives int64 when no path has a transition
    g_count, g_sum_v, g_sum_v2 = (np.bincount(group, w, uniq.size).astype(float, copy=False)
                                  for w in np.hstack(sums))
    g_lo, g_hi = np.divmod(uniq, times.size)
    _PREPARED[panel] = _vdata(panel, times, g_count.sum(), g_lo, g_hi, g_count, g_sum_v, g_sum_v2)
    return _PREPARED[panel]


def _vdata(panel, times, n, g_lo, g_hi, g_count, g_sum_v, g_sum_v2) -> VData:
    """Assemble a :class:`VData` of read-only arrays, deriving ``g_delta`` and ``z1``-``z3``."""
    g_delta = times[g_hi] - times[g_lo]
    vdata = VData(
        v0=panel.first_values(),
        times=times,
        t0=panel.t0,
        n=int(n),
        g_lo=g_lo,
        g_hi=g_hi,
        g_delta=g_delta,
        g_count=g_count,
        g_sum_v=g_sum_v,
        g_sum_v2=g_sum_v2,
        z1=float(np.sum(g_sum_v2)),
        z2=float(np.sum(g_sum_v * np.sqrt(g_delta))),
        z3=float(np.sum(g_count * g_delta)),
    )
    for value in vars(vdata).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return vdata


def fit_initial(vdata: VData) -> LognormalStart:
    """Closed-form MLEs of the initial law's ``(mu1, sigma1sq)`` from the first observations.

    With one path, or identical first observations, ``sigma1sq`` is 0.0.
    """
    logs = np.log(vdata.v0)
    mu1 = float(logs.mean())
    return LognormalStart(mu1=mu1, sigma1sq=float(np.mean((logs - mu1) ** 2)))


@dataclass(frozen=True)
class LikelihoodStats:
    """Sufficient aggregates of a panel under a given growth shape ``theta``.

    ``w``, ``x``, ``y`` have one entry per derivative direction
    ``l = 0 (eta), 1..p (beta_l)``; ``d_g`` holds the telescoping derivative
    differences per group, which :func:`~mslogistic.asymptotics.fisher_info`
    reads.  ``dw[l, k]`` is ``d w_l / d theta_k`` in the shape
    ``theta = (eta, beta_1..beta_p)``, and likewise ``dx`` and ``dy``.
    """

    z1: float
    z2: float
    z3: float
    a: float
    b: float
    c: float
    w: np.ndarray            # (p+1,)
    x: np.ndarray            # (p+1,)
    y: np.ndarray            # (p+1,)
    d_g: np.ndarray = field(repr=False)     # (p+1, G)
    dw: np.ndarray = field(repr=False)      # (p+1, p+1)
    dx: np.ndarray = field(repr=False)      # (p+1, p+1)
    dy: np.ndarray = field(repr=False)      # (p+1, p+1)
    n: int = 0
    p: int = 0


class _Workspace:
    """Buffers for up to ``k`` kernel rows on one :class:`VData`.

    A call on ``K`` rows writes rows ``[:K]`` of each buffer before it reads them.
    """

    def __init__(self, vdata: VData, k: int):
        m, g = vdata.times.size, vdata.g_lo.size
        self.vdata, self.sqrt_dt = vdata, np.sqrt(vdata.g_delta)
        self.q, self.log_u = np.empty((k, m)), np.empty((k, m))
        self.lam, self.lam_hi, self.terms = np.empty((k, g)), np.empty((k, g)), np.empty((3, k, g))


def _log_gap(ws: _Workspace, eta: np.ndarray, beta: np.ndarray):
    """``Q`` and ``log(eta + e^{-Q})`` on the time table, one row per ``(eta, beta)`` row.

    ``eta`` has shape ``(K,)`` and ``beta`` ``(K, p)``.  Horner's scheme runs in
    the order of ``PolyCoeffs.value``, and logs are taken with ``math.log``
    (``np.log`` can differ in the last bit), so every row is bit-identical.
    """
    times, coefs = ws.vdata.times, beta.T[::-1, :, None]
    q = np.add(coefs[0], 0.0, out=ws.q[:eta.size])     # = 0 * times + beta_p, as times >= 0
    for coef in coefs[1:]:
        q *= times
        q += coef
    q *= times
    log_eta = np.array([math.log(e) for e in eta.tolist()])
    log_u = np.negative(q, out=ws.log_u[:eta.size])
    return q, np.logaddexp(log_eta[:, None], log_u, out=log_u)


def _gap_aggregates(ws: _Workspace, log_u: np.ndarray):
    """Per-group log-gap differences ``lam`` and each row's aggregates ``[a, b, c]``.

    ``take`` keeps ``lam`` C-contiguous (``log_u[:, idx]`` would be Fortran
    ordered), so each row sums exactly as the 1-D array of a single row would;
    the terms of ``a``, ``b`` and ``c`` are summed in one reduction.  The indices
    are in range, and ``mode="clip"`` writes straight into ``out`` (``"raise"``
    goes through a buffer).
    """
    vd, k = ws.vdata, log_u.shape[0]
    lam = log_u.take(vd.g_lo, axis=1, out=ws.lam[:k], mode="clip")
    lam -= log_u.take(vd.g_hi, axis=1, out=ws.lam_hi[:k], mode="clip")
    a, b, c = terms = ws.terms[:, :k]
    np.multiply(vd.g_count, lam, out=c)
    np.multiply(c, lam, out=a)
    a /= vd.g_delta
    np.multiply(vd.g_sum_v, lam, out=b)
    b /= ws.sqrt_dt
    return lam, terms.sum(axis=2).T.tolist()


def _derivative_table(inv_u: np.ndarray, w_frac: np.ndarray, times: np.ndarray, p: int):
    """Tables ``f_l(t)`` and ``E_j(t)``, the first and second derivatives of ``log u``.

    With ``u = eta + e^{-Q}``, ``f_0 = -1/u`` and ``f_l = -t^l e^{-Q}/u`` for
    ``l >= 1``; the difference ``f_l(t_hi) - f_l(t_lo)`` over a transition is
    ``+d(lam)/d(eta)`` for ``l = 0`` and ``-d(lam)/d(beta_l)`` otherwise.
    ``E_j = t^j e^{-Q}/u^2`` (``j = 0..2p``) gives the derivatives of ``f``:
    ``df_0/deta = 1/u^2``, ``df_0/dbeta_k = -E_k`` but ``df_l/deta = +E_l``
    (the two signs differ), and ``df_l/dbeta_k = eta E_{l+k}``.
    """
    tl = np.empty((2 * p + 1, times.size))
    tl[0] = 1.0
    for j in range(1, 2 * p + 1):
        np.multiply(tl[j - 1], times, out=tl[j])
    return np.vstack((-inv_u, -tl[1:p + 1] * w_frac)), tl * (w_frac * inv_u)


def compute_stats(vdata: VData, params: ModelParams) -> LikelihoodStats:
    """All likelihood aggregates for the growth shape of ``params`` (sigma2 unused)."""
    p = params.degree
    ws = _Workspace(vdata, 1)
    q, log_u = _log_gap(ws, np.array([params.eta]), np.array([params.poly.beta]))
    lam, [(a, b, c)] = _gap_aggregates(ws, log_u)
    q, log_u, lam = q[0], log_u[0], lam[0]

    cnt, sv, dt = vdata.g_count, vdata.g_sum_v, vdata.g_delta
    lo, hi, m = vdata.g_lo, vdata.g_hi, vdata.times.size
    inv_u = np.exp(-log_u)
    f, e = _derivative_table(inv_u, np.exp(-q - log_u), vdata.times, p)
    d_g = f[:, hi] - f[:, lo]           # (p+1, G)

    weights = (cnt, sv / ws.sqrt_dt, cnt * (-lam) / dt)
    w, x, y = (d_g @ wt for wt in weights)

    # theta-derivatives of w, x, y: each group's weight goes to the time table,
    # + at its end and - at its start, so only (2p+1, m) E sums are formed
    on_times = np.stack([np.bincount(hi, wt, m) - np.bincount(lo, wt, m) for wt in weights])
    e_sums = e @ on_times.T                                         # (2p+1, 3)
    jac = params.eta * e_sums[np.add.outer(np.arange(p + 1), np.arange(p + 1))]
    jac[0, 0] = (inv_u * inv_u) @ on_times.T
    jac[0, 1:] = -e_sums[1:p + 1]
    jac[1:, 0] = e_sums[1:p + 1]
    dw, dx, dy = np.moveaxis(jac, 2, 0)
    # y also reads lam, whose derivative in theta_k is s_k d_g[k]
    dy -= (d_g * (cnt / dt)) @ d_g.T * direction_signs(p)

    return LikelihoodStats(
        z1=vdata.z1, z2=vdata.z2, z3=vdata.z3, a=a, b=b, c=c,
        w=w, x=x, y=y, d_g=d_g, dw=dw, dx=dx, dy=dy, n=vdata.n, p=p,
    )


def neg_core_loglik(vdata: VData, rows) -> np.ndarray:
    """``-core_loglik`` at each ``(eta, beta_1..beta_p, sigma2)`` row of a ``(K, p+2)`` matrix.

    Value-only: no derivative table is built.  Row ``k`` equals
    ``-core_loglik(compute_stats(vdata, params_k), sigma2_k)`` exactly.
    """
    rows = np.asarray(rows, dtype=float)
    _check_rows(rows)
    return _neg_core_loglik(_Workspace(vdata, rows.shape[0]), rows)


def _check_rows(rows: np.ndarray) -> None:
    """Reject rows the kernel cannot evaluate: non-finite values, eta <= 0 or sigma2 <= 0."""
    if rows.ndim != 2 or rows.shape[1] < 3:
        raise ValueError(f"need a (K, p+2) parameter matrix, got shape {rows.shape}")
    if not (np.isfinite(rows).all() and (rows[:, 0] > 0).all() and (rows[:, -1] > 0).all()):
        raise ValueError("every row needs finite values, eta > 0 and sigma2 > 0")


def _neg_core_loglik(ws: _Workspace, rows: np.ndarray) -> np.ndarray:
    """:func:`neg_core_loglik` on rows that passed :func:`_check_rows`, in ``ws``'s buffers."""
    _, log_u = _log_gap(ws, rows[:, 0], rows[:, 1:-1])
    _, sums = _gap_aggregates(ws, log_u)
    vd, sigma2 = ws.vdata, rows[:, -1].tolist()
    return np.array([0.5 * vd.n * math.log(s) + _quad_form(vd, a, b, c, s) / (2.0 * s)
                     for (a, b, c), s in zip(sums, sigma2)])


def _quad_form(z, a, b, c, sigma2):
    """``sum (v - m/sqrt(dt))^2`` from ``z.z1``-``z.z3`` and the shape aggregates."""
    return z.z1 + a - 2.0 * b + 0.25 * sigma2 * sigma2 * z.z3 - sigma2 * c + sigma2 * z.z2


def core_loglik(stats: LikelihoodStats, sigma2: float) -> float:
    """The sigma-and-shape part of the log-likelihood (initial law excluded)."""
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    q = _quad_form(stats, stats.a, stats.b, stats.c, sigma2)
    return -0.5 * stats.n * math.log(sigma2) - q / (2.0 * sigma2)


def loglik(vdata: VData, alpha: LognormalStart | None, xi: ModelParams) -> float:
    """Full log-likelihood of the panel under initial law ``alpha`` and process ``xi``.

    ``alpha`` is the lognormal initial law, or None to plug in its exact MLEs
    (:func:`fit_initial`).  When the initial law is degenerate (``d == 1``,
    identical first observations, or ``sigma1sq == 0``) the initial-state
    factor is dropped and only the ``n`` transition densities contribute.
    """
    if alpha is None:
        alpha = fit_initial(vdata)

    value = -float(neg_core_loglik(vdata, [xi.as_vector()])[0])

    degenerate = vdata.d == 1 or alpha.sigma1sq == 0.0
    if degenerate:
        return value - 0.5 * vdata.n * LOG_2PI

    logs = np.log(vdata.v0)
    value -= 0.5 * (vdata.n + vdata.d) * LOG_2PI
    value -= 0.5 * vdata.d * math.log(alpha.sigma1sq)
    value -= float(np.sum(logs))
    value -= float(np.sum((logs - alpha.mu1) ** 2)) / (2.0 * alpha.sigma1sq)
    return value


def direction_signs(p: int) -> np.ndarray:
    """``(+1, -1, ..., -1)``: the telescoping difference is ``+dm/deta`` but ``-dm/dbeta_l``."""
    signs = np.full(p + 1, -1.0)
    signs[0] = 1.0
    return signs


def grad_loglik(vdata: VData, xi: ModelParams) -> np.ndarray:
    """Analytic gradient of the core log-likelihood in ``(eta, beta_1..p, sigma2)``.

    The shape directions reduce to the score aggregates:
    ``dL/dtheta_l = s_l (y_l + sigma2/2 w_l + x_l) / sigma2`` with ``s_0 = +1``
    for eta and ``s_l = -1`` for the beta directions (the telescoping
    difference equals ``+dm/deta`` but ``-dm/dbeta_l``).
    """
    sigma2 = xi.sigma2
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    stats = compute_stats(vdata, xi)

    g_theta = direction_signs(stats.p) * (stats.y + 0.5 * sigma2 * stats.w + stats.x) / sigma2

    y_xi = stats.c - 0.5 * sigma2 * stats.z3
    g_sigma2 = (
        -0.5 * stats.n / sigma2
        + _quad_form(stats, stats.a, stats.b, stats.c, sigma2) / (2.0 * sigma2 * sigma2)
        + 0.5 * y_xi / sigma2
        - 0.5 * stats.z2 / sigma2
    )
    return np.concatenate((g_theta, [g_sigma2]))
