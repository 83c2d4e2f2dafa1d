"""Normal quantile and cdf, logistic sigmoid and Student-t quantile without scipy.

``ndtri`` and ``expit`` port the Cephes routines behind ``scipy.special.ndtri`` and
``scipy.special.expit`` step for step, so they return scipy's doubles (the tests
check this bitwise against the installed scipy): their values reach simulated
panels, interval z values and the drift rate.  ``ndtr`` is libm's ``erfc``: its values
only place the passage-time grid.  ``stdtrit`` is checked against mpmath, not scipy.

``ndtri``, ``ndtr`` and ``expit`` take a scalar or an array: a scalar gives a Python
float, an array a float64 array of the same shape.  ``ndtri`` runs each Cephes branch as
numpy arithmetic over the elements that take it; ``ndtr``, ``expit`` and the logs in
``ndtri`` call libm per element through :func:`libm_map`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# ndtri: approximation for 0 <= |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# ndtri: z = sqrt(-2 log y) between 2 and 8
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# ndtri: z = sqrt(-2 log y) between 8 and 64
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_SQRT1_2 = 0.7071067811865476


def _polevl(x, coef: tuple):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef: tuple):
    """Like :func:`_polevl` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def libm_map(fn, x) -> np.ndarray:
    """``fn`` on each element of ``x`` as a Python float: a float64 array of ``x``'s shape.

    For scalar functions that call libm (``math.log``, ``math.erfc``, ``v ** 2``):
    numpy's SIMD loops (``np.log`` and its kin) can differ from libm in the last
    bit, and the recorded results pin libm's.  A 1-D view is read without a copy.
    """
    a = np.asarray(x, dtype=float)
    out = np.fromiter(map(fn, a.reshape(-1).tolist()), dtype=float, count=a.size)
    return out.reshape(a.shape)


def ndtri(y, out=None):
    """Bitwise port of ``scipy.special.ndtri``, vectorised over the Cephes branches.

    A scalar gives a float; an array gives an array of its shape, or is written
    into ``out`` (which may be ``y`` itself or a strided view) and ``out`` returned.
    """
    a = np.asarray(y, dtype=float)
    flip = a > 1.0 - _EXP_M2  # Cephes works on 1 - y there and keeps the sign
    y = np.where(flip, 1.0 - a, a)
    central = y > _EXP_M2
    tail = (y > 0.0) & ~central  # NaN, 0, 1 and anything outside (0, 1) are in neither
    r = np.full(a.shape, np.nan)
    r[a == 0.0] = -np.inf
    r[a == 1.0] = np.inf
    c = y[central] - 0.5
    c2 = c * c
    r[central] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI
    x = np.sqrt(-2.0 * libm_map(math.log, y[tail]))
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _p1evl(z, _Q1),
                  z * _polevl(z, _P2) / _p1evl(z, _Q2))
    x = x - libm_map(math.log, x) / x - x1
    r[tail] = np.where(flip[tail], x, -x)
    if out is None:
        return float(r) if r.ndim == 0 else r
    out[...] = r
    return out


def _expit(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # libm's exp gives inf here, and 1 / inf is 0
        return 0.0


def ndtr(x):
    """Normal cdf ``0.5 erfc(-x sqrt(1/2))``, with libm's ``erfc`` per element.

    Not scipy's doubles: within 3e-15 of ``scipy.special.ndtr`` relative for ``x >= -8``
    and 2e-13 below, down to where scipy's result underflows to 0 (libm's is subnormal).
    """
    r = libm_map(lambda v: 0.5 * math.erfc(-v * _SQRT1_2), x)
    return float(r) if r.ndim == 0 else r


def expit(x):
    """Bitwise port of ``scipy.special.expit``, per element."""
    r = libm_map(_expit, x)
    return float(r) if r.ndim == 0 else r


def stdtrit(df, p) -> float:
    """Student-t quantile: ``t`` with ``P(T <= t) = p`` for ``T`` on ``df`` degrees of freedom.

    ``df``: an integer >= 1; ``p``: in [0, 1], 0 and 1 giving -inf and inf; else ``ValueError``.
    Newton steps on ``log t`` solve ``P(T > t) = q = min(p, 1 - p)``, or ``P(0 < T < t) = 1/2 - q``
    for q >= 1/4, by Gauss continued fractions (A&S 26.5.8).  Within 1 ulp at ``fit_sa``'s level.
    """
    if not (isinstance(df, (int, np.integer)) and df >= 1 and 0.0 <= p <= 1.0):
        raise ValueError(f"need an integer df >= 1 and p in [0, 1], got {df!r} and {p!r}")
    q, df = min(p, 1.0 - p), min(int(df), 2**64)  # past 2^64 the quantile moves < 1/2 ulp
    if q in (0.0, 0.5) or df <= 2:  # closed forms; 1/tan(pi q) keeps the Cauchy tail's digits
        t = 1.0 / math.tan(math.pi * q) if 0.0 < q < 0.25 else math.tan(math.pi * (0.5 - q))
        t = math.inf if q == 0.0 else t if df == 1 else (1 - 2 * q) / math.sqrt(2 * q * (1 - q))
        return math.copysign(t, p - 0.5)  # the median is 0 for every df, as for df = 2
    nu, m, t = float(df), df + df % 2, -ndtri(q)  # g(n) = Gamma(n/2+1/2) / (sqrt(pi) Gamma(n/2+1))
    h = math.comb(m, m // 2) / 2**m if m <= 4000 else (
        1 - (1 - (1 + (5 - 21 / 16 / m) / 4 / m) / 8 / m) / 4 / m) / math.sqrt(math.pi * m / 2)
    g = h if m == df else 2 / (math.pi * m * h)  # h = g(m), exact or by its series in 1/m
    for _ in range(100):
        num, den = t.as_integer_ratio()
        s = num * num / (den * den * df)  # t^2/df, correctly rounded
        w = (1 + s) ** ((1 - nu) / 2) if s > 2 else math.exp((1 - nu) / 2 * math.log1p(s))
        b, c, z = (0.5, nu / 2, -1 / s) if q < 0.25 else (nu / 2 + 0.5, 0.5, s / (1 + s))
        d, k, kz = 0.0, 1.0, []  # Lentz's method finds the depth; the sum runs bottom-up
        while d * k != 1.0 and len(kz) < 10_000:
            i, j = len(kz) + 1, (len(kz) + 1) // 2
            kz += [(-(c + j) * (b + j) if i & 1 else j * (b - c - j)) * z / (c + i - 1) / (c + i)]
            d, k = 1.0 / (1.0 + kz[-1] * d), 1.0 + kz[-1] / k
        f = 1.0 / functools.reduce(lambda v, a: 1.0 + a / v, reversed(kz), 1.0)
        if q < 0.25:  # log P(T > t) = log(w x) falls by nu s / ((1 + s) f) per unit of log t
            x = g / 2 / math.sqrt(s) * f
            # P(T > t)/q, 0 or inf when far off; w / q keeps a subnormal q's digits
            r = w / q * x if w >= 2.2250738585072014e-308 else 0.0  # subnormal w: sum the logs
            step = (math.log(r) if 0.0 < r < math.inf else (1 - nu) / 2 * math.log1p(s)
                    + math.log(x) - math.log(q)) * (1 + s) * f / (nu * s)
        else:  # P(0 < T < t) = w g f nu sqrt(s) / (2 (1 + s)) rises f times slower
            step = math.log((1 - 2 * q) * (1 + s) / (w * g * f * nu * math.sqrt(s))) * f
        t += t * math.expm1(step)
        if abs(step) < 1e-12:
            break
    return math.copysign(t, p - 0.5)
