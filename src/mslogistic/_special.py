"""Normal quantile, normal cdf and logistic sigmoid without scipy.

Ports of the Cephes routines behind ``scipy.special.ndtri``,
``scipy.special.ndtr`` and ``scipy.special.expit`` that keep their arithmetic
step for step, so they return the same doubles as scipy (the tests check this
bitwise against the installed scipy).
They exist so that the library and the commands do not pay for importing
``scipy.special``.

Each function takes a scalar or an array: a scalar gives a Python float, an
array gives a float64 array of the same shape.  ``ndtri`` runs each Cephes
branch as numpy arithmetic over the elements that take it, with libm's
``log`` per element; ``ndtr`` and ``expit`` are pure Python, element by element.
"""

from __future__ import annotations

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
# erfc: 1 <= x < 8
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
# erfc: x >= 8
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# erf: |x| <= 1
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)

_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_SQRT1_2 = 0.7071067811865476
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)


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


def _log(v: np.ndarray) -> np.ndarray:
    """libm's ``log`` per element, as Cephes calls it (numpy's SIMD ``np.log`` can differ)."""
    return np.fromiter(map(math.log, v.tolist()), dtype=float, count=v.size)


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
    x = np.sqrt(-2.0 * _log(y[tail]))
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _p1evl(z, _Q1),
                  z * _polevl(z, _P2) / _p1evl(z, _Q2))
    x = x - _log(x) / x - x1
    r[tail] = np.where(flip[tail], x, -x)
    if out is None:
        return float(r) if r.ndim == 0 else r
    out[...] = r
    return out


# erf and erfc only as ndtr reaches them: erf for |x| < 1, erfc for
# x >= 1/sqrt(2).  Cephes' other branches (negative erfc arguments, erf past
# 1, NaN checks) cannot be reached from here.  erf is odd and IEEE rounding is
# symmetric, so erf(-x) = -erf(x) holds without Cephes' sign branch.


def _erf(x: float) -> float:
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x: float) -> float:
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        return z * _polevl(x, _P) / _p1evl(x, _Q)
    return z * _polevl(x, _R) / _p1evl(x, _S)


def _ndtr(a: float) -> float:
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)  # NaN passes through here
    return 1.0 - y if x > 0 else y


def _expit(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # libm's exp gives inf here, and 1 / inf is 0
        return 0.0


def _elementwise(scalar_fn):
    def fn(x):
        if np.ndim(x) == 0:
            return scalar_fn(float(x))
        a = np.asarray(x, dtype=float)
        out = np.fromiter(map(scalar_fn, a.ravel().tolist()), dtype=float, count=a.size)
        return out.reshape(a.shape)

    fn.__name__ = scalar_fn.__name__.lstrip("_")
    fn.__doc__ = f"Bitwise port of ``scipy.special.{fn.__name__}``, per element."
    return fn


ndtr = _elementwise(_ndtr)
expit = _elementwise(_expit)
