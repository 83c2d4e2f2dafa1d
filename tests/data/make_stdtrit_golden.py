"""Records the Student-t quantiles at the annealing box's level, from 50-digit mpmath.

``fit_sa.build_box`` widens each OLS beta estimate by ``stdtrit(dof, level)``
standard errors, with ``level = 0.5 + BOX_CONFIDENCE / 2``.  For every dof from 1
to 10^4, and for 10^5, 10^6 and 10^7, the file keeps the correctly rounded double
of the exact quantile at that level (the level being the double it rounds to):
the root of ``I_x(dof/2, 1/2) / 2 = 1 - level``, ``x = dof / (dof + t^2)``, found
by mpmath's secant method at 50 digits and rounded once to a double.

Before writing, the script checks its reference: at dof 1, 2 and 4 the root
equals the closed forms to 45 digits, and at a few dofs a 90-digit root rounds
to the same double.  It needs mpmath (installed with sympy, a test extra), not
the package's own quantile; it runs for about three minutes:

    PYTHONPATH=src python tests/data/make_stdtrit_golden.py > tests/data/stdtrit_golden.json
    PYTHONPATH=src python tests/data/make_stdtrit_golden.py --check

``--check`` writes nothing: it prints a diff against the recorded file and
exits 1 if they differ.
"""

import sys
from pathlib import Path

import mpmath as mp

from mslogistic.fit_sa import BOX_CONFIDENCE

sys.path.insert(0, str(Path(__file__).parent))  # finds golden_io when loaded by path too
from golden_io import dumps, emit  # noqa: E402

GOLDEN = Path(__file__).parent / "stdtrit_golden.json"
LEVEL = 0.5 + BOX_CONFIDENCE / 2.0
DOFS = [*range(1, 10**4 + 1), 10**5, 10**6, 10**7]
DIGITS = 50


def start(df: int, q):
    """A starting value: the closed form for dof <= 4, else Cornish-Fisher (A&S 26.7.5)."""
    if df <= 2:
        return mp.cot(mp.pi * q) if df == 1 else (1 - 2 * q) / mp.sqrt(2 * q * (1 - q))
    if df <= 4:
        a = 4 * q * (1 - q)
        return 2 * mp.sqrt(mp.cos(mp.acos(mp.sqrt(a)) / 3) / mp.sqrt(a) - 1)
    z, n = -mp.sqrt(2) * mp.erfinv(2 * q - 1), mp.mpf(df)
    g = [(z**3 + z) / 4, (5 * z**5 + 16 * z**3 + 3 * z) / 96,
         (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384,
         (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160]
    return z + sum(gk / n ** (k + 1) for k, gk in enumerate(g))


def quantile(df: int, digits: int = DIGITS):
    """The upper-tail root ``t > 0`` of ``P(T > t) = 1 - LEVEL``, at ``digits`` digits."""
    with mp.workdps(digits):
        q, nu = 1 - mp.mpf(LEVEL), mp.mpf(df)
        tail = lambda t: mp.betainc(nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) / 2 - q
        return +mp.findroot(tail, start(df, q))


def check_reference() -> None:
    """The closed forms at dof 1, 2 and 4, and 90-digit roots, agree with the 50-digit roots."""
    with mp.workdps(DIGITS):
        q = 1 - mp.mpf(LEVEL)
        for df in (1, 2, 4):  # start() is the closed form there
            assert abs(quantile(df) / start(df, q) - 1) < mp.mpf(10) ** -45, df
    for df in (1, 3, 6, 244, 9973, 10**7):
        assert float(quantile(df, 90)) == float(quantile(df)), df


def main() -> int:
    check_reference()
    records = [[df, float(quantile(df))] for df in DOFS]  # float() rounds to nearest
    text = dumps({"level": LEVEL, "digits": DIGITS, "quantiles": records}) + "\n"
    return emit(text, GOLDEN)


if __name__ == "__main__":
    sys.exit(main())
