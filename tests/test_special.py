"""The special functions against their oracles, and where scipy gets loaded.

``scipy.special`` is the oracle of the ``ndtri`` and ``expit`` ports: they must
return the same doubles, bit for bit, on a fixed seeded sample.  ``ndtr`` is libm's
``erfc``, bit for bit, and close to scipy's.  ``stdtrit`` is held to 50-digit mpmath
quantiles recorded by ``tests/data/make_stdtrit_golden.py``, to 60-digit roots at subnormal
tails, and to its properties.  mpmath comes with sympy, a test extra.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import example, given, settings, strategies as st

import mslogistic
from mslogistic._special import expit, ndtr, ndtri, stdtrit
from mslogistic.fit_sa import BOX_CONFIDENCE

PACKAGE_DIR = Path(mslogistic.__file__).parent
FIXTURE = Path(__file__).parent / "data" / "epidemic_shaped.csv"
STDTRIT_GOLDEN = Path(__file__).parent / "data" / "stdtrit_golden.json"


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    mismatch = got[~nan].view(np.uint64) != want[~nan].view(np.uint64)
    assert not mismatch.any(), (want[~nan][mismatch][:5], got[~nan][mismatch][:5])


class TestNdtri:
    def test_matches_scipy_bitwise(self):
        rng = np.random.default_rng(20240811)
        y = np.concatenate([
            rng.random(60_000),
            10.0 ** rng.uniform(-300, -1, 25_000),  # lower tail, every branch
            1.0 - 10.0 ** rng.uniform(-16, -1, 15_000),  # upper tail
            [0.0, 1.0, 5e-324, 1e-310, np.nextafter(1.0, 0.0), 0.5, 0.975, 0.95, 0.875,
             np.exp(-2.0), 1.0 - np.exp(-2.0), np.nan, -0.0, -1e-300, 1.5, np.inf, -np.inf],
        ])
        assert_bitwise(ndtri(y), sc.ndtri(y))

    def test_scalar_and_shape(self):
        z = ndtri(0.975)
        assert type(z) is float and z == sc.ndtri(0.975)
        assert type(ndtri(np.float64(0.5))) is float
        assert ndtri(np.full((2, 3), 0.25)).shape == (2, 3)
        grid = np.array([[0.01, 0.25, 0.5], [0.9, 1.0 - 1e-12, 0.0]])
        assert_bitwise(ndtri(grid), sc.ndtri(grid))
        assert ndtri(np.empty((0, 3))).shape == (0, 3)

    def test_out_writes_into_a_strided_view(self):
        rows = np.random.default_rng(20240814).random((6, 9))
        rows[0, 1], rows[1, 3] = 1e-20, 1.0 - 1e-15
        before = rows.copy()
        view = rows[:, 1::2]
        assert ndtri(view, out=view) is view
        assert_bitwise(view, sc.ndtri(before[:, 1::2]))
        assert_bitwise(rows[:, ::2], before[:, ::2])
        other = np.empty((6, 4))
        assert ndtri(before[:, 1::2], out=other) is other
        assert_bitwise(other, view)
        empty = np.empty((0, 3))
        assert ndtri(empty, out=empty) is empty


class TestNdtr:
    def test_equals_libm_erfc_bitwise(self):
        rng = np.random.default_rng(20240812)
        x = np.concatenate([
            rng.uniform(-40.0, 40.0, 100_000),
            rng.uniform(-1.5, 1.5, 20_000),
            [np.inf, -np.inf, 0.0, -0.0, np.nan, 40.0, -40.0, 37.6, -37.6, 37.7, -37.7],
        ])
        assert_bitwise(ndtr(x), [0.5 * math.erfc(-v * math.sqrt(0.5)) for v in x.tolist()])

    def test_close_to_scipy(self):
        x = np.linspace(-38.0, 38.0, 400_001)
        got, want = ndtr(x), sc.ndtr(x)
        upper, lower = x >= -8.0, (x < -8.0) & (want > 0.0)
        np.testing.assert_allclose(got[upper], want[upper], rtol=3e-15, atol=0.0)
        np.testing.assert_allclose(got[lower], want[lower], rtol=2e-13, atol=0.0)
        # below about -37.68 scipy's erfc underflows to 0 and libm's is subnormal
        assert np.all(got[want == 0.0] < np.finfo(float).tiny)

    def test_scalar_and_shape(self):
        assert type(ndtr(1.0)) is float and ndtr(1.0) == 0.5 * math.erfc(-math.sqrt(0.5))
        assert ndtr(np.zeros((4, 1))).shape == (4, 1)


class TestExpit:
    def test_matches_scipy_bitwise(self):
        rng = np.random.default_rng(20240813)
        x = np.concatenate([
            rng.uniform(-800.0, 800.0, 100_000),
            # libm's exp overflows to inf past 709.78; 1 / inf is 0
            [-1e308, -800.0, -745.2, -709.79, -709.78, 709.78, 709.79, 800.0, 1e308,
             np.inf, -np.inf, np.nan, 0.0, -0.0],
        ])
        assert_bitwise(expit(x), sc.expit(x))

    def test_scalar_and_shape(self):
        assert type(expit(-710.0)) is float and expit(-710.0) == 0.0
        assert expit(np.ones((3, 2, 1))).shape == (3, 2, 1)
        assert expit(np.empty((0, 2))).shape == (0, 2)


def ulps_apart(a: float, b: float) -> int:
    """Doubles between two finite doubles of one sign, counting one end."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


# stdtrit against 50-digit mpmath on 3,000 random (df, p) pairs: at most 5 ulps off where
# q = min(p, 1 - p) is a normal double, and at most 24 on 154 cases where it is subnormal
SLACK = 16 * 2.0**-52
DF = st.one_of(st.integers(1, 40), st.integers(1, 10**7), st.integers(1, 2**80))
P = st.floats(0.0, 1.0)


class TestStdtrit:
    def test_within_two_ulps_of_the_recorded_quantiles(self):
        golden = json.loads(STDTRIT_GOLDEN.read_text(encoding="utf-8"))
        assert golden["level"] == 0.5 + BOX_CONFIDENCE / 2.0 and golden["digits"] == 50
        dofs = [df for df, _ in golden["quantiles"]]
        assert dofs == [*range(1, 10**4 + 1), 10**5, 10**6, 10**7]
        off = {df: ulps_apart(stdtrit(df, golden["level"]), t) for df, t in golden["quantiles"]}
        assert max(off.values()) <= 2, {df: n for df, n in off.items() if n > 2}

    def test_closed_forms_and_scalars(self):
        q = 1.0 - (0.5 + BOX_CONFIDENCE / 2.0)
        assert stdtrit(1, 1.0 - q) == 1.0 / math.tan(math.pi * q)
        assert stdtrit(2, 1.0 - q) == (1.0 - 2.0 * q) / math.sqrt(2.0 * q * (1.0 - q))
        assert type(stdtrit(np.int64(5), np.float64(0.9))) is float
        assert stdtrit(np.int64(5), 0.9) == stdtrit(5, 0.9)

    @settings(deadline=None)
    @given(df=DF)
    @example(df=1)
    @example(df=2)
    def test_median_and_ends(self, df):
        assert stdtrit(df, 0.5) == 0.0 and math.copysign(1.0, stdtrit(df, 0.5)) == 1.0
        assert stdtrit(df, 0.0) == -math.inf and stdtrit(df, 1.0) == math.inf

    @settings(deadline=None)
    @given(df=DF, p=st.floats(0.5, 1.0))
    @example(df=1, p=1.0 - 2.0**-53)
    @example(df=2, p=0.5 + 2.0**-53)
    @example(df=3, p=np.nextafter(1.0, 0.0))
    def test_odd_where_one_minus_p_is_exact(self, df, p):
        assert stdtrit(df, 1.0 - p) == -stdtrit(df, p)  # 1 - p is exact for p in [1/2, 1]

    @settings(deadline=None)
    @given(df=DF, p=P)
    @example(df=1, p=5e-324)
    @example(df=2, p=5e-324)
    @example(df=3, p=1.0 - 2.0**-53)
    def test_finite_inside_the_range(self, df, p):
        t = stdtrit(df, p)
        if 0.0 < p < 1.0:
            # the Cauchy quantile 1/tan(pi q) leaves the double range below q = 1.8e-309
            assert math.isfinite(t) or (df == 1 and min(p, 1.0 - p) < 1.8e-309)
            assert (t > 0) == (p > 0.5) and (t < 0) == (p < 0.5)

    @settings(deadline=None)
    @given(df=DF, ps=st.tuples(P, P).map(sorted))
    @example(df=1, ps=[0.25, 0.75])
    @example(df=2, ps=[0.0, 2.0**-1074])
    @example(df=1, ps=[1.0 - 2.0**-53, 1.0])
    def test_increasing_in_p(self, df, ps):
        lo, hi = (stdtrit(df, p) for p in ps)
        assert lo <= hi or math.isclose(lo, hi, rel_tol=SLACK)

    @settings(deadline=None)
    @given(dfs=st.tuples(DF, DF).map(sorted), p=st.floats(0.5, 1.0, exclude_min=True,
                                                          exclude_max=True))
    @example(dfs=[1, 2], p=0.9995)
    @example(dfs=[2, 3], p=1.0 - 2.0**-53)
    @example(dfs=[1, 2**80], p=0.5 + 2.0**-53)
    def test_decreasing_in_df_towards_the_normal_quantile(self, dfs, p):
        few, many = (stdtrit(df, p) for df in dfs)
        z = ndtri(p)
        assert many <= few or math.isclose(few, many, rel_tol=SLACK)
        assert z <= many or math.isclose(many, z, rel_tol=SLACK)
        if dfs[1] >= 1000:  # twice the first Cornish-Fisher term bounds the distance there
            assert many - z <= (z**3 + z) / (2 * dfs[1]) + SLACK * z

    # q subnormal: w / q keeps q's digits (113 and 107 ulps off when the logs were summed);
    # at (38, 5e-324) w is subnormal too and the logs are summed (7 ulps; w / q gave 7,580)
    @pytest.mark.parametrize("df, q, slack", [(4, 8.72e-320, 2), (8, 2.14e-313, 2),
                                              (38, 5e-324, 16)])
    def test_subnormal_tail_near_mpmath(self, df, q, slack):
        # the root in log t of log P(T > t) = log q, at 60 digits, by the secant method from
        # the tail's leading term P(T > t) ~ (df / t^2)^(df/2) / (df B(df/2, 1/2))
        with mp.workdps(60):
            nu, q_mp = mp.mpf(df), mp.mpf(q)
            tail = lambda u: mp.log(mp.betainc(nu / 2, 0.5, 0, nu / (nu + mp.exp(2 * u)),
                                               regularized=True) / 2 / q_mp)
            u0 = mp.log(mp.sqrt(nu)) - mp.log(q_mp * nu * mp.beta(nu / 2, 0.5)) / nu
            want = -float(mp.exp(mp.findroot(tail, (u0, u0 + mp.mpf(10) ** -3), solver="secant")))
        assert ulps_apart(stdtrit(df, q), want) <= slack

    @pytest.mark.parametrize("df", [0, -1, 2.0, 2.5, "3", None, math.inf])
    def test_refuses_a_df_that_is_not_a_positive_integer(self, df):
        with pytest.raises(ValueError, match="integer df >= 1"):
            stdtrit(df, 0.9)

    @settings(deadline=None)
    @given(df=DF, p=st.one_of(st.just(math.nan), st.floats(max_value=-1e-300),
                              st.floats(min_value=1.0, exclude_min=True)))
    @example(df=1, p=math.nan)
    @example(df=2, p=-0.0 - 2.0**-1074)
    @example(df=2, p=np.nextafter(1.0, 2.0))
    def test_refuses_a_p_outside_the_unit_interval(self, df, p):
        with pytest.raises(ValueError, match=r"p in \[0, 1\]"):
            stdtrit(df, p)


def import_time_modules(tree: ast.Module):
    """Modules imported when ``tree`` is imported, i.e. outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


class TestScipyStaysUnloaded:
    def test_no_module_imports_scipy_at_import_time(self):
        sources = sorted(PACKAGE_DIR.glob("*.py"))
        assert sources
        offenders = [
            f"{path.name}: {name}"
            for path in sources
            for name in import_time_modules(ast.parse(path.read_text(encoding="utf-8")))
            if name == "scipy" or name.startswith("scipy.")
        ]
        assert offenders == []

    def test_guard_sees_module_level_imports(self):
        tree = ast.parse("import numpy\nif True:\n    from scipy import special\n"
                         "def f():\n    import scipy\n")
        assert sorted(import_time_modules(tree)) == ["numpy", "scipy"]

    def test_cli_commands_without_vector_calls_do_not_load_scipy(self, tmp_path):
        configs = {
            "fit": {"data": str(FIXTURE), "degree": 3},
            "select": {"data": str(FIXTURE), "degrees": [2, 3, 4]},
            "forecast": {"data": str(FIXTURE), "degree": 3, "fit_until": 246.0},
            "fpt": {"data": str(FIXTURE), "degree": 3, "boundary": 0.7, "t_max": 350.0},
            # the README example: 200 x 500 draws, under simulate.NDTRI_PORT_MAX
            "simulate": {"params": {"eta": 0.3679, "beta": [0.1, -0.009, 0.0002], "sigma2": 1e-4},
                         "init": {"x0": 5.0}, "grid": {"start": 0, "stop": 50, "num": 501},
                         "paths": 200, "seed": 1},
        }
        for command, cfg in configs.items():
            (tmp_path / f"{command}.json").write_text(json.dumps(cfg), encoding="utf-8")
        script = (
            "import sys\n"
            "import mslogistic\n"
            "from mslogistic.cli import main\n"
            "print('loaded:', 'import', 0, 'scipy' in sys.modules)\n"
            f"for command in {list(configs)!r}:\n"
            "    code = main([command, '--config', command + '.json', '--out', command])\n"
            "    print('loaded:', command, code, 'scipy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(PACKAGE_DIR.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = [line.split()[1:] for line in done.stdout.splitlines()
                 if line.startswith("loaded:")]
        assert lines == [[step, "0", "False"] for step in ["import", *configs]]

