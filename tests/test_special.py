"""The special functions against scipy, and where scipy gets loaded.

``scipy.special`` is the oracle: the ``ndtri`` and ``expit`` ports must return
the same doubles, bit for bit, on a fixed seeded sample.  ``ndtr`` is libm's
``erfc``, bit for bit, and close to scipy's.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special as sc

import mslogistic
from mslogistic._special import expit, ndtr, ndtri

PACKAGE_DIR = Path(mslogistic.__file__).parent
FIXTURE = Path(__file__).parent / "data" / "epidemic_shaped.csv"


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

