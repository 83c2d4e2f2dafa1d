"""What ``import mslogistic`` and ``import mslogistic.cli`` load, each in a fresh interpreter.

The package resolves its submodules and re-exported names on first access,
so importing it loads no numpy; the ``msl`` module runs OpenBLAS on one
thread unless ``OPENBLAS_NUM_THREADS`` is already set.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mslogistic

PACKAGE_DIR = Path(mslogistic.__file__).parent
SUBMODULES = ("asymptotics", "fit_nr", "fit_sa", "fpt", "likelihood", "model", "selection",
              "simulate")


def run_fresh(script: str, **env_vars) -> dict:
    """Run ``script`` in a new interpreter without a preset thread count; return its JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE_DIR.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestLazyPackage:
    def test_import_loads_no_numpy_and_sets_no_thread_count(self):
        seen = run_fresh(
            "import json, os, sys\n"
            "import mslogistic\n"
            "print(json.dumps({'numpy': 'numpy' in sys.modules,\n"
            "                  'threads': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
            "                  'version': mslogistic.__version__}))\n")
        assert seen == {"numpy": False, "threads": None, "version": mslogistic.__version__}

    def test_every_export_and_submodule_resolves(self):
        seen = run_fresh(
            "import json, sys\n"
            "import mslogistic\n"
            f"subs = {SUBMODULES!r}\n"
            "found = {m: getattr(mslogistic, m) is sys.modules['mslogistic.' + m] for m in subs}\n"
            "held = {n: [m for m in subs if getattr(mslogistic, m).__dict__.get(n, subs)\n"
            "            is getattr(mslogistic, n)] for n in mslogistic.__all__\n"
            "        if n != '__version__'}\n"
            "print(json.dumps({'found': found, 'held': held, 'all': mslogistic.__all__,\n"
            "                  'dir': sorted(set(dir(mslogistic)) & set(mslogistic.__all__))}))\n")
        assert seen["found"] == dict.fromkeys(SUBMODULES, True)
        # each re-exported name is the very object of a submodule that holds it
        assert all(seen["held"].values()), seen["held"]
        assert seen["all"] == mslogistic.__all__ and "__version__" in seen["all"]
        assert seen["dir"] == sorted(mslogistic.__all__)

    def test_unknown_name_raises_attribute_error(self):
        seen = run_fresh(
            "import json, sys\n"
            "import mslogistic\n"
            "try:\n"
            "    mslogistic.no_such_name\n"
            "except AttributeError as exc:\n"
            "    message = str(exc)\n"
            "try:\n"
            "    from mslogistic import no_such_name\n"
            "except ImportError:\n"
            "    imported = False\n"
            "print(json.dumps({'message': message, 'imported': imported,\n"
            "                  'numpy': 'numpy' in sys.modules}))\n")
        assert seen == {"message": "module 'mslogistic' has no attribute 'no_such_name'",
                        "imported": False, "numpy": False}

    def test_transform_loads_no_numpy_ma(self):
        # numpy imports numpy.ma on first use of np.ma, as np.unique without an
        # index output does; that costs a fresh msl process 15-40 ms
        seen = run_fresh(
            "import json, sys\n"
            "import numpy as np\n"
            "from mslogistic import PathPanel, SamplePath, transform\n"
            "before = 'numpy.ma' in sys.modules\n"
            "transform(PathPanel.from_matrix([0.0, 1.0, 2.0],\n"
            "                                [[1.0, 2.0, 3.0], [2.0, 1.0, 4.0]]))\n"
            "transform(PathPanel([SamplePath([0.0, 1.0], [1.0, 2.0]),\n"
            "                     SamplePath([0.0, 2.0], [1.0, 3.0])]))\n"
            "print(json.dumps({'before': before, 'after': 'numpy.ma' in sys.modules}))\n")
        assert seen["after"] == seen["before"]

    def test_select_degree_loads_no_numpy_ma(self):
        # np.median loads numpy.ma; select_degree takes its median from np.partition
        fixture = PACKAGE_DIR.parents[1] / "tests" / "data" / "epidemic_shaped.csv"
        seen = run_fresh(
            "import json, sys\n"
            "from mslogistic.cli import ingest_csv\n"
            "from mslogistic.selection import select_degree\n"
            "before = 'numpy.ma' in sys.modules\n"
            f"select_degree(ingest_csv({str(fixture)!r}))\n"
            "print(json.dumps({'before': before, 'after': 'numpy.ma' in sys.modules}))\n")
        assert seen == {"before": False, "after": False}


class TestBlasThreads:
    SCRIPT = (
        "import json, os\n"
        "from mslogistic.cli import main\n"
        "task = '/proc/self/task'\n"
        "print(json.dumps({'threads': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "                  'tasks': len(os.listdir(task)) if os.path.isdir(task) else None}))\n"
    )

    def test_cli_runs_blas_on_one_thread(self):
        seen = run_fresh(self.SCRIPT)
        assert seen["threads"] == "1"
        if seen["tasks"] is None:
            pytest.skip("no /proc/self/task on this platform")
        assert seen["tasks"] == 1

    def test_preset_thread_count_is_kept(self):
        assert run_fresh(self.SCRIPT, OPENBLAS_NUM_THREADS="2")["threads"] == "2"


# makes every import of scipy or of a scipy submodule raise ImportError
NO_SCIPY = (
    "import sys\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'scipy' or name.startswith('scipy.'):\n"
    "            raise ImportError(f'{name} is blocked')\n"
    "sys.meta_path.insert(0, NoScipy())\n"
)


class TestAnnealingWithoutScipy:
    DATA = Path(__file__).parent / "data"

    def test_sa_fit_runs_and_matches_its_golden_with_scipy_blocked(self):
        # make_cli_golden.record runs `msl fit --method sa` through mslogistic.cli.main
        seen = run_fresh(
            NO_SCIPY
            + "import importlib.util, json\n"
            f"path = {str(self.DATA / 'make_cli_golden.py')!r}\n"
            "spec = importlib.util.spec_from_file_location('make_cli_golden', path)\n"
            "gen = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(gen)\n"
            "record = gen.record('fit_sa')\n"
            "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
            "try:\n"
            "    import scipy.special\n"
            "    blocked = False\n"
            "except ImportError:\n"
            "    blocked = True\n"
            "print(json.dumps({'record': record, 'scipy': loaded, 'blocked': blocked}))\n")
        golden = json.loads((self.DATA / "cli_golden.json").read_text(encoding="utf-8"))
        assert seen == {"record": golden["fit_sa"], "scipy": [], "blocked": True}

    def test_build_box_leaves_scipy_special_unloaded(self):
        seen = run_fresh(
            "import json, sys\n"
            "from mslogistic.cli import ingest_csv\n"
            "from mslogistic.fit_sa import build_box\n"
            f"box = build_box(ingest_csv({str(self.DATA / 'epidemic_shaped.csv')!r}), 3)\n"
            "print(json.dumps({'intervals': len(box.beta_intervals),\n"
            "                  'scipy.special': 'scipy.special' in sys.modules}))\n")
        assert seen == {"intervals": 3, "scipy.special": False}


class TestSimulationWithoutScipy:
    @staticmethod
    def simulate(out: Path) -> str:
        """The README's simulation with 2,100 paths (1,050,000 draws, past NDTRI_PORT_MAX)."""
        return (
            "import json, sys\n"
            "import numpy as np\n"
            "from mslogistic import Degenerate, ModelParams, PolyCoeffs, SimSpec, simulate_panel\n"
            "spec = SimSpec(ModelParams(0.3679, PolyCoeffs((0.1, -0.009, 0.0002)), 1e-4),\n"
            "               Degenerate(5.0), np.linspace(0.0, 50.0, 501), 2100, 1)\n"
            f"np.save({str(out)!r}, simulate_panel(spec).values_matrix())\n"
            "print(json.dumps([name for name in sys.modules if name.split('.')[0] == 'scipy']))\n")

    def test_large_panel_without_scipy_equals_the_scipy_one(self, tmp_path):
        blocked, free = tmp_path / "blocked.npy", tmp_path / "free.npy"
        assert run_fresh(NO_SCIPY + self.simulate(blocked)) == []
        loaded = run_fresh(self.simulate(free))
        assert ("scipy.special" in loaded) == (importlib.util.find_spec("scipy") is not None)
        assert blocked.read_bytes() == free.read_bytes()  # same header, same doubles
