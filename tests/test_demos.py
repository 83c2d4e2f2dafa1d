"""Every script in ``demos/`` runs to completion and prints what ``demo_golden.txt`` records."""

import importlib.util
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"
_maker = importlib.util.spec_from_file_location("make_demo_golden",
                                                DATA_DIR / "make_demo_golden.py")
make_demo_golden = importlib.util.module_from_spec(_maker)
_maker.loader.exec_module(make_demo_golden)
RECORDED = make_demo_golden.recorded_outputs((DATA_DIR / "demo_golden.txt").read_text())


def test_every_demo_is_recorded():
    assert sorted(RECORDED) == [p.name for p in make_demo_golden.DEMOS]


@pytest.mark.parametrize("script", make_demo_golden.DEMOS,
                         ids=[p.name for p in make_demo_golden.DEMOS])
def test_demo_runs(script):
    proc = make_demo_golden.run_demo(script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == RECORDED[script.name]
