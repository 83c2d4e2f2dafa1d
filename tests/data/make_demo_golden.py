"""Records the demo golden file: what each script in ``demos/`` prints.

Each script runs in a fresh interpreter from an empty temporary directory, with
the ``src`` of the checkout that holds this file first on ``PYTHONPATH``.  The
file keeps each script's stdout after a ``==> <script name> <==`` line, in the
order of the script names:

    python tests/data/make_demo_golden.py > tests/data/demo_golden.txt
    python tests/data/make_demo_golden.py --check

``--check`` writes nothing: it prints a diff against the recorded file and
exits 1 if they differ.  A script that exits with an error stops the generator
with its stderr.
"""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # finds golden_io when loaded by path too
from golden_io import emit  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GOLDEN = HERE / "demo_golden.txt"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
HEADER = "==> {} <==\n"


def run_demo(script: Path) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter from an empty temporary directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        return subprocess.run([sys.executable, str(script)], cwd=tmp, env=env,
                              capture_output=True, text=True, timeout=300)


def recorded_outputs(text: str) -> dict[str, str]:
    """The stdout the golden ``text`` keeps for each script name."""
    parts = re.split(r"^==> (\S+) <==\n", text, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


def main() -> int:
    text = ""
    for script in DEMOS:
        proc = run_demo(script)
        if proc.returncode:
            sys.exit(f"{script.name} exited with {proc.returncode}:\n{proc.stderr}")
        text += HEADER.format(script.name) + proc.stdout
    return emit(text, GOLDEN)


if __name__ == "__main__":
    sys.exit(main())
