"""Output of the ``make_*.py`` generators that write the recorded files in this directory.

Each generator builds its file's text and returns :func:`emit`'s exit status.
The generators import this module after putting their own directory first on
``sys.path``, so they find it whether they run as scripts or are loaded from
their file path.
"""

import difflib
import json
import sys
from pathlib import Path


def dumps(obj, level: int = 0) -> str:
    """JSON with one-space indents and every list of scalars (and empty dict) on one line."""
    pad, inner = " " * level, " " * (level + 1)
    if isinstance(obj, dict) and obj:
        items = [f"{inner}{json.dumps(k)}: {dumps(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, list) and any(isinstance(v, (list, dict)) for v in obj):
        return "[\n" + ",\n".join(inner + dumps(v, level + 1) for v in obj) + f"\n{pad}]"
    return json.dumps(obj)


def emit(text: str, recorded: Path) -> int:
    """Write ``text`` to stdout and return 0; with ``--check``, diff it against ``recorded``.

    ``--check`` writes nothing: it prints a unified diff from the recorded file
    to ``text`` and returns 1 if they differ, else 0.
    """
    if "--check" not in sys.argv[1:]:
        sys.stdout.write(text)
        return 0
    diff = list(difflib.unified_diff(recorded.read_bytes().decode().splitlines(keepends=True),
                                     text.splitlines(keepends=True), str(recorded), "generated"))
    sys.stdout.writelines(diff)
    return 1 if diff else 0
