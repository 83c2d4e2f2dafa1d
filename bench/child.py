"""Child processes of the benchmark; each runs in a fresh interpreter.

    child.py setup <workload> <size> <work>
        Import the package and make the workload's inputs ready (set-up).
    child.py cli <spans.json> <msl arguments...>
        Traced ``msl``: time ``import mslogistic.cli`` as span ``cli.import``,
        install the layer wrappers, call ``mslogistic.cli.main``, write the
        spans to ``spans.json`` and exit with main's code.
    child.py library <size> <seed> <seconds> <trace> <out.json>
        case1_large worker: repeat passes for ``seconds``; with trace 1, traced
        and untraced passes alternate.  Writes per-pass results to out.json.

``src`` must be on PYTHONPATH; the runner sets it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import spans
import workloads


def setup(workload: str, size: str, work: str) -> None:
    if workload in workloads.CLI_WORKLOADS:
        import mslogistic.cli  # noqa: F401  (what every command pays)

        workloads.write_cli_inputs(workload, size, Path.cwd(), Path(work))
    else:
        import mslogistic  # noqa: F401

        workloads.case1_problem(size)


def cli(spans_path: str, *argv: str) -> int:
    start = time.perf_counter()
    import mslogistic.cli

    tracer = spans.Tracer()
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        code = mslogistic.cli.main(list(argv))
    finally:
        tracer.dump(spans_path)
    return code


def library(size: str, seed: str, seconds: str, trace: str, out_path: str) -> None:
    start = time.perf_counter()
    import mslogistic.cli  # noqa: F401

    import_span = ("cli.import", start, time.perf_counter())
    seed_i, traced = int(seed), trace == "1"
    inputs = workloads.case1_problem(size)
    tracer = spans.Tracer()
    passes = []
    begin = time.perf_counter()
    while True:
        with_trace = traced and len(passes) % 2 == 1
        if with_trace:
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        outcome = workloads.library_pass(size, seed_i, inputs)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if with_trace:
            tracer.uninstall()
            outcome["spans"] = tracer.take()
        passes.append({"traced": with_trace, "wall": wall, "cpu": cpu, **outcome})
        enough = time.perf_counter() - begin >= float(seconds)
        if enough and (not traced or len(passes) >= 2):
            break
    result = {"import_span": import_span, "passes": passes}
    if not traced:
        result["est_rel_err"] = workloads.case1_estimate_error(inputs)
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(*rest)
    elif mode == "cli":
        sys.exit(cli(*rest))
    elif mode == "library":
        library(*rest)
    else:
        sys.exit(f"unknown mode {mode!r}")
