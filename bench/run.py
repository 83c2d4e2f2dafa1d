"""mslogistic benchmark runner.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is used from ``src``.
Set-up is timed over several fresh interpreters, then passes of the workload
repeat until ``--seconds`` have elapsed; every operation's output is checked.
With ``--trace 0`` the end-to-end metrics are printed (medians over passes);
with ``--trace 1`` traced and untraced passes alternate and the per-layer
metrics of NOTES.md are printed.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the environment, the workload sizes
and every failure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name, unit: printed with --trace 0, in this order
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("est_rel_err", "ratio"), ("success_rate", "ratio"))
# per-layer metrics measured by the runner rather than read from spans
RUNNER_LAYER = (("cli.bytes_written", "B"), ("trace.overhead_s", "s"))


class Child:
    """Runs one child process at a time and reports its own resource usage."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.log = work / "child.log"
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(self, argv: list[str], cwd: Path) -> dict:
        timeout = max(1.0, self.deadline - time.perf_counter())
        with self.log.open("wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = self.log.read_text(errors="replace").strip().splitlines()[-1:]
        return {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "tail": tail[0] if tail else ""}


# ---------------------------------------------------------------------------
# environment

def environment(root: Path) -> dict:
    import numpy

    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "mslogistic").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def fixture_truth_and_box(root: Path):
    """The fixture's generating parameters (make_fixture.PARAMS) and SA box."""
    from mslogistic.cli import ingest_csv
    from mslogistic.fit_sa import build_box

    spec = importlib.util.spec_from_file_location("make_fixture", root / workloads.MAKE_FIXTURE)
    make_fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixture)
    truth = [float(v) for v in make_fixture.PARAMS.as_vector()]
    return truth, build_box(ingest_csv(root / workloads.FIXTURE), workloads.DEGREE)


# ---------------------------------------------------------------------------
# passes

def cli_pass(args, child: Child, work: Path, checker, traced: bool, seed: int) -> dict:
    outs = work / ("traced" if traced else f"untraced-{seed}")
    done = {"traced": traced, "timed": True, "wall": 0.0, "cpu": 0.0, "rss_mb": 0.0, "attempted": 0,
            "failed": 0, "failures": [], "seen": {}, "digests": {}, "bytes": 0, "spans": []}
    for name, msl_args in workloads.cli_commands(args.workload, seed):
        out_dir = outs / name
        shutil.rmtree(out_dir, ignore_errors=True)
        tail = [*msl_args, "--out", str(out_dir.relative_to(work))]
        spans_file = work / f"spans-{name}.json"
        if traced:
            argv = [str(BENCH / "child.py"), "cli", str(spans_file), *tail]
        else:
            argv = ["-m", "mslogistic.cli", *tail]
        r = child.run(argv, cwd=work)
        done["attempted"] += 1
        done["wall"] += r["wall"]
        done["cpu"] += r["cpu"]
        done["rss_mb"] = max(done["rss_mb"], r["rss_mb"])
        if r["code"] != 0:
            failures, seen = [f"{name}: exit code {r['code']}: {r['tail']}"], {}
        else:
            failures, seen = checker.check(name, out_dir)
            done["digests"][name] = seen.pop("digest", None)
            done["bytes"] += workloads.bytes_written(out_dir)
        done["failed"] += bool(failures)
        done["failures"] += failures
        done["seen"][name] = seen
        if traced and spans_file.exists():
            done["spans"].append(json.loads(spans_file.read_text(encoding="utf-8")))
            spans_file.unlink()
    return done


def run_cli(args, root: Path, child: Child, work: Path, traced: bool) -> list[dict]:
    truth, box = fixture_truth_and_box(root)
    checker = workloads.CliChecker(args.workload, args.size, work, box, truth)

    def one_pass(with_trace: bool, seed: int) -> dict:
        p = cli_pass(args, child, work, checker, with_trace, seed)
        estimate = p["seen"].get("fit" if args.workload == "epidemic_cli" else "fit_sa", {})
        if "estimate" in estimate:
            p["est_rel_err"] = workloads.rel_err(estimate["estimate"], truth)
        p["nonconverged_degrees"] = p["seen"].get("select", {}).get("nonconverged_degrees")
        return p

    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(one_pass(traced and len(passes) % 2 == 1, args.seed))
        if child.deadline - time.perf_counter() < 2 * passes[-1]["wall"]:
            break
        if time.perf_counter() - begin >= args.seconds and (not traced or len(passes) >= 2):
            break
    if args.workload == "anneal_fixture" and not traced:
        # est_rel_err comes from the SA average at the fixed seed, so that it
        # is one number for every --seed; this pass is checked but not timed
        passes.append(one_pass(False, workloads.ESTIMATE_SEED) | {"timed": False})
    return passes


def run_library(args, root: Path, child: Child, work: Path, traced: bool) -> tuple[list[dict], dict]:
    out = work / "library.json"
    r = child.run([str(BENCH / "child.py"), "library", args.size, str(args.seed),
                   str(args.seconds), "1" if traced else "0", str(out)], cwd=root)
    if r["code"] != 0 or not out.exists():
        n = len(workloads.LIBRARY_OPS)
        failed = {"traced": False, "wall": r["wall"], "cpu": r["cpu"], "attempted": n,
                  "failed": n, "failures": [f"library worker: exit code {r['code']}: {r['tail']}"]}
        return [failed], {"rss_mb": r["rss_mb"]}
    result = json.loads(out.read_text(encoding="utf-8"))
    name, start, end = result["import_span"]
    for p in result["passes"]:
        if p["traced"]:
            p["spans"] = [p["spans"], [[0, None, name, start, end, None]]]
    return result["passes"], {"rss_mb": r["rss_mb"], "est_rel_err": result.get("est_rel_err")}


def tracing_changes(passes: list[dict]) -> list[str]:
    """Outputs of traced passes that differ from those of the first untraced pass."""
    plain = next(p for p in passes if not p["traced"])
    keys = ("digests",) if "digests" in plain else ("estimate", "std_errors", "fpt")
    return [f"tracing changed {key}" for p in passes if p["traced"]
            for key in keys if p.get(key) != plain.get(key)]


# ---------------------------------------------------------------------------
# metrics

def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes, setup_times, extra, attempted, failed) -> dict:
    timed = [p for p in passes if p.get("timed", True)]
    rss = extra["rss_mb"] if "rss_mb" in extra else median(p["rss_mb"] for p in timed)
    est = extra.get("est_rel_err")
    if est is None:
        untimed = [p for p in passes if not p.get("timed", True)]
        ests = [p["est_rel_err"] for p in untimed or timed if "est_rel_err" in p]
        est = median(ests) if ests else 1.0   # a missing estimate counts as 100% error
    values = {
        "wall_s": median(p["wall"] for p in timed),
        "cpu_s": median(p["cpu"] for p in timed),
        "setup_s": median(setup_times),
        "peak_rss_mb": rss,
        "est_rel_err": est,
        "success_rate": 1.0 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = [spans.layer_metrics(p["spans"]) for p in traced] or [spans.layer_metrics([])]
    values = {name: median(row[name] for row in rows) for name, *_ in spans.PER_LAYER}
    values["cli.bytes_written"] = median(p.get("bytes", 0) for p in traced) if traced else 0.0
    values["trace.overhead_s"] = (median(p["wall"] for p in traced) - median(p["wall"] for p in plain)
                                  if traced and plain else 0.0)
    units = {name: unit for name, unit, *_ in spans.PER_LAYER} | dict(RUNNER_LAYER)
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


# ---------------------------------------------------------------------------

def measure(args, root: Path, work: Path) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    child = Child(root, work, deadline)
    traced = args.trace == 1
    setup_argv = [str(BENCH / "child.py"), "setup", args.workload, args.size, str(work)]
    setup_times, setup_failures = [], []
    for _ in range(1 if traced else SETUP_REPEATS):
        r = child.run(setup_argv, cwd=root)
        setup_times.append(r["wall"])
        if r["code"] != 0:
            setup_failures.append(f"setup: exit code {r['code']}: {r['tail']}")
    if setup_failures:
        return {"passes": [], "failures": setup_failures, "failed": len(setup_failures),
                "attempted": len(setup_times)}

    if args.workload in workloads.CLI_WORKLOADS:
        passes, extra = run_cli(args, root, child, work, traced), {}
    else:
        passes, extra = run_library(args, root, child, work, traced)
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(p["failed"] for p in passes)
    if traced and any(not p["traced"] for p in passes):
        changed = tracing_changes(passes)
        failures += changed
        failed += len(changed)
    attempted = sum(p["attempted"] for p in passes)
    metrics = (per_layer(passes) if traced
               else end_to_end(passes, setup_times, extra, attempted, failed))
    return {"passes": passes, "failures": failures, "failed": failed, "attempted": attempted,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'tiny' shrinks the inputs, for the self-check tests")
    args = parser.parse_args(argv)

    root = BENCH.parent
    missing = [str(p) for p in (workloads.PACKAGE, workloads.FIXTURE, workloads.MAKE_FIXTURE)
               if not (root / p).is_file()]
    if missing:
        print(f"error: not an mslogistic source checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = environment(root)
        result = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment", json.dumps(env, sort_keys=True))
    print("workload", json.dumps(workloads.sizes(args.workload, args.size, args.seed)))
    passes = result["passes"]
    print(f"passes {len(passes)} ({sum(p['traced'] for p in passes)} traced, "
          f"{sum(not p.get('timed', True) for p in passes)} untimed)")
    defects = [p.get("nonconverged_degrees") for p in passes]
    if any(defects):
        print(f"known defect: select_degree ranks {max(filter(None, defects))} non-converged "
              "degrees by BIC (counted, not a failure)")
    failures = result["failures"]
    attempted = max(result["attempted"], 1)
    for failure in failures:
        print("FAILED", failure)
    metrics = result.get("metrics", {})
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    failed = result["failed"]
    print(f"error_rate {failed / attempted!r} ratio ({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
