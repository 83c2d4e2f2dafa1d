"""Span tracing of the mslogistic layers, installed from outside the package.

``Tracer.install`` wraps each layer's public functions (``WRAPPED``) and
rebinds every wrapper in every ``mslogistic`` module namespace that holds the
original object, so calls made through ``from .likelihood import
compute_stats`` in ``fit_nr``, ``fit_sa`` and ``asymptotics`` are seen too.
Each call records a span ``(id, parent, name, start, end, extra)`` in memory;
``extra`` holds the counts read from the call's result.  ``layer_metrics``
turns the spans of one pass into the per-layer metrics of ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# Layer module -> public functions wrapped in the traced run.
WRAPPED = {
    "likelihood": ("transform", "compute_stats", "loglik", "grad_loglik", "fit_initial"),
    "fit_nr": ("fit", "initial_theta", "initial_sigma2"),
    "fit_sa": ("anneal", "build_box"),
    "selection": ("select_degree", "dra_curve"),
    "simulate": ("simulate_panel",),
    "asymptotics": ("fisher_info", "confidence_intervals"),
    "fpt": ("solve_density", "fptl_curve"),
    "model": ("integrated_drift", "curve", "process_mean", "percentile", "drift_rate"),
    "cli": ("ingest_csv", "run"),
}

# Counts read from a call's result (and, for anneal, from its uphill log).
_MEASURES = {
    "likelihood.transform": lambda res, log: {"transitions": res.n},
    "fit_nr.fit": lambda res, log: {"iterations": res.iterations,
                                    "nonconverged": int(not res.converged)},
    "fit_sa.anneal": lambda res, log: {"uphill": len(log),
                                       "uphill_accepted": sum(1 for _, acc in log if acc)},
    "selection.select_degree": lambda res, log: {
        "nonconverged": sum(1 for e in res.per_degree if not e.converged)},
    "simulate.simulate_panel": lambda res, log: {"paths": res.d},
    "fpt.solve_density": lambda res, log: {"nodes": int(res.times.size)},
}

MODEL_FUNCTIONS = tuple(f"model.{fn}" for fn in WRAPPED["model"])


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._rebound: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span that was timed by the caller (such as ``cli.import``)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._new_id(), parent, name, start, end, None))

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = _MEASURES.get(name)
        takes_log = name == "fit_sa.anneal"
        signature = inspect.signature(fn) if takes_log else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = None
            if takes_log:
                # the public uphill_log argument: appending to it draws no
                # random numbers, so the annealing path is unchanged
                bound = signature.bind(*args, **kwargs)
                log = bound.arguments.get("uphill_log")
                if log is None:
                    log = []
                    kwargs["uphill_log"] = log
            sid = self._new_id()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, parent, name, start, end,
                          measure(result, log) if measure else None))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in ``WRAPPED`` wherever the package bound it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mslogistic" or key.startswith("mslogistic."))]
        for layer, names in WRAPPED.items():
            module = sys.modules.get(f"mslogistic.{layer}")
            if module is None:
                continue
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._rebound.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._rebound):
            setattr(namespace, attr, original)
        self._rebound.clear()

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _layer_totals(span_lists):
    """Per span name: calls, self seconds, summed counts, and nested work.

    ``span_lists`` holds one span list per process.  Self time is a span's
    duration minus the durations of its direct children.
    """
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for spans in span_lists:
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end, extra in spans:
            if parent is not None:
                child_time[parent] += end - start
        for sid, parent, name, start, end, extra in spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["seconds"] += end - start
            entry["self_s"] += end - start - child_time[sid]
            for key, value in (extra or {}).items():
                entry[key] += value
            if name == "likelihood.compute_stats":
                # attribute the call to the estimators it runs beneath
                ancestors = set()
                up = parent
                while up is not None:
                    ancestors.add(by_id[up][2])
                    up = by_id[up][1]
                for owner in ("fit_nr.fit", "fit_sa.anneal"):
                    if owner in ancestors:
                        totals[owner]["stats_calls"] += 1
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name, unit, better, value from the per-name totals
PER_LAYER = [
    ("likelihood.compute_stats.calls", "count", "lower",
     lambda t: t["likelihood.compute_stats"]["calls"]),
    ("likelihood.compute_stats.self_s", "s", "lower",
     lambda t: t["likelihood.compute_stats"]["self_s"]),
    ("likelihood.transform.calls", "count", "lower",
     lambda t: t["likelihood.transform"]["calls"]),
    ("likelihood.transform.self_s", "s", "lower",
     lambda t: t["likelihood.transform"]["self_s"]),
    ("likelihood.transform.transitions", "count", "lower",
     lambda t: t["likelihood.transform"]["transitions"]),
    ("likelihood.loglik.self_s", "s", "lower",
     lambda t: t["likelihood.loglik"]["self_s"]),
    ("fit_nr.fit.calls", "count", "lower", lambda t: t["fit_nr.fit"]["calls"]),
    ("fit_nr.fit.self_s", "s", "lower", lambda t: t["fit_nr.fit"]["self_s"]),
    ("fit_nr.fit.iterations", "count", "lower", lambda t: t["fit_nr.fit"]["iterations"]),
    ("fit_nr.fit.nonconverged", "count", "lower", lambda t: t["fit_nr.fit"]["nonconverged"]),
    ("fit_nr.fit.stats_per_iteration", "calls/iter", "lower",
     lambda t: _ratio(t["fit_nr.fit"]["stats_calls"], t["fit_nr.fit"]["iterations"])),
    ("fit_nr.initial_sigma2.self_s", "s", "lower",
     lambda t: t["fit_nr.initial_sigma2"]["self_s"]),
    ("fit_nr.initial_theta.self_s", "s", "lower",
     lambda t: t["fit_nr.initial_theta"]["self_s"]),
    ("fit_sa.anneal.self_s", "s", "lower", lambda t: t["fit_sa.anneal"]["self_s"]),
    ("fit_sa.anneal.evals", "count", "lower", lambda t: t["fit_sa.anneal"]["stats_calls"]),
    ("fit_sa.uphill_accept_ratio", "ratio", "higher",
     lambda t: _ratio(t["fit_sa.anneal"]["uphill_accepted"], t["fit_sa.anneal"]["uphill"])),
    ("fit_sa.build_box.self_s", "s", "lower", lambda t: t["fit_sa.build_box"]["self_s"]),
    ("selection.select_degree.self_s", "s", "lower",
     lambda t: t["selection.select_degree"]["self_s"]),
    ("selection.dra_curve.self_s", "s", "lower",
     lambda t: t["selection.dra_curve"]["self_s"]),
    ("selection.nonconverged_degrees", "count", "lower",
     lambda t: t["selection.select_degree"]["nonconverged"]),
    ("simulate.simulate_panel.self_s", "s", "lower",
     lambda t: t["simulate.simulate_panel"]["self_s"]),
    ("simulate.simulate_panel.paths", "count", "higher",
     lambda t: t["simulate.simulate_panel"]["paths"]),
    ("asymptotics.fisher_info.self_s", "s", "lower",
     lambda t: t["asymptotics.fisher_info"]["self_s"]),
    ("asymptotics.confidence_intervals.self_s", "s", "lower",
     lambda t: t["asymptotics.confidence_intervals"]["self_s"]),
    ("fpt.solve_density.self_s", "s", "lower", lambda t: t["fpt.solve_density"]["self_s"]),
    ("fpt.solve_density.nodes", "count", "lower", lambda t: t["fpt.solve_density"]["nodes"]),
    ("fpt.fptl_curve.self_s", "s", "lower", lambda t: t["fpt.fptl_curve"]["self_s"]),
    ("model.self_s", "s", "lower",
     lambda t: sum(t[name]["self_s"] for name in MODEL_FUNCTIONS)),
    ("cli.import_s", "s", "lower", lambda t: _ratio(t["cli.import"]["seconds"],
                                                    t["cli.import"]["calls"])),
    ("cli.ingest_csv.self_s", "s", "lower", lambda t: t["cli.ingest_csv"]["self_s"]),
    ("cli.run.self_s", "s", "lower", lambda t: t["cli.run"]["self_s"]),
]

# Counts that must repeat exactly for a fixed seed.
COUNT_METRICS = tuple(name for name, unit, _, _ in PER_LAYER if unit == "count")


def layer_metrics(span_lists) -> dict[str, float]:
    """Per-layer metrics of one pass from the span lists of its processes."""
    totals = _layer_totals(span_lists)
    return {name: float(value(totals)) for name, _, _, value in PER_LAYER}
