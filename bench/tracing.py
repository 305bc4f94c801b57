"""Spans around the public functions of each robustz layer, from outside it.

``Tracer.install`` rebinds every module attribute of ``robustz.*`` that
holds one of the traced functions, so calls between layers (for example
``greedy_max`` calling ``greedy_min``, or ``cli`` calling
``build_match_matrix``) pass through a wrapper and become nested spans.
Spans stay in memory; ``Tracer.write`` stores them once, at the end.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` indexes
the enclosing span (-1 for none), ``op`` is the benchmark op it belongs
to. Times come from ``time.monotonic``, which is CLOCK_MONOTONIC on
Linux and so comparable between the benchmark and its CLI children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

clock = time.monotonic

# Public functions on the path to a test answer, by layer. oracle and
# qip_export are not on that path and stay untraced.
TRACED = {
    "data_io": ("load_dataset",),
    "matching": ("build_match_matrix", "build_effect_matrix"),
    "greedy": ("build_sorted_list", "greedy_min", "greedy_max"),
    "hungarian": ("hungarian_min", "hungarian_max", "case3_selection"),
    "orchestrator": ("run_test", "solve", "iter_sweep"),
    "statistic": ("stats_from_values", "z_statistic", "gamma_roots", "normal_upper_tail",
                  "p_values", "classify_robustness"),
    "cli": ("main",),
}

CASES = ("min_case2", "min_case3", "min_case1", "max_case1", "max_case3", "max_case2",
         "fallback")

# Spans whose self time is reported on its own; statistic is reported as a whole.
SELF_TIMED = [f"{layer}.{fn}" for layer, fns in TRACED.items() if layer != "statistic"
              for fn in fns] + ["matching.from_effects"]

PER_LAYER = (
    [("data_io.rows", "count"),
     ("matching.candidate_pairs", "count"), ("matching.eligible_pairs", "count"),
     ("matching.eligible_ratio", "ratio"),
     ("greedy.build_sorted_list.calls_per_test", "count"),
     ("greedy.infeasible_share", "ratio"),
     ("hungarian.calls_per_test", "count"), ("hungarian.augmentations_per_call", "count"),
     ("orchestrator.ladder_attempts_per_test", "count"),
     ("orchestrator.ladder_hit_ratio", "ratio"),
     ("orchestrator.witnessed_bound_share", "ratio")]
    + [(f"orchestrator.case.{c}", "ratio") for c in CASES]
    + [(f"{name}.self_s", "s") for name in SELF_TIMED]
    + [("statistic.self_s", "s"), ("statistic.calls_per_test", "count"),
       ("cli.startup_s", "s"),
       ("trace.overhead_s", "s"), ("trace.uncovered_share", "ratio")]
)


def _result_attrs(name: str, result) -> dict | None:
    """Work counters read off a traced function's return value."""
    if name in ("greedy.greedy_min", "greedy.greedy_max"):
        return {"infeasible": type(result).__name__ == "Infeasible"}
    if name in ("hungarian.hungarian_min", "hungarian.hungarian_max"):
        return {"cardinality": result.cardinality}
    if name == "orchestrator.run_test":
        return {"cases": [result.case_used_min, result.case_used_max]}
    if name == "matching.build_match_matrix":
        return {"eligible": result.nnz}
    if name == "data_io.load_dataset":
        return {"rows": len(result.units) + result.excluded}
    return None


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._installed: list[tuple] = []

    def _open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock() if start is None else start, None, parent,
                           self._op, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op=None, start: float | None = None):
        outer = self._op
        if op is not None:
            self._op = op
        idx = self._open(name, start)
        try:
            yield idx
        finally:
            self._close(idx)
            self._op = outer

    def merge(self, spans: list[list]) -> None:
        """Adopt spans recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, p, _, attrs in spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p, self._op, attrs])

    def wrap(self, name: str, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between
            # items is not charged to the generator
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with tracer.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            return traced_gen

        if name == "orchestrator.solve":
            def traced_solve(em, n, direction, trace=None):
                tags = [] if trace is None else trace
                before = len(tags)
                with tracer.span(name) as idx:
                    result = fn(em, n, direction, tags)
                case = getattr(result, "case", None)
                tracer.spans[idx][5] = {"attempts": len(tags) - before,
                                        "hit": case is not None and case != "fallback"}
                return result
            return traced_solve

        def traced(*args, **kwargs):
            with tracer.span(name) as idx:
                result = fn(*args, **kwargs)
            tracer.spans[idx][5] = _result_attrs(name, result)
            return result
        return traced

    def install(self) -> None:
        """Rebind every robustz module attribute that holds a traced function."""
        importlib.import_module("robustz.cli")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "robustz" or key.startswith("robustz.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"robustz.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self.wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper)
        effect_matrix = sys.modules["robustz.matching"].EffectMatrix
        from_effects = effect_matrix.__dict__["from_effects"]
        self._rebind(effect_matrix, "from_effects",
                     classmethod(self.wrap("matching.from_effects", from_effects.__func__)))

    def _rebind(self, owner, key: str, value) -> None:
        self._installed.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Put back every attribute ``install`` rebound."""
        while self._installed:
            owner, key, original = self._installed.pop()
            setattr(owner, key, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def layer_metrics(spans: list[list], tests: int, ops: int, candidate_pairs: int,
                  overhead_s: float, witnessed_share: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; times are per op, counts per test."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attrs: dict[str, list] = defaultdict(list)
    top_greedy = []             # greedy calls made by the ladder, not by greedy_max
    op_total = uncovered = 0.0
    for k, (name, start, end, parent, _, extra) in enumerate(spans):
        own = end - start - child_time[k]
        calls[name] += 1
        if name == "op":
            op_total += end - start
            uncovered += own
            continue
        self_time["statistic" if name.startswith("statistic.") else name] += own
        if extra is not None:
            attrs[name].append(extra)
        if name.startswith("greedy.greedy_") and spans[parent][0] != "greedy.greedy_max":
            top_greedy.append(extra["infeasible"])

    def share(part, whole):
        return part / whole if whole else 0.0

    cardinalities = [a["cardinality"] for key in ("hungarian.hungarian_min",
                                                  "hungarian.hungarian_max")
                     for a in attrs[key]]
    solves = attrs["orchestrator.solve"]
    attempts = sum(a["attempts"] for a in solves)
    case_mix = Counter(c for a in attrs["orchestrator.run_test"] for c in a["cases"])
    matchings = calls["matching.build_match_matrix"]
    eligible = share(sum(a["eligible"] for a in attrs["matching.build_match_matrix"]), matchings)
    startups = [end - start for name, start, end, *_ in spans if name == "cli.startup"]

    metrics = {
        "data_io.rows": share(sum(a["rows"] for a in attrs["data_io.load_dataset"]),
                              calls["data_io.load_dataset"]),
        "matching.candidate_pairs": candidate_pairs if matchings else 0,
        "matching.eligible_pairs": eligible,
        "matching.eligible_ratio": share(eligible, candidate_pairs),
        "greedy.build_sorted_list.calls_per_test": share(calls["greedy.build_sorted_list"], tests),
        "greedy.infeasible_share": share(sum(top_greedy), len(top_greedy)),
        "hungarian.calls_per_test": share(len(cardinalities), tests),
        "hungarian.augmentations_per_call": share(sum(cardinalities), len(cardinalities)),
        "orchestrator.ladder_attempts_per_test": share(attempts, tests),
        "orchestrator.ladder_hit_ratio": share(sum(a["hit"] for a in solves), attempts),
        "orchestrator.witnessed_bound_share": witnessed_share,
    }
    metrics.update({f"orchestrator.case.{c}": share(case_mix[c], tests) for c in CASES})
    metrics.update({f"{name}.self_s": share(self_time[name], ops) for name in SELF_TIMED})
    metrics.update({
        "statistic.self_s": share(self_time["statistic"], ops),
        "statistic.calls_per_test": share(sum(v for k, v in calls.items()
                                              if k.startswith("statistic.")), tests),
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "trace.overhead_s": overhead_s,
        "trace.uncovered_share": share(uncovered, op_total),
    })
    return metrics
