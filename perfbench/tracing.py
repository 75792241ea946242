"""Spans and counters placed from outside the program.

``Tracer.install`` looks up public functions of the ``latticeproj`` modules
by name at run time and rebinds every module attribute (and class attribute)
that refers to one of them to a timing wrapper.  A name that a refactor
removes is listed in ``Tracer.missing`` and its metric is left out; nothing
inside ``src/`` is edited.

A span opens at a layer boundary: when the innermost open span belongs to
another layer (the prefix of its metric name), or when the target is marked
``split``.  A call inside its own layer stays in its caller's self time, so
for example the ``build_line`` that ``detect_line`` runs counts as detection.
A span's self time is its duration minus the time of the spans it contains.
Work done by the tracer's own hooks is subtracted from every enclosing span
and reported separately as ``hook_s``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter
from typing import Any, Callable

# (module, attribute path, metric, split)
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("latticeproj.cli", "main", "cli.self_ms", False),
    ("latticeproj.graph", "build_line", "graph.build_ms", False),
    ("latticeproj.graph", "build_cross_chain", "graph.build_ms", False),
    ("latticeproj.graph", "build_lattice", "graph.build_ms", False),
    ("latticeproj.graph", "build_from_edges", "graph.build_ms", False),
    ("latticeproj.graph", "load_graph", "graph.build_ms", False),
    ("latticeproj.graph", "detect_line", "graph.detect_ms", False),
    ("latticeproj.graph", "detect_cross_chain", "graph.detect_ms", False),
    ("latticeproj.graph", "detect_lattice", "graph.detect_ms", False),
    ("latticeproj.graph", "bipartition", "graph.bipartition_ms", False),
    ("latticeproj.graph", "assign_slots", "graph.assign_slots_ms", False),
    ("latticeproj.factorize", "build_polynomial", "factorize.build_polynomial_ms", False),
    ("latticeproj.factorize", "order_factors", "factorize.order_factors_ms", False),
    ("latticeproj.factorize", "FactorizedPolynomial.bind_spec", "factorize.bind_spec_ms", False),
    ("latticeproj.engines", "applicable_engines", "engines.applicable_ms", False),
    ("latticeproj.engines", "compute_amplitude", "engines.dispatch_ms", False),
    ("latticeproj.engines", "sweep_polynomial", "engines.dispatch_ms", False),
    ("latticeproj.evaluate", "sweep_evaluate", "evaluate.sweep_ms", False),
    ("latticeproj.evaluate", "line_amplitude", "evaluate.recursion_ms", False),
    ("latticeproj.evaluate", "line_recursion", "evaluate.recursion_ms", False),
    ("latticeproj.evaluate", "cross_chain_recursion", "evaluate.recursion_ms", False),
    ("latticeproj.evaluate", "column_evaluate", "evaluate.column_ms", False),
    ("latticeproj.oracle", "build_statevector", "oracle.statevector_ms", False),
    ("latticeproj.oracle", "project_statevector", "oracle.project_ms", False),
    ("latticeproj.oracle", "direct_sum", "oracle.direct_sum_ms", False),
    ("latticeproj.mbqc", "parse_circuit", "mbqc.compile_ms", False),
    ("latticeproj.mbqc", "compile_circuit", "mbqc.compile_ms", False),
    ("latticeproj.mbqc", "pattern_action_matrix", "mbqc.action_matrix_ms", False),
    ("latticeproj.mbqc", "simulate_pattern", "mbqc.simulate_ms", True),
)

ROOT_METRIC = "bench.self_ms"


def peak_active(activity: dict) -> int:
    """Most activity intervals [first, last] covering one factor position.

    Same quantity as ``factorize.max_active_slots``, by a sweep over interval
    endpoints instead of a scan of every position.
    """
    events = sorted([(lo, 1) for lo, _ in activity.values()] + [(hi + 1, -1) for _, hi in activity.values()])
    live = peak = 0
    for _, step in events:
        live += step
        peak = max(peak, live)
    return peak


# Counters, declared once per target: after a successful call each entry
# ``name: (kind, value)`` records ``value(args, result, built)``, where
# ``built`` says whether the call ran ``build_polynomial``.
# A "sum" counter adds up within an op and reports the median op; a "max"
# counter reports the peak over all ops; a "part" counter only feeds RATIOS.
HOOKS: dict[str, dict[str, tuple[str, Callable]]] = {
    "sweep_evaluate": {
        "evaluate.sweep_mul": ("sum", lambda args, report, _: report.mul_count),
        "evaluate.sweep_add": ("sum", lambda args, report, _: report.add_count),
        "evaluate.sweep_peak_live": ("max", lambda args, report, _: report.max_live_terms),
        "factorize.max_active_slots": ("max", lambda args, report, _: peak_active(args[0].activity)),
    },
    "column_evaluate": {
        "evaluate.column_peak_live": ("max", lambda args, report, _: report.max_live_terms),
    },
    "build_statevector": {
        "oracle.statevector_bytes": ("max", lambda args, sv, _: 16 << args[0].n),
    },
    "simulate_pattern": {
        "mbqc.simulate_calls": ("sum", lambda *_: 1),
        "mbqc.tensor_bytes": ("max", lambda args, out, _: 16 << args[0].graph.n),
    },
    **dict.fromkeys(("detect_line", "detect_cross_chain", "detect_lattice"), {
        "graph.detect_calls": ("sum", lambda *_: 1),
    }),
    "sweep_polynomial": {
        "engines.sweep_evals": ("part", lambda *_: 1),
        "engines.structure_reused": ("part", lambda args, poly, built: int(not built)),
        "engines.structure_builds": ("sum", lambda args, poly, built: int(built)),
    },
}

# ratio metric: (numerator, denominator), both "part" or "sum" counters
RATIOS = {"engines.structure_reuse_ratio": ("engines.structure_reused", "engines.sweep_evals")}

PEAK_COUNTERS = frozenset(n for h in HOOKS.values() for n, (kind, _) in h.items() if kind == "max")


def hook_metrics(target: str) -> set[str]:
    """Reported metrics that the counters of ``target`` feed."""
    names = HOOKS.get(target, {})
    return {n for n, (kind, _) in names.items() if kind != "part"} | {
        r for r, parts in RATIOS.items() if set(parts) <= set(names)
    }


class _Frame:
    __slots__ = ("metric", "layer", "start", "child")

    def __init__(self, metric: str, start: float):
        self.metric = metric
        self.layer = metric.split(".", 1)[0]
        self.start = start
        self.child = 0.0


class Tracer:
    """Spans and per-op counters, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.spans: list[tuple[int, str, float, float, float, int]] = []
        self.calls: Counter = Counter()
        self.op_counters: list[dict] = []
        self.counters: dict[str, int] = {}
        self.op_index = -1
        self.hook_s = 0.0
        self.installed: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []
        self.metrics: set[str] = set()

    # -- counters -------------------------------------------------------

    def count(self, name: str, kind: str, value: int) -> None:
        old = self.counters.get(name, 0)
        self.counters[name] = max(old, value) if kind == "max" else old + value

    # -- spans ----------------------------------------------------------

    def _close(self, frame: _Frame, end: float) -> None:
        dur = end - frame.start
        self.spans.append(
            (self.op_index, frame.metric, frame.start, end, dur - frame.child, len(self.stack))
        )
        if self.stack:
            self.stack[-1].child += dur

    def begin_op(self, index: int) -> None:
        self.op_index = index
        self.counters = {}
        self.stack.append(_Frame(ROOT_METRIC, time.perf_counter()))

    def end_op(self) -> None:
        frame = self.stack.pop()
        self._close(frame, time.perf_counter())
        self.op_counters.append(self.counters)
        self.counters = {}

    def clear_records(self) -> None:
        """Drop recorded spans and counters (a forked child starts empty)."""
        self.spans = []
        self.op_counters = []
        self.hook_s = 0.0

    # -- installation ---------------------------------------------------

    def _wrap(self, fn: Callable, name: str, metric: str, split: bool) -> Callable:
        tr = self
        hook = HOOKS.get(name)
        layer = metric.split(".", 1)[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            tr.calls[name] += 1
            builds_before = tr.calls["build_polynomial"]
            stack = tr.stack
            if split or not stack or stack[-1].layer != layer:
                frame = _Frame(metric, clock())
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    tr._close(frame, clock())
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                h0 = clock()
                built = tr.calls["build_polynomial"] != builds_before
                for counter, (kind, value) in hook.items():
                    tr.count(counter, kind, value(args, result, built))
                spent = clock() - h0
                tr.hook_s += spent
                if stack:
                    stack[-1].child += spent
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target that still exists; record the ones that do not."""
        self.missing = []
        modules = [m for k, m in list(sys.modules.items()) if k == "latticeproj" or k.startswith("latticeproj.")]
        for module_name, path, metric, split in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, attr, metric, split)
            self.metrics.add(metric)
            self.metrics.update(hook_metrics(attr))
            if outer:
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner: Any, key: str, wrapper: Any) -> None:
        self.installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.installed):
            setattr(owner, key, original)
        self.installed.clear()

    # -- results --------------------------------------------------------

    def records(self) -> dict:
        """Spans and counters of the ops recorded so far, in a plain dict."""
        return {"spans": self.spans, "counters": self.op_counters, "hook_s": self.hook_s}

    def merge_forked(self, data: dict, outer_s: float) -> None:
        """Take a forked op's records; ``outer_s`` is the op as its parent timed it.

        The part of ``outer_s`` outside the child's root span (fork, pipe,
        decoding the result) is booked as harness self time.
        """
        spans = [tuple(s) for s in data["spans"]]
        for op, metric, start, end, _, depth in spans:
            if depth == 0:
                self.spans.append((op, ROOT_METRIC, start, end, outer_s - (end - start), 0))
        self.spans.extend(spans)
        self.op_counters.extend(data["counters"])
        self.hook_s += data["hook_s"]

    def per_op_self_s(self, factors: list[float]) -> list[Counter]:
        """Self seconds by metric of each op, times the op's factor in ``factors``."""
        per_op = [Counter() for _ in factors]
        for op, metric, _, _, self_time, _ in self.spans:
            per_op[op][metric] += self_time * factors[op]
        return per_op

    def layer_metrics(self, factors: list[float]) -> dict[str, tuple[float, str]]:
        """Per-op self times (median over ops, ms) and counters, by metric name.

        ``factors[i]`` is op i's host-speed adjustment (see hostspeed.py),
        applied to the self times of its spans.
        """
        out: dict[str, tuple[float, str]] = {}
        per_op = self.per_op_self_s(factors)
        for metric in sorted(self.metrics | {ROOT_METRIC}):
            if metric.endswith("_ms"):
                out[metric] = (1000.0 * statistics.median(c[metric] for c in per_op), "ms")
        for name in sorted(self.metrics):
            if name.endswith("_ms") or name in RATIOS:
                continue
            values = sorted(c.get(name, 0) for c in self.op_counters) or [0]
            value = values[-1] if name in PEAK_COUNTERS else values[(len(values) - 1) // 2]
            out[name] = (value, "bytes" if name.endswith("_bytes") else "count")
        for name, (num, den) in RATIOS.items():
            if name in self.metrics:
                n = sum(c.get(num, 0) for c in self.op_counters)
                d = sum(c.get(den, 0) for c in self.op_counters)
                out[name] = (n / d if d else 0.0, "ratio")
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"op": op, "metric": m, "start": a, "end": b, "self_s": s, "depth": d}
                for op, m, a, b, s, d in self.spans
            ],
            "op_counters": self.op_counters,
            "hook_s": self.hook_s,
            "missing": self.missing,
        }
