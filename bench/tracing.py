"""Spans around thermoflow's public functions, recorded from outside.

``install`` replaces each traced function, in every loaded thermoflow
module that holds a reference to it, with a wrapper that opens a span on
entry and closes it on exit. Spans nest through a stack, so each one
knows its parent, and a span's self time is its duration minus the
durations of its children. The benchmark's own operation roots
(``op:<kind>``) sit at the top. Aggregates are kept per (workload, span,
parent span); full spans are kept only for the first round of each
workload and written out at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# module -> public functions wrapped with a span
TRACED = {
    "theory": ("gibbs_state", "compose", "tensor_power_compressed"),
    "lorenz": ("build_curve", "compare"),
    "convert": ("can_convert", "feasibility_oracle", "smallest_epsilon"),
    "simplex": ("solve_standard_lp",),
    "oneshot": ("w_gain", "w_cost_bounds"),
    "asymptotics": ("compressed_d_h_epsilon", "finite_n_gap", "aep_sweep"),
    "stateio": ("load_state", "dumps"),
    "cli": ("main",),
}

# span -> counts read from its arguments and result
COUNTERS = {
    "theory.tensor_power_compressed": lambda args, out: {"classes": out.n_classes},
    "lorenz.build_curve": lambda args, out: {"breakpoints": len(out.x)},
    "simplex.solve_standard_lp": lambda args, out: {
        "rows": len(args[0]), "cols": len(args[0][0])},
}


class Tracer:
    def __init__(self):
        self.workload = None
        self.stack = []        # open spans: [id, name, child_ns, recording]
        self.stats = {}        # (workload, name, parent) -> [calls, self_ns, counts]
        self.spans = []        # first round of each workload
        self._record_ops = 0   # operation roots still to record in full
        self._op = None
        self._next_id = 0

    def begin_workload(self, name, round_size: int):
        """Attribute spans to workload ``name`` (None: record nothing) and
        keep every span of its first ``round_size`` operations."""
        self.workload = name
        self._record_ops = round_size

    def root(self, kind: str, run):
        """``run`` wrapped in an operation root span."""
        def traced_operation():
            self._op = self._next_id
            recording = self._record_ops > 0
            self._record_ops -= 1
            return self._span("op:" + kind, run, (), {}, None, recording)
        return traced_operation

    def wrap(self, name: str, func):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            return self._span(name, func, args, kwargs, counter, None)

        return traced

    def _span(self, name, func, args, kwargs, counter, recording):
        if self.workload is None:  # warm-up
            return func(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        if recording is None:
            recording = parent is not None and parent[3]
        frame = [span_id, name, 0, recording]
        self.stack.append(frame)
        out = None
        start = time.perf_counter_ns()
        try:
            out = func(*args, **kwargs)
            return out
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            duration = end - start
            self_ns = duration - frame[2]
            if parent is not None:
                parent[2] += duration
            parent_name = parent[1] if parent is not None else None
            entry = self.stats.setdefault((self.workload, name, parent_name), [0, 0, {}])
            entry[0] += 1
            entry[1] += self_ns
            if counter is not None and out is not None:
                for key, value in counter(args, out).items():
                    entry[2][key] = entry[2].get(key, 0) + value
            if recording:
                self.spans.append({
                    "id": span_id, "parent": parent[0] if parent is not None else None,
                    "op": self._op, "workload": self.workload, "name": name,
                    "start_us": start / 1e3, "end_us": end / 1e3, "self_us": self_ns / 1e3,
                })

    def calls(self, workload, name, parent=...):
        return sum(v[0] for k, v in self._match(workload, name, parent))

    def self_ns(self, workload, name, parent=...):
        return sum(v[1] for k, v in self._match(workload, name, parent))

    def count(self, workload, name, key, parent=...):
        return sum(v[2].get(key, 0) for k, v in self._match(workload, name, parent))

    def _match(self, workload, name, parent):
        return [(k, v) for k, v in self.stats.items()
                if k[0] == workload and k[1] == name and (parent is ... or k[2] == parent)]

    def span_counts(self) -> dict:
        """Calls of each span name per workload."""
        out = {}
        for (workload, name, _), entry in self.stats.items():
            per = out.setdefault(workload, {})
            per[name] = per.get(name, 0) + entry[0]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "calls": self.span_counts()}, handle)


def install(tracer: Tracer):
    """Wrap every function in TRACED wherever thermoflow refers to it."""
    for module_name in TRACED:
        importlib.import_module("thermoflow." + module_name)
    modules = [m for name, m in sys.modules.items()
               if name == "thermoflow" or name.startswith("thermoflow.")]
    for module_name, functions in TRACED.items():
        module = sys.modules["thermoflow." + module_name]
        for function in functions:
            original = getattr(module, function)
            wrapper = tracer.wrap(f"{module_name}.{function}", original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
