"""Spans and counts around the calls into each layer of acmdp.

install() rebinds each traced public function wherever an acmdp module (or
the benchmark's own caller namespace) holds a reference to it, so calls
made through module globals land in a wrapper that records one span
(name, start, end, parent) and updates the layer's counters.  Spans stay in
memory until write() dumps them at the end of the run.  Span times are CPU
time of the process, the clock the end-to-end latencies use.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _nnz(tracer, args, system):
    tracer.count("compile.nnz", sum(m.nnz for m in system.transitions))


def _lhs_mb(tracer, args, lp):
    tracer.peak("build_lp.lhs_mb", lp.lhs.shape[0] * lp.lhs.shape[1] * 8 / 1e6)


def _simplex(tracer, args, result):
    lp = args[0]
    m, n = lp.lhs.shape
    artificial = int((lp.rhs >= 0).sum())
    # the dense tableau simplex_solve allocates: (m + 1) x (2n + m + artificial + 1)
    tracer.peak("simplex.tableau_mb", (m + 1) * (2 * n + m + artificial + 1) * 8 / 1e6)
    tracer.count("simplex.pivots", result.pivots)


def _sweeps(tracer, args, result):
    tracer.count("vi.sweeps", result[1])


def _export_bytes(tracer, args, result):
    tracer.count("export.bytes", os.path.getsize(args[1]))


def _import_rows(tracer, args, result):
    tracer.count("import.rows", len(result.rows))


# (module, attribute, span name, hook on the result)
TARGETS = (
    ("acmdp.bellman", "compile_system", "compile", _nnz),
    ("acmdp.bellman", "build_bellman_lp", "build_lp", _lhs_mb),
    ("acmdp.simplex", "simplex_solve", "simplex", _simplex),
    ("acmdp.value_iteration", "value_iterate", "vi", _sweeps),
    ("acmdp.bellman", "verify_solution", "verify", None),
    ("acmdp.policy", "decision_values", "policy", None),
    ("acmdp.policy", "extract_policy", "policy", None),
    ("acmdp.policy", "solve_scenario", "solve", None),
    ("acmdp.experiments", "run_sweep", "sweep", None),
    ("acmdp.config", "parse_scenario", "parse", None),
    ("acmdp.policy", "export_values", "export", _export_bytes),
    ("acmdp.policy", "import_values", "import", _import_rows),
    ("acmdp.policy", "LoadedValues.lookup", "lookup", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)

    def span(self, name: str, fn, hook=None):
        """fn wrapped so that each call records a span and runs the hook."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, *namespaces) -> None:
        """Rebind every traced function in acmdp's modules and in namespaces.

        A target the program no longer defines is skipped; its metrics read 0.
        """
        modules = [m for name, m in sys.modules.items() if name.startswith("acmdp")]
        modules += list(namespaces)
        for module, path, name, hook in TARGETS:
            owner, holders = sys.modules.get(module), modules
            *classes, attr = path.split(".")
            for cls in classes:  # a method is rebound on its class alone
                owner = getattr(owner, cls, None)
                holders = [owner]
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self.span(name, original, hook)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def summary(self, ops: int) -> dict[str, float]:
        """Per-layer totals: ms per operation, lookup us per call, setup per call.

        Spans outside any "op" span (set-up) count only for import.
        """
        durations: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        in_op = [False] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_op[i] = in_op[parent] or self.spans[parent][0] == "op"
        sweep_solves = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == "op" or (not in_op[i] and name != "import"):
                continue
            calls[name] += 1
            if name == "solve":
                durations[name] += end - start - child_time[i]  # self time
                if parent >= 0 and self.spans[parent][0] == "sweep":
                    sweep_solves += 1
            elif name == "policy" and parent >= 0 and self.spans[parent][0] == "policy":
                continue  # extract_policy calls decision_values; count it once
            else:
                durations[name] += end - start
        per_op = max(ops, 1)
        out = {}
        for name in ("compile", "build_lp", "simplex", "vi", "verify", "policy",
                     "solve", "sweep", "parse", "export"):
            out[f"{name}.ms"] = 1e3 * durations[name] / per_op
        out["compile.calls"] = calls["compile"] / per_op
        out["compile.nnz"] = self.counts["compile.nnz"] / max(calls["compile"], 1)
        out["build_lp.lhs_mb"] = self.counts["build_lp.lhs_mb"]
        out["simplex.pivots"] = self.counts["simplex.pivots"] / per_op
        out["simplex.tableau_mb"] = self.counts["simplex.tableau_mb"]
        out["vi.sweeps"] = self.counts["vi.sweeps"] / per_op
        out["sweep.solves"] = sweep_solves / per_op
        out["export.bytes"] = self.counts["export.bytes"] / per_op
        out["import.ms"] = 1e3 * durations["import"] / max(calls["import"], 1)
        out["import.rows"] = self.counts["import.rows"] / max(calls["import"], 1)
        out["lookup.us"] = 1e6 * durations["lookup"] / max(calls["lookup"], 1)
        return out
