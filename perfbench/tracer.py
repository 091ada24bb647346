"""Span tracing from outside the library.

Each traced function is replaced, at every name its callers look it up by,
with a wrapper that records one span (name, start, end, parent span, job).
``cells`` imports ``solve`` by name, so both ``troplin.cells.solve`` and
``troplin.diffcon.solve`` are wrapped; methods are wrapped on their class.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import Counter, defaultdict


def _solve_counts(counts, args, kwargs, result):
    system = args[0]
    counts["diffcon.solve.edges_total"] += len(system.constraints) + 2 * len(system.equalities)
    want_witness = kwargs.get("want_witness", args[1] if len(args) > 1 else True)
    counts["diffcon.solve.leaf_calls" if want_witness else "diffcon.solve.probe_calls"] += 1
    counts["diffcon.solve.feasible"] += bool(result.feasible)


def _local_counts(counts, args, kwargs, result):
    counts["cells.local_finds"] += len(result)


def _global_counts(counts, args, kwargs, result):
    counts["cells.unique_cells"] += len(result)


def targets(lib):
    """(owner, attribute, span name, result hook) for every traced lookup."""
    L = lib
    PV, LC, M = L.plucker.PlueckerVector, L.chart.LocalContext, L.matroid.Matroid
    return [
        (L.diffcon, "solve", "diffcon.solve", _solve_counts),
        (L.cells, "solve", "diffcon.solve", _solve_counts),
        (L.cells, "enumerate_local_cells", "cells.enumerate_local", _local_counts),
        (L.cells, "enumerate_cells", "cells.enumerate_cells", _global_counts),
        (L.cells, "is_bounded", "cells.is_bounded", None),
        (PV, "matroid_at", "plucker.matroid_at", None),
        (PV, "validate", "plucker.validate", None),
        (PV, "contains", "plucker.contains", None),
        (PV, "contains_via_circuits", "plucker.contains_via_circuits", None),
        (PV, "all_circuits", "plucker.all_circuits", None),
        (M, "__init__", "matroid.Matroid", None),
        (L.kernels, "exchange_violation", "kernels.exchange_violation", None),
        (L.kernels, "transversal_basis_masks", "kernels.transversal_basis_masks", None),
        (LC, "__init__", "chart.LocalContext", None),
        (LC, "chart", "chart.chart", None),
        (LC, "in_sigma", "chart.in_sigma", None),
        (LC, "in_local_space", "chart.in_local_space", None),
        (LC, "project", "chart.project", None),
        (L.chart, "project_any", "chart.project_any", None),
        (L.conical, "tau", "conical.tau", None),
        (L.cli, "tau", "conical.tau", None),
        (L.conical, "is_conical", "conical.is_conical", None),
        (L.cli, "is_conical", "conical.is_conical", None),
        (L.conical, "build_tree", "conical.build_tree", None),
        (L.cli, "build_tree", "conical.build_tree", None),
        (L.semiring, "tdet", "semiring.tdet", None),
        (L.conical, "tdet", "semiring.tdet", None),
        (L.semiring, "is_orthogonal", "semiring.is_orthogonal", None),
        (L.plucker, "is_orthogonal", "semiring.is_orthogonal", None),
        (L.cli, "main", "cli.main", None),
    ]


# (metric, span name, statistic); statistic is "calls" or "self_s"
SPAN_METRICS = [
    ("diffcon.solve.calls", "diffcon.solve", "calls"),
    ("diffcon.solve.self_s", "diffcon.solve", "self_s"),
    ("cells.enumerate_local.calls", "cells.enumerate_local", "calls"),
    ("cells.enumerate_local.self_s", "cells.enumerate_local", "self_s"),
    ("cells.is_bounded.calls", "cells.is_bounded", "calls"),
    ("cells.is_bounded.self_s", "cells.is_bounded", "self_s"),
    ("plucker.matroid_at.calls", "plucker.matroid_at", "calls"),
    ("plucker.matroid_at.self_s", "plucker.matroid_at", "self_s"),
    ("plucker.validate.calls", "plucker.validate", "calls"),
    ("plucker.validate.self_s", "plucker.validate", "self_s"),
    ("plucker.contains.calls", "plucker.contains", "calls"),
    ("plucker.contains.self_s", "plucker.contains", "self_s"),
    ("plucker.contains_via_circuits.calls", "plucker.contains_via_circuits", "calls"),
    ("plucker.contains_via_circuits.self_s", "plucker.contains_via_circuits", "self_s"),
    ("plucker.all_circuits.self_s", "plucker.all_circuits", "self_s"),
    ("matroid.Matroid.calls", "matroid.Matroid", "calls"),
    ("matroid.Matroid.self_s", "matroid.Matroid", "self_s"),
    ("kernels.exchange_violation.calls", "kernels.exchange_violation", "calls"),
    ("kernels.exchange_violation.self_s", "kernels.exchange_violation", "self_s"),
    ("kernels.transversal_basis_masks.calls", "kernels.transversal_basis_masks", "calls"),
    ("kernels.transversal_basis_masks.self_s", "kernels.transversal_basis_masks", "self_s"),
    ("chart.LocalContext.calls", "chart.LocalContext", "calls"),
    ("chart.LocalContext.self_s", "chart.LocalContext", "self_s"),
    ("chart.chart.calls", "chart.chart", "calls"),
    ("chart.chart.self_s", "chart.chart", "self_s"),
    ("chart.in_sigma.calls", "chart.in_sigma", "calls"),
    ("chart.in_sigma.self_s", "chart.in_sigma", "self_s"),
    ("chart.in_local_space.self_s", "chart.in_local_space", "self_s"),
    ("chart.project.self_s", "chart.project", "self_s"),
    ("chart.project_any.self_s", "chart.project_any", "self_s"),
    ("conical.tau.calls", "conical.tau", "calls"),
    ("conical.tau.self_s", "conical.tau", "self_s"),
    ("conical.is_conical.self_s", "conical.is_conical", "self_s"),
    ("conical.build_tree.self_s", "conical.build_tree", "self_s"),
    ("semiring.tdet.calls", "semiring.tdet", "calls"),
    ("semiring.tdet.self_s", "semiring.tdet", "self_s"),
    ("semiring.is_orthogonal.calls", "semiring.is_orthogonal", "calls"),
    ("semiring.is_orthogonal.self_s", "semiring.is_orthogonal", "self_s"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
]
COUNTER_METRICS = [
    "diffcon.solve.probe_calls",
    "diffcon.solve.leaf_calls",
    "diffcon.solve.edges_total",
    "cells.local_finds",
    "cells.unique_cells",
]
RATIO_METRICS = [
    # (metric, numerator counter, denominator metric)
    ("diffcon.solve.feasible_ratio", "diffcon.solve.feasible", "diffcon.solve.calls"),
    ("cells.unique_ratio", "cells.unique_cells", "cells.local_finds"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(Counter)  # job -> counter
        self.job = None
        self._undo: list = []

    def install(self, lib):
        for owner, attr, name, hook in targets(lib):
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, hook))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts[self.job], args, kwargs, result)
            return result

        return wrapper

    def per_span(self):
        """{span name: (calls, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
        return calls, self_s

    def metrics(self) -> dict:
        calls, self_s = self.per_span()
        counts = sum(self.counts.values(), Counter())
        out = {}
        for metric, span, stat in SPAN_METRICS:
            out[metric] = calls[span] if stat == "calls" else self_s[span]
        for metric in COUNTER_METRICS:
            out[metric] = counts[metric]
        merged = {**counts, **out}
        for metric, num, den in RATIO_METRICS:
            out[metric] = merged[num] / merged[den] if merged[den] else 0.0
        return out

    def enumeration_counts(self) -> dict:
        """Per job that enumerated cells: solve calls, local finds, unique cells."""
        solves: Counter = Counter(span[4] for span in self.spans if span[0] == "diffcon.solve")
        return {
            job: {"solves": solves[job], "finds": c["cells.local_finds"],
                  "cells": c["cells.unique_cells"]}
            for job, c in self.counts.items() if c["cells.unique_cells"]
        }

    def write(self, path):
        """Spans as gzipped TSV: name, start, end, parent, job (times in ns)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name}\t{int(start * 1e9)}\t{int(end * 1e9)}\t{parent}\t{job}\n")
