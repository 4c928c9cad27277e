"""Spans around the calls into each varidx layer, for the traced run.

Wrappers replace public functions where their callers look them up
(module attributes such as ``varidx.quadrature.expectations`` or
``varidx.cli.rank``, and the ``Density.pdf``/``log_pdf``/``cdf``
methods), so the program itself is unchanged.  They are installed only
for traced passes and removed afterwards.

A span is ``[name, layer, start, end, parent, op, count]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``op`` the operation
id, and ``count`` a number read off the call (points evaluated, panels,
draws, or 1 for a measure computed by quadrature).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

NAME, LAYER, START, END, PARENT, OP, COUNT = range(7)

_DENSITY_CALLS = {"pdf", "log_pdf", "cdf"}
_MEASURES = ["entropy", "varentropy", "inaccuracy", "varinaccuracy", "kl", "var_kl"]


def _targets(varidx):
    """(owner, attribute, layer, counter) for every wrapped callable."""
    from varidx import bounds, cli, distributions, quadrature, selection

    def quad_count(args, result):
        return 1 if result.method == "quadrature" else 0

    def panels(args, result):
        return result[0].subdivisions if result else 0

    def nodes(args, result):
        return int(getattr(args[1], "size", 1))

    def draws(args, result):
        return result.n

    out = [(cli, "main", "cli", None)]
    for name in ("chebyshev_bound", "exp_pair_bound", "uniform_power_bound"):
        out.append((cli, name, "bounds", None))
    for name in _MEASURES + [m + "_pmf" for m in _MEASURES]:
        out.append((cli, name, "measures", quad_count))
    out.append((bounds, "inaccuracy", "measures", quad_count))
    for name in ("kl", "var_kl", "kl_pmf", "var_kl_pmf"):
        out.append((selection, name, "measures", quad_count))
    out.append((quadrature, "expectations", "quadrature", panels))
    for name in sorted(_DENSITY_CALLS):
        out.append((distributions.Density, name, "distributions", nodes))
    out.append((varidx, "sample", "distributions", draws))
    for name in ("fit_weibull_mle", "fit_lognormal_mle", "fit_binomial_p", "kde"):
        out.append((cli, name, "estimation", None))
    out.append((varidx, "kde", "estimation", None))
    for name in ("rank", "prefer_auto"):
        out.append((cli, name, "selection", None))
    return out


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self, varidx):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._targets = _targets(varidx)
        self._kde_types = (varidx.KernelDensity, varidx.LogKernelDensity)

    def _wrap(self, fn, name, layer, counter):
        spans, stack = self.spans, self._stack
        kde_types = self._kde_types
        density = name in _DENSITY_CALLS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if density:
                label = name + ("[kde]" if isinstance(args[0], kde_types) else "[param]")
            rec = [label, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                rec[COUNT] = counter(args, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, layer, counter in self._targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, attr, layer, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_totals(spans: list[list]) -> dict:
    """Per-layer counts and times (ms) of one pass's spans."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    t = defaultdict(float)
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        layer, name = rec[LAYER], rec[NAME]
        t[layer + ".self_ms"] += 1e3 * (dur - child[i])
        parent = spans[rec[PARENT]] if rec[PARENT] >= 0 else None
        if layer in ("bounds", "measures", "quadrature"):
            t[layer + ".calls"] += 1
        if layer == "measures":
            t["measures.quadrature_calls"] += rec[COUNT]
        elif layer == "quadrature":
            t["quadrature.panels"] += rec[COUNT]
        elif name == "sample":
            t["distributions.sample_ms"] += 1e3 * dur
            t["distributions.sample_draws"] += rec[COUNT]
        elif layer == "estimation":
            t["estimation.kde_ms" if name == "kde" else "estimation.fit_ms"] += 1e3 * dur
        elif layer == "distributions":
            if parent is not None and parent[NAME].split("[")[0] in _DENSITY_CALLS:
                continue  # only the outermost density call counts
            call, kind = name[:-1].split("[")
            if call == "cdf":
                t["distributions.cdf_calls"] += 1
                t["distributions.cdf_ms"] += 1e3 * dur
            else:
                t[f"distributions.{kind}_nodes"] += rec[COUNT]
                t[f"distributions.{kind}_ms"] += 1e3 * dur
                if parent is not None and parent[NAME] == "sample":
                    t["distributions.sample_pdf_nodes"] += rec[COUNT]
    t["trace.spans"] = len(spans)
    return t


def per_layer_metrics(passes: list[dict], overhead_ms: float) -> dict:
    """Per-pass means of the layer totals, in the names of BENCHMARK.json."""
    total = defaultdict(float)
    for totals in passes:
        for key, value in totals.items():
            total[key] += value
    mean = defaultdict(float, {key: value / len(passes) for key, value in total.items()})

    def ratio(num, den, scale=1.0):
        return scale * mean[num] / mean[den] if mean[den] else 0.0

    return {
        "cli.self_ms": mean["cli.self_ms"],
        "bounds.calls": mean["bounds.calls"],
        "bounds.self_ms": mean["bounds.self_ms"],
        "measures.calls": mean["measures.calls"],
        "measures.quadrature_calls": mean["measures.quadrature_calls"],
        "measures.self_ms": mean["measures.self_ms"],
        "quadrature.calls": mean["quadrature.calls"],
        "quadrature.panels": mean["quadrature.panels"],
        "quadrature.self_ms": mean["quadrature.self_ms"],
        "quadrature.us_per_panel": ratio("quadrature.self_ms", "quadrature.panels", 1e3),
        "distributions.kde_nodes": mean["distributions.kde_nodes"],
        "distributions.kde_us_per_node": ratio("distributions.kde_ms", "distributions.kde_nodes", 1e3),
        "distributions.param_nodes": mean["distributions.param_nodes"],
        "distributions.param_us_per_node": ratio("distributions.param_ms", "distributions.param_nodes", 1e3),
        "distributions.cdf_calls": mean["distributions.cdf_calls"],
        "distributions.cdf_ms": mean["distributions.cdf_ms"],
        "distributions.sample_ms": mean["distributions.sample_ms"],
        "distributions.sample_accept_ratio": ratio("distributions.sample_draws", "distributions.sample_pdf_nodes"),
        "estimation.fit_ms": mean["estimation.fit_ms"],
        "estimation.kde_ms": mean["estimation.kde_ms"],
        "selection.self_ms": mean["selection.self_ms"],
        "trace.spans": mean["trace.spans"],
        "trace.overhead_ms": overhead_ms,
    }


def write_spans(path: str, spans: list[list]):
    """One JSON line per span, times in ms from the first span's start."""
    t0 = spans[0][START] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in spans:
            row = dict(zip(("name", "layer", "start_ms", "end_ms", "parent", "op", "count"), rec))
            row["start_ms"] = round(1e3 * (rec[START] - t0), 6)
            row["end_ms"] = round(1e3 * (rec[END] - t0), 6)
            fh.write(json.dumps(row) + "\n")
