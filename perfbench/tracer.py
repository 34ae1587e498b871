"""Spans and work counts around the program's public functions.

The tracer replaces functions where their callers look them up (a
`from .x import y` binds y in the caller's namespace, so each binding is
wrapped on its own) and restores them on exit.  Each call records a span:
name, start, end, parent span and operation id.  Spans stay in memory in
flat arrays; self time is derived from them afterwards.  Nothing under
src/ changes.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path


def _terms(args, kwargs, result):
    return (("oracles.series.terms", result.n_effective),)


def _evals(args, kwargs, result):
    return (("quadrature.evals", result[2]),)


def _paths(args, kwargs, result):
    return (("oracles.mc.paths", result.n_effective),)


def _grid_points(args, kwargs, result):
    # nfold_exponential_convolution(lam, n, t, grid_step) snaps the step so
    # the grid lands on t.
    t = kwargs["t"] if "t" in kwargs else args[2]
    step = kwargs["grid_step"] if "grid_step" in kwargs else args[3]
    return (("oracles.convolution.grid_points", round(float(t) / float(step)) + 1),)


def _bytes(args, kwargs, result):
    return (("adjudicator.render.bytes", len(result.encode())),)


# (module, attribute, span name, counter).  A function bound in several
# modules is listed once per binding that some caller uses.
TARGETS = (
    ("backlog_lab.distributions", "poisson_term", "distributions.poisson_term", None),
    ("backlog_lab.oracles", "poisson_term", "distributions.poisson_term", None),
    ("backlog_lab.distributions", "erlang_cdf", "distributions.erlang_cdf", None),
    ("backlog_lab.closed_forms", "expected_backlog", "closed_forms.expected_backlog", None),
    ("backlog_lab.cli", "expected_backlog", "closed_forms.expected_backlog", None),
    ("backlog_lab.adjudicator", "cumulative_expected_backlog", "closed_forms.cumulative", None),
    ("backlog_lab.cli", "cumulative_expected_backlog", "closed_forms.cumulative", None),
    ("backlog_lab.adjudicator", "invert_gaver_stehfest", "laplace.invert", None),
    ("backlog_lab.cli", "invert_gaver_stehfest", "laplace.invert", None),
    ("backlog_lab.adjudicator", "image_cumulative_backlog", "laplace.image", None),
    ("backlog_lab.cli", "image_cumulative_backlog", "laplace.image", None),
    ("backlog_lab.cli", "image_expected_backlog", "laplace.image", None),
    ("backlog_lab.oracles", "adaptive_simpson", "quadrature", _evals),
    ("backlog_lab.oracles", "backlog_series_oracle", "oracles.series", _terms),
    ("backlog_lab.adjudicator", "cumulative_quadrature_oracle", "oracles.quadrature", None),
    ("backlog_lab.oracles", "monte_carlo_cumulative", "oracles.mc", _paths),
    ("backlog_lab.cli", "monte_carlo_cumulative", "oracles.mc", _paths),
    ("backlog_lab.oracles", "nfold_exponential_convolution", "oracles.convolution", _grid_points),
    ("backlog_lab.cli", "check_identity_a1", "identities", None),
    ("backlog_lab.cli", "check_identity_a2", "identities", None),
    ("backlog_lab.cli", "check_identity_a3", "identities", None),
    ("backlog_lab.cli", "check_index_shift", "identities", None),
    ("backlog_lab.adjudicator", "adjudicate", "adjudicator.adjudicate", None),
    ("backlog_lab.cli", "adjudicate", "adjudicator.adjudicate", None),
    ("backlog_lab.adjudicator", "render_report", "adjudicator.render", _bytes),
    ("backlog_lab.cli", "render_report", "adjudicator.render", _bytes),
    ("backlog_lab.cli", "main", "cli.main", None),
)

# Per-layer metrics, each per operation of the traced loop, as (name,
# unit).  "calls", "s" (inclusive) and "self_s" come from the spans of the
# named layer; the rest are counters or the ratios below.
LAYER_METRICS = (
    ("distributions.poisson_term.calls", "count"),
    ("distributions.poisson_term.s", "s"),
    ("distributions.erlang_cdf.calls", "count"),
    ("distributions.erlang_cdf.s", "s"),
    ("closed_forms.expected_backlog.calls", "count"),
    ("closed_forms.expected_backlog.s", "s"),
    ("closed_forms.cumulative.calls", "count"),
    ("closed_forms.cumulative.s", "s"),
    ("laplace.invert.calls", "count"),
    ("laplace.invert.s", "s"),
    ("laplace.image.calls", "count"),
    ("quadrature.calls", "count"),
    ("quadrature.evals", "count"),
    ("quadrature.self_s", "s"),
    ("quadrature.evals_per_point", "count"),
    ("oracles.series.calls", "count"),
    ("oracles.series.terms", "count"),
    ("oracles.series.s", "s"),
    ("oracles.series.terms_per_call", "count"),
    ("oracles.quadrature.calls", "count"),
    ("oracles.quadrature.s", "s"),
    ("oracles.quadrature.failed", "count"),
    ("oracles.mc.calls", "count"),
    ("oracles.mc.paths", "count"),
    ("oracles.mc.s", "s"),
    ("oracles.convolution.calls", "count"),
    ("oracles.convolution.grid_points", "count"),
    ("oracles.convolution.s", "s"),
    ("identities.checks", "count"),
    ("identities.s", "s"),
    ("adjudicator.adjudicate.self_s", "s"),
    ("adjudicator.render.s", "s"),
    ("adjudicator.render.bytes", "count"),
    ("cli.main.s", "s"),
)

# Metrics that are ratios of two others rather than a span or counter.
_RATIOS = {
    "quadrature.evals_per_point": ("quadrature.evals", "quadrature.calls"),
    "oracles.series.terms_per_call": ("oracles.series.terms", "oracles.series.calls"),
}
# Layers whose work count is the number of calls under another name.
_CALL_ALIASES = {"identities.checks": "identities.calls"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn, counter=None):
        nid = self._name_id(span_name)
        start, end, names, parent, ops, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack
        )
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[span_name + ".failed"] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result):
                    counts[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict[str, float]:
        """Per-layer calls, inclusive and self seconds, plus the counters."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            base = self.names[self.name[i]]
            out[base + ".calls"] += 1
            out[base + ".s"] += dur[i]
            out[base + ".self_s"] += dur[i] - child[i]
        for key, value in self.counts.items():
            out[key] += value
        return out

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Every LAYER_METRICS entry, per operation of the traced loop."""
        totals = self.totals()
        for alias, source in _CALL_ALIASES.items():
            totals[alias] = totals.get(source, 0.0)
        out = {}
        for name, unit in LAYER_METRICS:
            if name in _RATIOS:
                num, den = _RATIOS[name]
                value = totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0
            else:
                value = totals.get(name, 0.0) / n_ops
            out[name] = (value, unit)
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then the start, end, name, parent and op columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (("start", self.start), ("end", self.end), ("name", self.name),
                   ("parent", self.parent), ("op", self.op))
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
        }
        with open(path, "wb") as sink:
            sink.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(sink)
