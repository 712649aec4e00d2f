"""Span tracing of ngrc's public functions, from outside the package.

A :class:`Tracer` replaces each traced function at the place where the
calling code looks it up (``ngrc.cli.forecast``, ``ngrc.model.feature_block``
and so on) with a wrapper that records a span: name, start, end and the
span that was open when it started. Spans stay in memory; the benchmark
writes them out when it ends. Counts (forecast steps, feature columns, RHS
evaluations, ...) are taken at the same boundaries, so that per-unit costs
are measured where the work happens. Leaving the ``with`` block puts every
original function back.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None


# Counts that must repeat exactly across traced runs of the same code and
# seed; later changes may cite these as counts rather than as timings.
EXACT_COUNTS = (
    "systems.integrate.rhs_evals",
    "model.forecast.steps",
    "features.feature_block.columns",
    "regression.ridge_fit.calls",
    "verify.learned_map_residual.calls",
)


def _integrated_time(args, kwargs, result):
    t0, t1 = args[1].t_span
    return {"systems.integrate.time_units": t1 - t0}


def _noisy_substeps(args, kwargs, result):
    config = args[1]
    return {"systems.integrate_noisy.substeps": (len(config.grid()) - 1) * config.substeps}


# (module[:class], attribute, span name or None to count only, count hook,
#  whether RHS evaluations made inside are attributed to this span)
# A function imported into several modules is patched in each one, because
# callers look it up in their own module's namespace.
_TARGETS = (
    ("ngrc.cli", "validate_config", "cli.validate_config", None, False),
    ("ngrc.cli", "run_experiment", "cli.run_experiment", None, False),
    ("ngrc.cli", "integrate", "systems.integrate", _integrated_time, True),
    ("ngrc.systems", "integrate", "systems.integrate", _integrated_time, True),
    ("ngrc.cli", "integrate_noisy", "systems.integrate_noisy", _noisy_substeps, True),
    ("ngrc.cli", "train_forecaster", "model.train_forecaster", None, False),
    ("ngrc.model", "train_forecaster", "model.train_forecaster", None, False),
    ("ngrc.cli", "forecast", "model.forecast",
     lambda a, kw, r: {"model.forecast.steps": r.n_samples}, False),
    ("ngrc.model", "forecast", "model.forecast",
     lambda a, kw, r: {"model.forecast.steps": r.n_samples}, False),
    ("ngrc.model", "feature_block", "features.feature_block",
     lambda a, kw, r: {"features.feature_block.columns": r.shape[1]}, False),
    ("ngrc.model", "total_features", "features.total_features", None, False),
    ("ngrc.verify", "total_features", "features.total_features", None, False),
    ("ngrc.model", "ridge_fit", "regression.ridge_fit",
     lambda a, kw, r: {"regression.ridge_fit.samples": a[0].n_samples}, False),
    ("ngrc.verify", "nrmse", "verify.scoring", None, False),
    ("ngrc.verify", "valid_time", "verify.scoring", None, False),
    ("ngrc.verify", "uss_report", "verify.uss_report", None, False),
    ("ngrc.verify", "extract_return_map", "verify.extract_return_map",
     lambda a, kw, r: {"verify.extract_return_map.maxima": r.maxima.size}, False),
    ("ngrc.verify", "learned_map_residual", None,
     lambda a, kw, r: {"verify.learned_map_residual.calls": 1}, False),
    ("ngrc.timeseries:TimeSeries", "to_csv", "timeseries.to_csv",
     lambda a, kw, r: {"timeseries.to_csv.bytes": os.path.getsize(a[1])}, False),
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans and counts while active; restores ngrc on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rhs_evals = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        import ngrc.systems

        try:
            for path, attr, name, hook, rhs in _TARGETS:
                owner = _resolve(path)
                self._patch(owner, attr, self._wrap(getattr(owner, attr), name, hook, rhs))
            # The RHS is counted, not spanned: it runs over a million times
            # per noise-lorenz task. SystemDef captures it when lorenz63()
            # is called, so only systems built while tracing are counted.
            original_rhs = ngrc.systems.lorenz63_rhs

            @functools.wraps(original_rhs)
            def counting_rhs(state):
                self.rhs_evals += 1
                return original_rhs(state)

            self._patch(ngrc.systems, "lorenz63_rhs", counting_rhs)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook, counts_rhs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rhs_before = self.rhs_evals
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                span = Span(name, perf_counter(), None, parent)
                self.spans.append(span)
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = perf_counter()
                    self._stack.pop()
            if counts_rhs:
                self.counts[name + ".rhs_evals"] += self.rhs_evals - rhs_before
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def take(self) -> tuple[list[Span], dict[str, float]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((span.end - span.start) - covered)
    return result


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += own
    return dict(out)


def layer_metrics(spans: list[Span], counts: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced operation, named by ngrc module."""
    by_name = summarize(spans)

    def span(name, field):
        return by_name.get(name, {}).get(field, 0)

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    rhs_evals = counts.get("systems.integrate.rhs_evals", 0)
    steps = counts.get("model.forecast.steps", 0)
    metrics = {
        "systems.integrate.self_s": span("systems.integrate", "self_s"),
        "systems.integrate.calls": span("systems.integrate", "calls"),
        "systems.integrate.rhs_evals": rhs_evals,
        "systems.integrate.us_per_rhs_eval":
            per(span("systems.integrate", "total_s"), rhs_evals, 1e6),
        "systems.integrate.rhs_evals_per_time_unit":
            per(rhs_evals, counts.get("systems.integrate.time_units", 0)),
        "systems.integrate_noisy.self_s": span("systems.integrate_noisy", "self_s"),
        "systems.integrate_noisy.substeps": counts.get("systems.integrate_noisy.substeps", 0),
        "systems.integrate_noisy.rhs_evals": counts.get("systems.integrate_noisy.rhs_evals", 0),
        "features.total_features.self_s": span("features.total_features", "self_s"),
        "features.total_features.calls": span("features.total_features", "calls"),
        "features.feature_block.self_s": span("features.feature_block", "self_s"),
        "features.feature_block.calls": span("features.feature_block", "calls"),
        "features.feature_block.columns": counts.get("features.feature_block.columns", 0),
        "regression.ridge_fit.self_s": span("regression.ridge_fit", "self_s"),
        "regression.ridge_fit.calls": span("regression.ridge_fit", "calls"),
        "regression.ridge_fit.samples": counts.get("regression.ridge_fit.samples", 0),
        "model.train_forecaster.self_s": span("model.train_forecaster", "self_s"),
        "model.train_forecaster.calls": span("model.train_forecaster", "calls"),
        "model.forecast.self_s": span("model.forecast", "self_s"),
        "model.forecast.calls": span("model.forecast", "calls"),
        "model.forecast.steps": steps,
        "model.forecast.us_per_step": per(span("model.forecast", "total_s"), steps, 1e6),
        "verify.extract_return_map.self_s": span("verify.extract_return_map", "self_s"),
        "verify.extract_return_map.maxima": counts.get("verify.extract_return_map.maxima", 0),
        "verify.uss_report.self_s": span("verify.uss_report", "self_s"),
        "verify.learned_map_residual.calls": counts.get("verify.learned_map_residual.calls", 0),
        "verify.scoring.self_s": span("verify.scoring", "self_s"),
        "timeseries.to_csv.self_s": span("timeseries.to_csv", "self_s"),
        "timeseries.to_csv.bytes": counts.get("timeseries.to_csv.bytes", 0),
        "cli.validate_config.self_s": span("cli.validate_config", "self_s"),
        "cli.run_experiment.self_s": span("cli.run_experiment", "self_s"),
    }
    return {key: float(value) for key, value in metrics.items()}
