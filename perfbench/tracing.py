"""Spans around calls into pairinfo's layers, recorded from outside.

:func:`traced` rebinds the public names that each consuming module looks
up at call time (``pairinfo.cli``, ``pairinfo.montecarlo``,
``pairinfo.inference``, ``pairinfo.asymptotics``), the study measure table
and ``RngSpec.substream``, to wrappers that record a span per call.  The
program's source is not changed, and every name is restored on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from time import perf_counter_ns


def _rows_pairs(args, result):
    return result[1].size


def _rows_counts(args, result):
    return result[1].shape.size


def _first_len(args, result):
    return len(args[0])


def _cells(args, result):
    return args[0].shape.size


def _result_size(args, result):
    return result.size


def _quantile_key(args, result):
    return args[:2]


_MEASURE_SPANS = {"entropy": "measures.joint_entropy", "mi": "measures.mutual_information"}

# (module, attribute, span name, what to record from the call).
BINDINGS = [
    ("pairinfo.cli", "run", "cli.run", None),
    ("pairinfo.cli", "parse_pairs_csv", "cli.parse_pairs_csv", _rows_pairs),
    ("pairinfo.cli", "parse_counts_csv", "cli.parse_counts_csv", _rows_counts),
    ("pairinfo.cli", "estimate_pmf", "pmf.estimate_pmf", _first_len),
    ("pairinfo.cli", "estimate_report", "asymptotics.estimate_report", None),
    ("pairinfo.cli", "independence_test", "inference.independence_test", None),
    ("pairinfo.cli", "convergence_trace", "montecarlo.convergence_trace", None),
    ("pairinfo.cli", "normality_study", "montecarlo.normality_study", None),
    ("pairinfo.cli", "rejection_rate", "montecarlo.rejection_rate", None),
    ("pairinfo.montecarlo", "sample_z", "montecarlo.sample_z", _result_size),
    ("pairinfo.montecarlo", "estimate_pmf", "pmf.estimate_pmf", _first_len),
    ("pairinfo.montecarlo", "entropy_variance", "asymptotics.entropy_variance", None),
    ("pairinfo.montecarlo", "mi_variance", "asymptotics.mi_variance", None),
    ("pairinfo.montecarlo", "normal_quantile", "asymptotics.normal_quantile", None),
    ("pairinfo.montecarlo", "independence_test", "inference.independence_test", None),
    ("pairinfo.inference", "mutual_information", "measures.mutual_information", _cells),
    ("pairinfo.inference", "normal_quantile", "asymptotics.normal_quantile", None),
    ("pairinfo.inference", "chi_square_cdf", "inference.chi_square_cdf", None),
    ("pairinfo.inference", "chi_square_quantile", "inference.chi_square_quantile", _quantile_key),
    ("pairinfo.asymptotics", "joint_entropy", "measures.joint_entropy", _cells),
    ("pairinfo.asymptotics", "mutual_information", "measures.mutual_information", _cells),
    ("pairinfo.asymptotics", "entropy_variance", "asymptotics.entropy_variance", None),
    ("pairinfo.asymptotics", "mi_variance", "asymptotics.mi_variance", None),
    ("pairinfo.asymptotics", "normal_quantile", "asymptotics.normal_quantile", None),
]


class Recorder:
    """Spans kept in memory as tuples (name, start_ns, end_ns, parent, op, extra).

    ``parent`` is the index of the enclosing span, or -1; ``op`` numbers the
    CLI invocation; ``extra`` is the work count the binding records.
    """

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list = []

    def wrap(self, name: str, fn, extra=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, None)
            if extra is not None:
                spans[index] = (name, start, end, parent, self.op, extra(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Rebind every traced name to a recording wrapper; restore on exit."""
    montecarlo = importlib.import_module("pairinfo.montecarlo")
    saved = []
    try:
        for module_name, attr, span, extra in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span, original, extra))
        # Studies look their measure up in a table filled at import time.
        table = montecarlo._MEASURES
        for key, span in _MEASURE_SPANS.items():
            saved.append((table, key, table[key]))
            table[key] = recorder.wrap(span, table[key], _cells)
        rng_spec = montecarlo.RngSpec
        saved.append((rng_spec, "substream", rng_spec.substream))
        rng_spec.substream = recorder.wrap("montecarlo.substream", rng_spec.substream)
        yield recorder
    finally:
        for owner, key, original in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


_STUDIES = ("montecarlo.normality_study", "montecarlo.rejection_rate",
            "montecarlo.convergence_trace")
_VARIANCES = ("asymptotics.entropy_variance", "asymptotics.mi_variance")

# Per-layer metric -> span names whose self time it sums.
SELF_TIME = {
    "cli.run.self_s": ("cli.run",),
    "cli.parse_pairs_csv.self_s": ("cli.parse_pairs_csv",),
    "cli.parse_counts_csv.self_s": ("cli.parse_counts_csv",),
    "pmf.estimate_pmf.self_s": ("pmf.estimate_pmf",),
    "measures.joint_entropy.self_s": ("measures.joint_entropy",),
    "measures.mutual_information.self_s": ("measures.mutual_information",),
    "asymptotics.estimate_report.self_s": ("asymptotics.estimate_report",),
    "asymptotics.variance.self_s": _VARIANCES,
    "asymptotics.normal_quantile.self_s": ("asymptotics.normal_quantile",),
    "inference.independence_test.self_s": ("inference.independence_test",),
    "inference.chi_square_quantile.self_s": ("inference.chi_square_quantile",),
    "inference.chi_square_cdf.self_s": ("inference.chi_square_cdf",),
    "montecarlo.sample_z.self_s": ("montecarlo.sample_z",),
    "montecarlo.substream.self_s": ("montecarlo.substream",),
    "montecarlo.study.self_s": _STUDIES,
}

# Per-layer metric -> span names whose recorded work counts it sums.
WORK = {
    "cli.parse_pairs_csv.rows": ("cli.parse_pairs_csv",),
    "cli.parse_counts_csv.rows": ("cli.parse_counts_csv",),
    "pmf.estimate_pmf.elements": ("pmf.estimate_pmf",),
    "measures.cells": ("measures.joint_entropy", "measures.mutual_information"),
    "montecarlo.sample_z.draws": ("montecarlo.sample_z",),
}

CALLS = {
    "pmf.estimate_pmf.calls": "pmf.estimate_pmf",
    "asymptotics.normal_quantile.calls": "asymptotics.normal_quantile",
    "inference.chi_square_quantile.calls": "inference.chi_square_quantile",
    "inference.chi_square_cdf.calls": "inference.chi_square_cdf",
    "montecarlo.substream.calls": "montecarlo.substream",
}


def layer_metrics(spans: list, offset: int = 0) -> dict:
    """Per-layer self times (s), counts and ratios of one round's spans.

    ``spans`` is a slice of a recorder's spans starting at index ``offset``.
    A span's self time is its duration minus its direct children's.  A
    layer that the round never calls reads 0.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent - offset] += end - start
    self_ns: dict = {}
    work: dict = {}
    calls: dict = {}
    for (name, start, end, _, _, extra), nested in zip(spans, child_ns):
        self_ns[name] = self_ns.get(name, 0) + (end - start - nested)
        calls[name] = calls.get(name, 0) + 1
        if isinstance(extra, int):
            work[name] = work.get(name, 0) + extra
    out = {metric: sum(self_ns.get(n, 0) for n in names) / 1e9
           for metric, names in SELF_TIME.items()}
    out.update({metric: sum(work.get(n, 0) for n in names) for metric, names in WORK.items()})
    out.update({metric: calls.get(name, 0) for metric, name in CALLS.items()})
    keys = [extra for name, *_, extra in spans if name == "inference.chi_square_quantile"]
    quantiles = len(keys)
    solver_cdf = sum(1 for name, _, _, parent, _, _ in spans
                     if name == "inference.chi_square_cdf" and parent >= 0
                     and spans[parent - offset][0] == "inference.chi_square_quantile")
    out["inference.chi_square_quantile.distinct_ratio"] = (
        len(set(keys)) / quantiles if quantiles else 0.0)
    out["inference.chi_square_cdf.calls_per_quantile"] = (
        solver_cdf / quantiles if quantiles else 0.0)
    return out


def median_metrics(rounds: list) -> dict:
    """Per-metric median over rounds of :func:`layer_metrics` dicts."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
