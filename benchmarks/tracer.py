"""Span tracer for the per-layer run, and the per-layer metrics it yields.

The tracer replaces public functions at the caller's import site (for
example ``coherence_lab.ensembles.evaluate_all``, the name ``ensembles`` calls)
with a wrapper that records a span: id, name, start, end, parent span,
thread, trial id, a size and the exception type it raised, if any. Spans are
kept in memory; the worker writes them out when the run ends. A target that
no longer exists is skipped, so its metrics read zero calls.

The trial id is ``(ensemble seed, index)`` from the ``subseed`` call that
opens each trial in ``ensembles``. Self time is a span's duration minus the
union of its child spans' intervals; with the thread pool of
``--workers 2`` a span opened on a pool thread takes the innermost open span
of the main thread as its parent.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter_ns


def _dim(args, result):
    return len(args[0])


def _length(args, result):
    return len(result)


# (module, attribute, span name, size of the call, opens a trial)
TARGETS = (
    ("ensembles", "subseed", "rng.subseed", None, True),
    ("ensembles", "make_generator", "rng.make_generator", None, False),
    ("ensembles", "complex_normals", "rng.complex_normals", None, False),
    ("ensembles", "normalize", "linalg.normalize", None, False),
    ("ensembles", "classify_pair", "superpose.classify_pair", None, False),
    ("ensembles", "evaluate_all", "bounds.evaluate_all", _length, False),
    ("bounds", "classify_pair", "superpose.classify_pair", None, False),
    ("bounds", "superpose", "superpose.superpose", None, False),
    ("bounds", "pure_state_coherence", "entropy.pure_state_coherence", None, False),
    ("bounds", "binary_entropy", "entropy.binary_entropy", None, False),
    ("bounds", "inputs_digest", "bounds.inputs_digest", None, False),
    ("cli", "main", "cli.main", None, False),
    ("cli", "run_ensemble", "ensembles.run_ensemble", None, False),
    ("cli", "canonical_json", "cli.canonical_json", _length, False),
    ("cli", "minimize_slack", "search.minimize_slack", None, False),
    ("cli", "subseed", "rng.subseed", None, False),
    ("search", "parameterize", "search.parameterize", None, False),
    ("search", "subseed", "rng.subseed", None, False),
    ("search", "make_generator", "rng.make_generator", None, False),
    ("search", "standard_normals", "rng.standard_normals", None, False),
    ("search", "normalize", "linalg.normalize", None, False),
    ("search", "theorem1_equality", "bounds.theorem1_equality", None, False),
    ("search", "max_gain", "bounds.max_gain", None, False),
    ("search", "theorem2_upper", "bounds.theorem2_upper", None, False),
    ("search", "theorem3_upper", "bounds.theorem3_upper", None, False),
    ("search", "theorem4_lower", "bounds.theorem4_lower", None, False),
    ("superpose", "normalize", "linalg.normalize", None, False),
    ("superpose", "t_states", "superpose.t_states", None, False),
    ("linalg", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues", _dim, False),
    ("entropy", "relative_entropy_coherence", "entropy.relative_entropy_coherence", None, False),
    ("entropy", "von_neumann_entropy", "entropy.von_neumann_entropy", None, False),
)

SEARCH_EVALUATORS = (
    "bounds.theorem1_equality",
    "bounds.max_gain",
    "bounds.theorem2_upper",
    "bounds.theorem3_upper",
    "bounds.theorem4_lower",
)
EIGEN_DIMS = (2, 4, 8, 16)

# Metrics that count work; two traced units of the same inputs must agree on
# them exactly.
COUNT_METRICS = (
    "rng.generators_per_trial",
    "rng.normals_per_trial",
    "ensembles.trial_error_ratio",
    "superpose.classify_pair.calls_per_trial",
    "bounds.reports_per_trial",
    "bounds.inputs_digest.calls_per_trial",
    "entropy.pure_state_coherence.calls_per_trial",
    "entropy.binary_entropy.calls_per_trial",
    "linalg.hermitian_eigenvalues.calls",
    "linalg.normalize.calls_per_trial",
    "search.evaluations",
    "search.evals_per_restart",
    "search.degenerate_ratio",
    "cli.report_bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _wrap(self, fn, name, size, opens_trial):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            result = error = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                if opens_trial:
                    self._local.trial = (args[0], args[1])
                measured = size(args, result) if size is not None and error is None else 0
                self.spans.append((sid, name, start, end, parent, threading.get_ident(),
                                   getattr(self._local, "trial", None), measured, error))

        return traced

    def install(self) -> None:
        for module_name, attr, name, size, opens_trial in TARGETS:
            module = importlib.import_module(f"coherence_lab.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, size, opens_trial))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for sid, _, start, end, *_ in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[sid] = end - start - covered
    return result


def layer_metrics(spans: list[tuple], items: int, info: dict,
                  scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced unit.

    ``*_per_trial`` values are per workload item (a trial, an objective
    evaluation or a density matrix); times are in microseconds unless the
    name says otherwise, multiplied by ``scale`` (see calibrate.py).
    ``info`` carries counts the program reports itself: trials,
    trial_errors, evaluations, restarts.
    """
    self_ns = _self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(int)
    own = defaultdict(int)
    size = defaultdict(int)
    errors = defaultdict(int)
    eigen = defaultdict(lambda: [0, 0])
    for sid, name, start, end, _, _, _, measured, error in spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += self_ns[sid]
        size[name] += measured
        if error is not None:
            errors[name, error] += 1
        if name == "linalg.hermitian_eigenvalues":
            eigen[measured][0] += 1
            eigen[measured][1] += end - start

    def ratio(num, den):
        return num / den if den else 0.0

    def per_item(value):
        return ratio(value, items)

    us = 1e-3 * scale
    evaluations = info.get("evaluations", 0)
    metrics = {
        "rng.generators_per_trial": per_item(calls["rng.make_generator"]),
        "rng.normals_per_trial": per_item(
            calls["rng.complex_normals"] + calls["rng.standard_normals"]),
        "rng.us_per_trial": per_item(us * sum(
            total[n] for n in ("rng.subseed", "rng.make_generator",
                               "rng.complex_normals", "rng.standard_normals"))),
        "ensembles.self_us_per_trial": per_item(us * own["ensembles.run_ensemble"]),
        "ensembles.trial_error_ratio": ratio(info.get("trial_errors", 0), info.get("trials", 0)),
        "superpose.classify_pair.calls_per_trial": per_item(calls["superpose.classify_pair"]),
        "superpose.classify_pair.us_per_call": us * ratio(
            total["superpose.classify_pair"], calls["superpose.classify_pair"]),
        "superpose.superpose.us_per_call": us * ratio(
            total["superpose.superpose"], calls["superpose.superpose"]),
        "bounds.evaluate_all.us_per_trial": per_item(us * total["bounds.evaluate_all"]),
        "bounds.evaluate_all.self_us_per_trial": per_item(us * own["bounds.evaluate_all"]),
        "bounds.reports_per_trial": per_item(size["bounds.evaluate_all"]),
        "bounds.inputs_digest.calls_per_trial": per_item(calls["bounds.inputs_digest"]),
        "bounds.inputs_digest.us_per_call": us * ratio(
            total["bounds.inputs_digest"], calls["bounds.inputs_digest"]),
        "entropy.pure_state_coherence.calls_per_trial": per_item(
            calls["entropy.pure_state_coherence"]),
        "entropy.pure_state_coherence.us_per_call": us * ratio(
            total["entropy.pure_state_coherence"], calls["entropy.pure_state_coherence"]),
        "entropy.binary_entropy.calls_per_trial": per_item(calls["entropy.binary_entropy"]),
        "entropy.relative_entropy_coherence.us_per_call": us * ratio(
            total["entropy.relative_entropy_coherence"],
            calls["entropy.relative_entropy_coherence"]),
        "linalg.hermitian_eigenvalues.calls": float(calls["linalg.hermitian_eigenvalues"]),
        "linalg.normalize.calls_per_trial": per_item(calls["linalg.normalize"]),
        "search.evaluations": float(evaluations),
        "search.evals_per_restart": ratio(evaluations, info.get("restarts", 0)),
        "search.objective_us_per_eval": us * ratio(
            total["search.parameterize"] + sum(total[n] for n in SEARCH_EVALUATORS),
            evaluations),
        "search.parameterize.us_per_call": us * ratio(
            total["search.parameterize"], calls["search.parameterize"]),
        "search.self_us_per_eval": us * ratio(own["search.minimize_slack"], evaluations),
        "search.degenerate_ratio": ratio(
            errors["search.parameterize", "ZeroVectorError"], calls["search.parameterize"]),
        "cli.self_us_per_trial": per_item(us * own["cli.main"]),
        "cli.canonical_json_ms": 1e-3 * us * ratio(
            total["cli.canonical_json"], calls["cli.canonical_json"]),
        "cli.report_bytes": ratio(size["cli.canonical_json"], calls["cli.canonical_json"]),
    }
    for dim in EIGEN_DIMS:
        count, ns = eigen.get(dim, (0, 0))
        metrics[f"linalg.hermitian_eigenvalues.us_per_call.d{dim}"] = us * ratio(ns, count)
    return metrics
