"""Span tracer installed from outside the package.

The tracer wraps public functions of ``gpadapt`` modules at their module
attributes (and every re-export of the same object), so calls made through
any import path are recorded. Each call becomes a span ``(id, name, start,
end, parent)`` held in memory; the caller writes the list out when the run
ends. A few boundaries also bump counters from their results.

Self time of a span is its duration minus the durations of its direct child
spans. Calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` recording a span named ``name`` per call.

        ``on_return(result)`` runs after the span closes and may update
        counters or wrap the result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append((span_id, name, 0.0, 0.0, parent))
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (span_id, name, start, end, parent)
            if on_return is not None:
                result = on_return(result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            out[name] += (end - start) - child_time[span_id]
        return dict(out)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported ``gpadapt`` package."""
    from gpadapt import (_linalg, basis, exact, experiments, inducing,
                         meanfield, select)

    c = tracer.counts

    def count_features(result):
        c["basis.features_calls"] += 1
        c["basis.features_cells"] += result.size
        return result

    def count_chol(result):
        c["linalg.chol_jitter_calls"] += 1
        if result[1] > 0:
            c["linalg.jittered"] += 1
        return result

    def count_kernel(result):
        c["exact.kernel_matrix_calls"] += 1
        return result

    def wrap_bound(result):
        def counted(*a, **k):
            c["inducing.bound_evals"] += 1
            return result(*a, **k)
        return tracer.wrap("inducing.elbo_profile", counted)

    def count_predict(result):
        c["inducing.predict_cov_cells"] += result.cov.size
        return result

    def count_sweeps(result):
        c["meanfield.mf_sweeps"] += len(result.elbo_path) - 1
        return result

    def count_candidates(result):
        c["select.candidates"] += len(result.records)
        return result

    def count_tuner(result):
        c["select.tune_evaluations"] += result.diagnostics["evaluations"]
        return result

    targets = [
        (basis, "synth_signal", None),
        (_linalg, "chol_jitter", count_chol),
        (exact, "kernel_matrix", count_kernel),
        (inducing, "population_features", None),
        (inducing, "sample_features", None),
        (inducing, "elbo_profile", wrap_bound),
        (inducing, "titsias_fit", None),
        (inducing, "predict", count_predict),
        (meanfield, "design_matrix", None),
        (meanfield, "mf_fit", count_sweeps),
        (select, "select_discrete", count_candidates),
        (select, "coarse_init", None),
        (select, "tune_continuous", count_tuner),
        (experiments, "simulate_poly", None),
        (experiments, "emit_report", None),
        (experiments, "load_running_csv", None),
    ]
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "gpadapt"
                                     or name.startswith("gpadapt."))]
    for module, attr, hook in targets:
        original = getattr(module, attr)
        layer = module.__name__.split(".")[-1].lstrip("_")
        traced = tracer.wrap(f"{layer}.{attr}", original, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
    basis.EigenBasis.features = tracer.wrap(
        "basis.features", basis.EigenBasis.features, count_features)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time per span name (``<name>_s``) plus the counters."""
    out = {f"{name}_s": t for name, t in tracer.self_times().items()}
    out.update(tracer.counts)
    return out


def write_spans(tracer: Tracer, path: Path) -> None:
    path.write_text(json.dumps(
        [{"id": i, "name": n, "start": s, "end": e, "parent": p}
         for i, n, s, e, p in tracer.spans]))
