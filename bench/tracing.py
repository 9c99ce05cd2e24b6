"""Outside-in tracing of kahlersym's layers.

``Tracer.install`` wraps each layer's function where its callers look it
up: every ``kahlersym.*`` module attribute bound to the function (so
``runner.gather_evidence``, ``classifier.curvature_bundle``,
``curvature.christoffel`` ... all go through the wrapper), or the class
attribute for methods.  ``numpy.einsum`` is wrapped only to count calls.
No code under ``src/`` changes.

Each wrapped call records a span ``[layer, parent span, call id, start,
end]`` in memory.  A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# layer name -> (defining module, attribute path in that module)
LAYERS = {
    "expressions.parse": ("kahlersym.expressions", "parse"),
    "expressions.eval_jet": ("kahlersym.expressions", "eval_jet"),
    "jets.JetScalar.partials": ("kahlersym.jets", "JetScalar.partials"),
    "jets.JetSpace.multiply": ("kahlersym.jets", "JetSpace.multiply"),
    "jets.JetSpace.build": ("kahlersym.jets", "JetSpace.__init__"),
    "metrics.metric_from_potential": ("kahlersym.metrics", "metric_from_potential"),
    "curvature.christoffel": ("kahlersym.curvature", "christoffel"),
    "curvature.curvature_bundle": ("kahlersym.curvature", "curvature_bundle"),
    "curvature.parallel_transport": ("kahlersym.curvature", "parallel_transport"),
    "symmetry_tensors.r_dot_s": ("kahlersym.symmetry_tensors", "r_dot_s"),
    "symmetry_tensors.tachibana_ricci": ("kahlersym.symmetry_tensors", "tachibana_ricci"),
    "symmetry_tensors.complex_tachibana_ricci": (
        "kahlersym.symmetry_tensors", "complex_tachibana_ricci"),
    "symmetry_tensors.rotation_experiment": (
        "kahlersym.symmetry_tensors", "rotation_experiment"),
    "symmetry_tensors.transport_experiment": (
        "kahlersym.symmetry_tensors", "transport_experiment"),
    "classifier.preflight_kahler": ("kahlersym.classifier", "preflight_kahler"),
    "classifier.gather_evidence": ("kahlersym.classifier", "gather_evidence"),
    "classifier.classify_evidence": ("kahlersym.classifier", "classify_evidence"),
    "runner.identity_suite": ("kahlersym.runner", "identity_suite"),
    "tensor_algebra.check_rs_symmetries": ("kahlersym.tensor_algebra", "check_rs_symmetries"),
    "runner.to_json": ("kahlersym.runner", "RunReport.to_json"),
}

METRIC_LAYER = "metrics.metric_from_potential"
# Chart points equal after rounding to this many decimals count as one
# point, so roundoff in RK4 stage times does not split a point in two.
POINT_DECIMALS = 12


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call_id = -1
        self.einsum_calls = 0
        self.points: set[bytes] = set()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- patching ----------------------------------------------------------------

    def _build_patches(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name.startswith("kahlersym.") and mod is not None]
        for layer, (module_name, path) in LAYERS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr] if outer else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            if outer:
                self._patches.append((owner, attr, original, wrapper))
                continue
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, name, original, wrapper))
        self._patches.append((np, "einsum", np.einsum, self._count_einsum(np.einsum)))

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def _count_einsum(self, einsum):
        @functools.wraps(einsum)
        def counted(*args, **kwargs):
            self.einsum_calls += 1
            return einsum(*args, **kwargs)
        return counted

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        record_point = layer == METRIC_LAYER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record_point:
                point = kwargs["point"] if "point" in kwargs else args[1]
                self.points.add(np.round(np.asarray(point, float), POINT_DECIMALS).tobytes())
            span = [layer, stack[-1] if stack else -1, self.call_id, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return wrapper

    # -- per-pass statistics ---------------------------------------------------------

    def take(self) -> tuple[dict, list[list]]:
        """Statistics of the spans recorded since the last call, and the spans.

        Resets the span list and the counters.
        """
        spans = self.spans[:]
        # The wrappers hold the span list by reference, so empty it in place.
        self.spans.clear()
        child = defaultdict(float)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (layer, _, _, start, end) in enumerate(spans):
            self_s[layer] += end - start - child[i]
            calls[layer] += 1
        evals = calls[METRIC_LAYER]
        stats = {
            "layers": {layer: {"self_s": self_s[layer], "calls": calls[layer]}
                       for layer in LAYERS},
            "einsum_calls": self.einsum_calls,
            "metric_evals": evals,
            "distinct_points": len(self.points),
        }
        self.einsum_calls = 0
        self.points.clear()
        return stats, spans
