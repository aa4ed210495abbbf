"""Span tracing of hballs layers, installed from outside the package.

Each public function is wrapped at the name its callers look it up by
(``hballs.theorems.h_extend``, ``hballs.norms.wirtinger_fd_many``, methods
of ``HExtension``, the entries of ``hballs.theorems.SUITES``), so nothing
under ``src/`` changes.  A wrapper records one span (name, start, end,
parent) and the work counts of the call, keeps them in memory, and the
benchmark writes them out when it ends.  Wrappers are installed only for
traced passes and removed afterwards, so untraced passes run the program
exactly as shipped.

A span's self time is its duration minus the time its direct children
cover.  Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import time

import numpy as np

SUITE_NAMES = ("lemma21", "lemma22", "thm24", "schwarzpick", "lemma33", "lemmaB", "landau")


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, counts].

    ``errors`` counts the exceptions of ``error_types`` raised through any
    wrapped call, each exception once however many wrappers it crosses.
    """

    def __init__(self, error_types=()):
        self.spans = []
        self.error_types = tuple(error_types)
        self.raised = []
        self._stack = []
        self._restore = []

    @property
    def errors(self) -> int:
        return len(self.raised)

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``count(args, kwargs)`` returns the work counts of the call; it runs
        before the clock starts, so its cost falls in the parent's self time
        and is part of the tracing overhead the benchmark reports.
        """

        def wrapper(*args, **kwargs):
            counts = count(args, kwargs) if count is not None else None
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent, counts]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except self.error_types as exc:
                if not any(exc is seen for seen in self.raised):
                    self.raised.append(exc)
                raise
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` (module, class or dict) by a traced wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.span(name, original, count)
            self._restore.append(lambda: owner.__setitem__(attr, original))
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, self.span(name, original, count))
            self._restore.append(lambda: setattr(owner, attr, original))

    def unpatch(self):
        while self._restore:
            self._restore.pop()()


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost(spans, layer_of):
    """Indices of spans with no ancestor in the same layer."""
    keep = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        layer = layer_of(spans[i][0])
        while parent >= 0 and layer_of(spans[parent][0]) != layer:
            parent = spans[parent][3]
        if parent < 0:
            keep.append(i)
    return keep


def _rows(points):
    return np.atleast_2d(np.asarray(points, dtype=complex))


def _unique_rows(pts) -> int:
    return len(np.unique(pts.view(np.float64), axis=0))


def _values_count(args, kwargs):
    pts = _rows(args[1])
    return {"points": len(pts), "kevals": len(pts) * len(args[0].rule)}


def _values_unique_count(args, kwargs):
    counts = _values_count(args, kwargs)
    counts["unique"] = _unique_rows(_rows(args[1]))
    return counts


def _wirtinger_count(args, kwargs):
    return {"kevals": len(args[0].rule)}


def _rule_count(args, kwargs):
    # circle_rule(m), real_circle_rule(m), sphere_rule_mc(n, count, seed)
    return {"nodes": int(args[1] if len(args) == 3 else args[0])}


def _fd_count(args, kwargs):
    pts = _rows(args[1])
    return {"stencil_points": len(pts) * (8 * pts.shape[1] + 1)}


def _pairs_count(args, kwargs):
    return {"pairs": len(args[1])}


def install(hballs_modules) -> Tracer:
    """Wrap every traced layer; ``tracer.unpatch()`` restores the program."""
    theorems, norms, extension, errors = (
        hballs_modules[k] for k in ("theorems", "norms", "extension", "errors"))
    tracer = Tracer((errors.NearSingularEvaluation, errors.StepTooLarge))
    ext_cls = extension.HExtension
    for attr in ("circle_rule", "sphere_rule_mc", "real_circle_rule"):
        tracer.patch(theorems, attr, "quadrature.rule", _rule_count)
    tracer.patch(theorems, "h_extend", "extension.build")
    tracer.patch(ext_cls, "__call__", "extension.values", _values_unique_count)
    tracer.patch(ext_cls, "values_with_errors", "extension.values_se", _values_count)
    tracer.patch(ext_cls, "value_error", "extension.values_se")
    tracer.patch(ext_cls, "wirtinger_with_error", "extension.wirtinger", _wirtinger_count)
    tracer.patch(extension, "poisson_h_wirtinger_values", "kernel.wirtinger")
    tracer.patch(theorems, "wirtinger_fd_many", "calculus.fd", _fd_count)
    tracer.patch(norms, "wirtinger_fd_many", "calculus.fd", _fd_count)
    for attr in ("lambda_bounds_wirtinger", "operator_norm", "real_jacobian_from_wirtinger"):
        tracer.patch(theorems, attr, "calculus.svd")
    tracer.patch(theorems, "bloch_seminorm", "norms.bloch")
    tracer.patch(theorems, "weighted_lipschitz_sup", "norms.lipschitz", _pairs_count)
    for suite in list(theorems.SUITES):
        tracer.patch(theorems.SUITES, suite, f"theorems.{suite}")
    return tracer


# Traced layers in report order, with the work counters their spans carry.
# Self time is reported for the layers whose spans have traced children.
LAYERS = (
    ("quadrature.rule", ("nodes",)),
    ("extension.build", ()),
    ("extension.values", ("points", "kevals", "unique")),
    ("extension.values_se", ("points", "kevals")),
    ("extension.wirtinger", ("kevals",)),
    ("kernel.wirtinger", ()),
    ("calculus.fd", ("stencil_points",)),
    ("calculus.svd", ()),
    ("norms.bloch", ()),
    ("norms.lipschitz", ("pairs",)),
)
WITH_CHILDREN = ("extension.wirtinger", "calculus.fd", "norms.bloch", "norms.lipschitz")
RATED = ("extension.values", "extension.values_se", "extension.wirtinger")


def _layer(name: str) -> str:
    return "theorems" if name.startswith("theorems.") else name


def layer_metrics(spans, pass_s: float, errors: int) -> dict:
    """Per-layer metrics of one traced pass from its spans.

    ``<layer>.s`` is the inclusive time of the layer's outermost spans and
    ``<layer>.calls`` their number, so a layer calling itself (value_error
    calling values_with_errors) counts once; work counters sum over every
    span of the layer.  Rates are M kernel evaluations per inclusive second.
    """
    own = self_times(spans)
    top = set(outermost(spans, _layer))
    sums = {}
    for i, (name, start, end, _, counts) in enumerate(spans):
        layer = _layer(name)
        key = name if layer == "theorems" else layer
        for metric, value in (("s", end - start if i in top else 0.0),
                              ("calls", 1 if i in top else 0), ("self_s", own[i]),
                              *(counts or {}).items()):
            sums[key, metric] = sums.get((key, metric), 0) + value
        if layer == "theorems":
            sums["theorems", "self_s"] = sums.get(("theorems", "self_s"), 0.0) + own[i]
    out = {}
    for layer, counters in LAYERS:
        out[f"{layer}.calls"] = sums.get((layer, "calls"), 0)
        for counter in counters:
            out[f"{layer}.{counter}"] = sums.get((layer, counter), 0)
        out[f"{layer}.s"] = sums.get((layer, "s"), 0.0)
        if layer in WITH_CHILDREN:
            out[f"{layer}.self_s"] = sums.get((layer, "self_s"), 0.0)
        if layer in RATED:
            seconds = out[f"{layer}.s"]
            out[f"{layer}.meval_per_s"] = out[f"{layer}.kevals"] / seconds / 1e6 if seconds else 0.0
    unique = out.pop("extension.values.unique")
    points = out["extension.values.points"]
    out["extension.values.unique_ratio"] = unique / points if points else 0.0
    out["norms.pairs"] = out.pop("norms.lipschitz.pairs")
    out["extension.errors"] = errors
    for suite in SUITE_NAMES:
        out[f"theorems.{suite}.s"] = sums.get((f"theorems.{suite}", "s"), 0.0)
    out["theorems.self_s"] = sums.get(("theorems", "self_s"), 0.0)
    out["cli.self_s"] = sums.get(("cli", "self_s"), 0.0)
    covered = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    out["trace.untraced_s"] = pass_s - covered
    return out
