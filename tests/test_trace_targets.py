"""The benchmark's tracer still finds every name it patches.

``bench/tracing.py`` wraps package functions by the names their callers look
them up by.  A refactor that drops or renames one of them breaks traced
benchmark runs, so this test installs the tracer from its file, unchanged,
and runs small lemma21, thm24, lemma22, schwarzpick and lemma33 suites
under it.  Its spans assume one thread, so a small ``run_suite("all")``
also runs under it, and every traced call must come from the calling thread.
"""

import importlib.util
import threading
from pathlib import Path

import pytest

import hballs.errors
import hballs.extension
import hballs.norms
import hballs.theorems
from hballs.theorems import HarnessConfig

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = {"theorems": hballs.theorems, "norms": hballs.norms,
           "extension": hballs.extension, "errors": hballs.errors}


def load_tracing():
    spec = importlib.util.spec_from_file_location("hballs_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("suite", ["thm24", "lemma22"])
def test_tracer_installs_and_records_the_sweep_layers(suite):
    tracing = load_tracing()
    originals = {name: getattr(hballs.theorems, name)
                 for name in ("h_extend", "wirtinger_fd_many", "weighted_lipschitz_sup",
                              "bloch_seminorm")}
    call = hballs.extension.HExtension.__call__
    tracer = tracing.install(MODULES)
    try:
        reports = hballs.theorems.SUITES[suite](
            HarnessConfig(n=2, mc_nodes=1100, pairs=40, seed=5))
    finally:
        tracer.unpatch()
    assert all(rep.passed for rep in reports)
    metrics = tracing.layer_metrics(tracer.spans, pass_s=1.0, errors=tracer.errors)
    assert metrics[f"theorems.{suite}.s"] > 0.0
    assert metrics["extension.build.calls"] == 1          # one stacked extension
    if suite == "thm24":                                  # pair endpoints
        assert metrics["extension.values.calls"] >= 1
        assert metrics["extension.values.kevals"] > 0
    else:                                                 # exact derivatives only
        assert metrics["extension.values.calls"] == 0
    assert metrics["calculus.fd.calls"] >= 1
    assert metrics["extension.errors"] == 0
    # unpatch restores the program as shipped
    assert hballs.extension.HExtension.__call__ is call
    for name, original in originals.items():
        assert getattr(hballs.theorems, name) is original


@pytest.mark.parametrize("suite, values_se", [("schwarzpick", 1), ("lemma33", 1)])
def test_tracer_records_the_pointwise_layers(suite, values_se):
    tracing = load_tracing()
    tracer = tracing.install(MODULES)
    try:
        reports = hballs.theorems.SUITES[suite](
            HarnessConfig(n=2, mc_nodes=1100, samples=8, seed=5))
    finally:
        tracer.unpatch()
    assert all(rep.passed for rep in reports)
    metrics = tracing.layer_metrics(tracer.spans, pass_s=1.0, errors=tracer.errors)
    assert metrics[f"theorems.{suite}.s"] > 0.0
    assert metrics["extension.build.calls"] == 1          # one stacked extension
    assert metrics["extension.values_se.calls"] == values_se   # lemma33: both radii in one pass
    assert metrics["extension.values_se.kevals"] > 0
    assert metrics["extension.values.calls"] == 0         # f(0) is a row of the values_se batch
    assert metrics["extension.errors"] == 0


def test_tracer_records_one_build_and_one_value_call_in_lemma21():
    tracing = load_tracing()
    tracer = tracing.install(MODULES)
    try:
        reports = hballs.theorems.SUITES["lemma21"](HarnessConfig(n=1, nodes=1024, seed=5))
    finally:
        tracer.unpatch()
    assert all(rep.passed for rep in reports)
    metrics = tracing.layer_metrics(tracer.spans, pass_s=1.0, errors=tracer.errors)
    assert metrics["theorems.lemma21.s"] > 0.0
    assert metrics["extension.build.calls"] == 1          # bump; the others are closed forms
    assert metrics["extension.values.calls"] == 1         # all four bump cases in one call
    assert metrics["extension.values.points"] == 4 * (8 + 1 + 1024)
    assert metrics["extension.errors"] == 0


class ThreadRecordingSpans(list):
    """The tracer's span list, noting the thread that opens each span."""

    def __init__(self):
        super().__init__()
        self.threads = set()

    def append(self, record):
        self.threads.add(threading.get_ident())
        super().append(record)


def test_all_suites_keep_every_traced_call_on_the_calling_thread():
    tracing = load_tracing()
    tracer = tracing.install(MODULES)
    tracer.spans = ThreadRecordingSpans()
    try:
        reports = hballs.theorems.run_suite(
            "all", HarnessConfig(n=1, nodes=512, seed=5, samples=10, pairs=40))
    finally:
        tracer.unpatch()
    assert all(rep.passed for rep in reports)
    assert tracer.spans.threads == {threading.get_ident()}
    # a span opened off this thread would take a parent from its stack
    assert all(own >= 0.0 for own in tracing.self_times(tracer.spans))
    top = [name for name, _, _, parent, _ in tracer.spans if parent < 0]
    assert top == [f"theorems.{suite}" for suite in hballs.theorems.SUITES]
    metrics = tracing.layer_metrics(tracer.spans, pass_s=1.0, errors=tracer.errors)
    assert metrics["extension.errors"] == 0
