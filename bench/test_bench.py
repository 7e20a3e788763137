"""The benchmark's own test: traced runs repeat their shape-derived counts
exactly, and tracing leaves every output bitwise unchanged.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
from kvcbench import compress, evalharness, modelcore  # noqa: E402
from workloads import WORKLOADS, BuildSizes, GridSizes, ServeSizes  # noqa: E402

CORPUS = {"n_people": 4, "n_projects": 4, "n_filler": 2, "chunk_tokens": 80, "questions_per_kind": 4}
SMALL = {
    "serve": ServeSizes(corpus=CORPUS, k=256, rag_budget=160),
    "build": BuildSizes(corpus=CORPUS, fs_ks=(64, 256), baseline_k=128, diag_k=256,
                        diag_questions=2, diag_hidden=64),
    "grid": GridSizes(corpus=CORPUS, budgets=(160, 320), n_questions=2),
}
TIME_UNITS = ("s", "%")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_outputs_match_untraced(name, tmp_path):
    runs = [harness.traced_outcome(WORKLOADS[name](3, SMALL[name]), tmp_path) for _ in range(2)]
    for run in runs:
        failed = [check for check, ok in run["checks"] if not ok]
        assert not failed, failed
    units = harness.metric_units("per_layer")
    assert set(runs[0]["layers"]) >= set(units)
    counts = [{k: v for k, v in run["layers"].items() if k in units and units[k] not in TIME_UNITS} for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["modelcore.prefill.calls"] > 0


def test_tracing_restores_the_library():
    before = (modelcore.prefill, compress.prefill, evalharness.prefill, modelcore.KvCache.append)
    tracer = harness.tracing.Tracer()
    with harness.tracing.installed(tracer):
        assert compress.prefill is not before[1]
        assert evalharness.prefill is compress.prefill
    assert (modelcore.prefill, compress.prefill, evalharness.prefill, modelcore.KvCache.append) == before


def test_attribution_check_fails_on_a_span_no_layer_is_charged_for():
    def span(name, t0, t1, parent):
        return harness.tracing.Span(name, t0, t1, parent, 1, None)

    spans = [
        span("op.serve", 0.0, 10.0, -1),
        span("retrieval.retrieve", 1.0, 4.0, 0),
        span("retrieval.unknown", 5.0, 9.0, 0),
    ]
    m = harness.tracing.layer_metrics(spans, range(3))
    assert not harness.tracing.adds_up(m, 10.0, 0.5)
    spans[2].name = "retrieval.assemble_context"
    m = harness.tracing.layer_metrics(spans, range(3))
    assert m["retrieval.retrieve.self_s"] == 3.0 and m["unattributed_s"] == 3.0
    assert harness.tracing.adds_up(m, 10.0, 0.0)
    # set-up spans mixed into the op figures no longer add up to op wall time
    spans.append(span("op.setup", 10.0, 12.0, -1))
    spans.append(span("corpusgen.generate_corpus", 10.5, 11.5, 3))
    assert not harness.tracing.adds_up(harness.tracing.layer_metrics(spans, range(5)), 10.0, 0.5)
