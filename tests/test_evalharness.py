"""Evaluation harness: scoring metrics, run-suite bookkeeping (resume,
build-once registry, per-cell error capture, run-log damage), TTFT
measurement, and report aggregation."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import kvcbench.compress as compress_mod
import kvcbench.evalharness as evalharness
from kvcbench.baselines import compress_streaming_llm
from kvcbench.compress import guidance_fingerprint, plan_chunks
from kvcbench.errors import FormatError, UsageError
from kvcbench.evalharness import (
    COMPRESSED_METHODS,
    METHODS,
    REPORT_CSV_COLUMNS,
    RUNS_SCHEMA_VERSION,
    TTFT_CSV_COLUMNS,
    RunRecord,
    emit_report,
    load_records,
    make_guidance,
    measure_ttft,
    normalize,
    question_prompt,
    run_suite,
    select_fewshot,
    word_overlap,
    write_ttft_csv,
)
from kvcbench.modelcore import GenerationParams, ModelConfig, init_random_model, prefill
from kvcbench.retrieval import index_chunks
from kvcbench.vocab import tokenize

from conftest import random_ids


def test_normalize_strips_punctuation_and_case():
    assert normalize("The R&D dept.") == ["the", "rd", "dept"]
    assert normalize("  a  B ") == ["a", "b"]


def test_word_overlap_is_set_recall():
    assert word_overlap("works in r&d and sales", ["R&D"]) == 1.0
    assert word_overlap("sales only", ["r&d", "sales"]) == 0.5
    assert word_overlap("nothing relevant", ["marketing"]) == 0.0
    assert word_overlap("alpha alpha beta", ["alpha beta"]) == 1.0
    with pytest.raises(UsageError, match="gold word set is empty"):
        word_overlap("anything", ["..."])


def test_question_prompt_brackets_with_cue_words(small_bundle):
    q = small_bundle.questions[0]
    seq = question_prompt(q.text, small_bundle.vocab)
    want = tokenize(f"question {q.text} answer", small_bundle.vocab)
    assert list(seq.ids) == list(want.ids)


def test_select_fewshot_contract(small_bundle):
    assert select_fewshot(small_bundle, 0) == []
    picked = select_fewshot(small_bundle, 3)
    assert picked == select_fewshot(small_bundle, 3)
    assert len({q.qid for q in picked}) == 3
    assert all(q in small_bundle.questions for q in picked)
    assert select_fewshot(small_bundle, 3, seed=1) != picked
    with pytest.raises(UsageError, match="few-shot"):
        select_fewshot(small_bundle, len(small_bundle.questions))


def test_make_guidance_kinds(small_bundle):
    examples = select_fewshot(small_bundle, 2)
    zs = make_guidance("zs", examples)
    assert zs.kind == "zs" and zs.examples == () and zs.query is None
    fs = make_guidance("fs", examples)
    assert fs.kind == "fs"
    assert fs.examples == tuple((q.text, " ".join(q.answers)) for q in examples)
    fsq = make_guidance("fsq", examples, query="who did what")
    assert fsq.kind == "fsq" and fsq.query == "who did what"
    with pytest.raises(UsageError, match="unknown guidance kind"):
        make_guidance("qq", examples)


@pytest.fixture(scope="module")
def suite(small_bundle, small_model, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "runs.jsonl"
    registry = {}
    records = run_suite(
        small_model, small_bundle,
        methods=("full", "rag", "kvc_zs", "streaming"),
        budgets=(64, 128),
        out_path=out,
        params=GenerationParams(max_new_tokens=6),
        registry=registry,
    )
    return records, out, registry


def test_suite_cell_grid(suite, small_bundle):
    records, _, _ = suite
    # 8 questions minus 3 reserved examples, full collapses to budget 0
    assert len(records) == 5 + 10 + 10 + 10
    reserved = {q.qid for q in select_fewshot(small_bundle, 3)}
    assert not any(r.qid in reserved for r in records)
    full = [r for r in records if r.method == "full"]
    assert len(full) == 5 and all(r.budget == 0 for r in full)
    assert all(r.retention == 1.0 and r.error == "" for r in full)
    assert all(r.schema_version == RUNS_SCHEMA_VERSION for r in records)


def test_suite_captures_cell_failures_without_aborting(suite):
    records, _, _ = suite
    # chunk width is 80: a 64-token budget cannot hold a single chunk
    rag64 = [r for r in records if r.method == "rag" and r.budget == 64]
    assert len(rag64) == 5
    assert all("below chunk width" in r.error for r in rag64)
    assert all(r.overlap == 0.0 for r in rag64)
    rag128 = [r for r in records if r.method == "rag" and r.budget == 128]
    assert all(r.error == "" for r in rag128)
    assert all(r.evidence_recall is not None for r in rag128)


def test_suite_charges_builds_to_first_record(suite):
    records, _, registry = suite
    for method, budget in (("kvc_zs", 64), ("kvc_zs", 128), ("streaming", 64)):
        cells = [r for r in records if r.method == method and r.budget == budget]
        assert cells[0].compress_s > 0.0
        assert all(r.compress_s == 0.0 for r in cells[1:])
    full = [r for r in records if r.method == "full"]
    assert full[0].prefill_s > full[1].prefill_s
    assert all(entry["charged"] for entry in registry.values())


def test_suite_jsonl_round_trip(suite):
    records, out, _ = suite
    loaded = load_records(out)
    assert loaded == records


def test_suite_resume_skips_finished_cells(suite, small_bundle, small_model):
    records, out, _ = suite
    n_lines = len(out.read_text().splitlines())
    before = compress_mod.COMPRESSION_CALLS
    again = run_suite(
        small_model, small_bundle,
        methods=("full", "rag", "kvc_zs", "streaming"),
        budgets=(64, 128),
        out_path=out,
        params=GenerationParams(max_new_tokens=6),
    )
    assert compress_mod.COMPRESSION_CALLS == before
    assert len(again) == len(records)
    assert len(out.read_text().splitlines()) == n_lines
    assert {(r.qid, r.method, r.budget) for r in again} == {
        (r.qid, r.method, r.budget) for r in records
    }


def test_suite_rejects_unknown_method_and_reserved_questions(
    small_bundle, small_model, tmp_path
):
    with pytest.raises(UsageError, match="unknown method"):
        run_suite(small_model, small_bundle, ("mystery",), (64,), tmp_path / "x.jsonl")
    reserved = select_fewshot(small_bundle, 3)
    with pytest.raises(UsageError, match="reserved as few-shot"):
        run_suite(small_model, small_bundle, ("full",), (64,), tmp_path / "y.jsonl",
                  questions=[reserved[0]])


def test_suite_runs_every_method_with_one_build_each(small_bundle, small_model, tmp_path):
    question = [q for q in small_bundle.questions if q not in select_fewshot(small_bundle, 3)][:1]
    registry = {}
    records = run_suite(
        small_model, small_bundle, METHODS, (160,), tmp_path / "all.jsonl",
        questions=question, params=GenerationParams(max_new_tokens=4), registry=registry,
    )
    assert [r.method for r in records] == list(METHODS)
    assert [r.error for r in records] == [""] * len(METHODS)
    assert sorted(key[0] for key in registry) == sorted(["full", "rag_index", *COMPRESSED_METHODS])


def test_suite_prefills_the_corpus_once_for_every_build(small_bundle, small_model, tmp_path, monkeypatch):
    n = len(small_bundle.corpus_tokens().ids)
    first_segment = plan_chunks(n, 2)[0][1]
    corpus_prefills = []

    def counted(model, cache, ids, **spans):
        # a prefill from row 0 covering at least a first segment of the corpus
        if cache.length == 0 and len(ids) >= first_segment:
            corpus_prefills.append(len(ids))
        return prefill(model, cache, ids, **spans)

    for module in (compress_mod, evalharness):
        monkeypatch.setattr(module, "prefill", counted)
    examples = select_fewshot(small_bundle, 3)
    questions = [q for q in small_bundle.questions if q not in examples][:2]
    methods = ("full", "kvc_fs", "kvc_fsq", "snapkv", "expattn", "streaming")
    registry = {}
    records = run_suite(
        small_model, small_bundle, methods, (160, 320), tmp_path / "shared.jsonl",
        questions=questions, params=GenerationParams(max_new_tokens=4), registry=registry,
    )
    assert not any(r.error for r in records)
    assert corpus_prefills == [n]

    guidance = {}
    for kind in ("fs", "fsq"):
        for q in questions:
            g = make_guidance(kind, examples, query=q.text)
            guidance[guidance_fingerprint(g, small_bundle.vocab).hex()] = g
    built = [(key, entry["value"]) for key, entry in registry.items() if key[0] in COMPRESSED_METHODS]
    assert len(built) == 2 * (1 + len(questions) + 3)
    for (method, _, _, gfp, budget, s), compressed in built:
        build = COMPRESSED_METHODS[method][1]
        alone = build(small_model, small_bundle.corpus_tokens(), guidance.get(gfp),
                      small_bundle.vocab, budget, s, lambda: None)
        for layer in range(small_model.config.n_layers):
            assert np.array_equal(compressed.kept_positions[layer], alone.kept_positions[layer])
            assert np.array_equal(compressed.keys[layer], alone.keys[layer])

    # a build already in the registry never claims the prefill again
    corpus_prefills.clear()
    del registry[("full", small_model.fingerprint, small_bundle.corpus_fingerprint().hex())]
    run_suite(
        small_model, small_bundle, ("kvc_fs", "snapkv"), (160,), tmp_path / "warm.jsonl",
        questions=questions, params=GenerationParams(max_new_tokens=4), registry=registry,
    )
    assert corpus_prefills == []

    rag = run_suite(
        small_model, small_bundle, ("rag",), (160,), tmp_path / "rag.jsonl",
        questions=questions, params=GenerationParams(max_new_tokens=4), registry={},
    )
    assert not any(r.error for r in rag)
    assert corpus_prefills == []


def test_models_sharing_a_registry_answer_as_with_fresh_registries(small_bundle, small_model, tmp_path):
    models = (small_model, init_random_model(small_model.config, seed=1))

    def cells(model, registry, name):
        records = run_suite(
            model, small_bundle, ("full", "kvc_zs"), (64,), tmp_path / name,
            params=GenerationParams(max_new_tokens=4), registry=registry,
        )
        return [(r.qid, r.method, r.answer, r.retention, r.error) for r in records]

    shared = {}
    together = [cells(m, shared, f"shared{i}.jsonl") for i, m in enumerate(models)]
    apart = [cells(m, {}, f"fresh{i}.jsonl") for i, m in enumerate(models)]
    assert together == apart
    assert not any(error for suite_cells in together for *_, error in suite_cells)


def test_suite_resume_reruns_only_a_torn_last_cell(suite, small_bundle, small_model, tmp_path, caplog):
    records, out, _ = suite
    whole = out.read_bytes().splitlines(keepends=True)
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(b"".join(whole[:-1]) + whole[-1][: len(whole[-1]) // 2])
    with caplog.at_level("WARNING", logger="kvcbench.evalharness"):
        assert load_records(torn) == records[:-1]
    assert "torn last line" in caplog.text
    before = compress_mod.COMPRESSION_CALLS
    again = run_suite(
        small_model, small_bundle,
        methods=("full", "rag", "kvc_zs", "streaming"),
        budgets=(64, 128),
        out_path=torn,
        params=GenerationParams(max_new_tokens=6),
    )
    assert compress_mod.COMPRESSION_CALLS == before + 1  # the last cell's streaming build
    assert again[:-1] == records[:-1]
    assert (again[-1].qid, again[-1].answer) == (records[-1].qid, records[-1].answer)
    lines = torn.read_bytes().splitlines(keepends=True)
    assert lines[:-1] == whole[:-1] and len(lines) == len(whole)
    assert load_records(torn) == again


@pytest.mark.parametrize("damage", [
    lambda good: [b"{not json", good],
    lambda good: [good.replace(b'"qid"', b'"quid"'), good],
    lambda good: [good.replace(b'"answer": "x", ', b""), good],
    lambda good: [b"[1, 2]"],
    lambda good: [good.replace(b'"schema_version": 1', b'"schema_version": 99')],
    lambda good: [good.replace(b'"overlap": 1.0', b'"overlap": "high"')],
    lambda good: [good.replace(b'"budget": 512', b'"budget": 1.5')],
    lambda good: [good.replace(b'"budget": 512', b'"budget": true')],
    lambda good: [good.replace(b'"answer": "x"', b'"answer": null')],
    lambda good: [good.replace(b'"retention": null', b'"retention": [1.0]')],
])
def test_load_records_rejects_damage_other_than_a_torn_tail(tmp_path, damage):
    good = json.dumps(dataclasses.asdict(make_record())).encode()
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join([good, *damage(good)]) + b"\n")
    with pytest.raises(FormatError, match="line 2"):
        load_records(path)


def test_load_records_accepts_integral_floats_and_null_optionals(tmp_path):
    row = dataclasses.asdict(make_record(overlap=1, retention=None, evidence_recall=0))
    path = tmp_path / "ok.jsonl"
    path.write_text(json.dumps(row) + "\n")
    assert load_records(path) == [make_record(overlap=1.0, evidence_recall=0.0)]


def make_record(**kwargs):
    base = dict(
        qid="q0", kind="direct", method="rag", budget=512, connectivity=2,
        corpus_fp="aa", answer="x", overlap=1.0, retention=None,
        evidence_recall=None, compress_s=0.0, retrieve_s=0.0, prefill_s=0.0,
        first_token_s=0.0, elapsed_s=0.0,
    )
    base.update(kwargs)
    return RunRecord(**base)


def test_emit_report_groups_and_bound(tmp_path):
    records = [
        make_record(qid="q0", overlap=0.5, evidence_recall=0.5, kind="join"),
        make_record(qid="q1", overlap=1.0, evidence_recall=1.0, kind="direct"),
        make_record(qid="q0", method="kvc_fs", overlap=0.25, retention=0.75),
    ]
    out = tmp_path / "report.csv"
    rows = emit_report(records, out, chunk_tokens=256)
    by_method = {(r["method"], r["budget"]): r for r in rows}

    rag = by_method[("rag", 512)]
    assert rag["n"] == 2
    assert rag["mean_overlap"] == pytest.approx(0.75)
    assert rag["mean_evidence_recall"] == pytest.approx(0.75)
    assert rag["mean_retention"] == ""

    kvc = by_method[("kvc_fs", 512)]
    assert kvc["mean_retention"] == pytest.approx(0.75)

    # one join record at budget 512, conn 2: ceiling is 2 chunks / 3 evidence
    bound = by_method[("rag_bound", 512)]
    assert bound["n"] == 1
    assert bound["mean_evidence_recall"] == pytest.approx(2 / 3)

    with out.open() as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == REPORT_CSV_COLUMNS
        assert len(list(reader)) == len(rows)


def test_emit_report_validation(tmp_path):
    with pytest.raises(UsageError, match="no records"):
        emit_report([], tmp_path / "empty.csv")
    mixed = [make_record(qid="a", corpus_fp="aa"), make_record(qid="b", corpus_fp="bb")]
    with pytest.raises(UsageError, match="mix 2 different corpus fingerprints"):
        emit_report(mixed, tmp_path / "mixed.csv")


def test_emit_report_on_real_suite(suite, tmp_path):
    records, _, _ = suite
    rows = emit_report(records, tmp_path / "suite.csv", chunk_tokens=80)
    bounds = {r["budget"]: r for r in rows if r["method"] == "rag_bound"}
    assert bounds[64]["mean_evidence_recall"] == pytest.approx(0.0)
    assert bounds[128]["mean_evidence_recall"] == pytest.approx((128 // 80) / 3)


def test_measure_ttft_full_and_kvc(tiny_model):
    rng = np.random.default_rng(9)
    corpus = random_ids(rng, tiny_model.config.vocab_size, 256)
    question = random_ids(rng, tiny_model.config.vocab_size, 8)
    rec = measure_ttft(tiny_model, "full", question, corpus=corpus, reps=2)
    assert rec.feasible and rec.reps == 2
    assert 0 < rec.min_s <= rec.median_s
    assert rec.corpus_tokens == 256 and rec.question_tokens == 8

    compressed = compress_streaming_llm(tiny_model, corpus, k=32)
    krec = measure_ttft(tiny_model, "kvc", question, compressed=compressed,
                        budget=32, reps=2)
    assert krec.feasible and krec.budget == 32
    assert krec.corpus_tokens == 256


def test_measure_ttft_rag(small_bundle, small_model):
    index = index_chunks(small_bundle)
    q = question_prompt(small_bundle.questions[0].text, small_bundle.vocab)
    rec = measure_ttft(small_model, "rag", q, bundle=small_bundle, index=index,
                       budget=160, reps=1)
    assert rec.feasible
    assert rec.corpus_tokens == small_bundle.spec.n_tokens


def _infeasible_full(tiny_model, small_bundle):
    rng = np.random.default_rng(10)
    corpus = random_ids(rng, tiny_model.config.vocab_size, tiny_model.config.max_position + 100)
    return measure_ttft(tiny_model, "full", [5, 6], corpus=corpus, reps=2)


def _infeasible_rag(tiny_model, small_bundle):
    # a 320-token selection plus the question overflows 256 positions
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                         vocab_size=len(small_bundle.vocab.id_to_token), max_position=256)
    q = question_prompt(small_bundle.questions[0].text, small_bundle.vocab)
    return measure_ttft(init_random_model(config, seed=0), "rag", q, bundle=small_bundle,
                        index=index_chunks(small_bundle), budget=320, reps=2)


def _infeasible_kvc(tiny_model, small_bundle):
    # a cache that already fills every position leaves none for the question
    rng = np.random.default_rng(10)
    n = tiny_model.config.max_position
    compressed = compress_streaming_llm(tiny_model, random_ids(rng, tiny_model.config.vocab_size, n), k=n)
    assert compressed.n_kept == n
    return measure_ttft(tiny_model, "kvc", [5, 6], compressed=compressed, budget=n, reps=2)


@pytest.mark.parametrize("scenario", ["full", "rag", "kvc"])
def test_measure_ttft_infeasible_is_nan_not_error(tiny_model, small_bundle, scenario):
    rec = {"full": _infeasible_full, "rag": _infeasible_rag, "kvc": _infeasible_kvc}[scenario](
        tiny_model, small_bundle)
    assert not rec.feasible and rec.scenario == scenario
    assert math.isnan(rec.median_s) and math.isnan(rec.min_s)


def test_measure_ttft_validation(tiny_model):
    with pytest.raises(UsageError, match="unknown scenario"):
        measure_ttft(tiny_model, "warp", [5], corpus=[6])
    with pytest.raises(UsageError, match="reps"):
        measure_ttft(tiny_model, "full", [5], corpus=[6], reps=0)
    with pytest.raises(UsageError, match="question must be nonempty"):
        measure_ttft(tiny_model, "full", [], corpus=[6])
    with pytest.raises(UsageError, match="needs the corpus"):
        measure_ttft(tiny_model, "full", [5])
    with pytest.raises(UsageError, match="needs a bundle and an index"):
        measure_ttft(tiny_model, "rag", [5])
    with pytest.raises(UsageError, match="needs a compressed cache"):
        measure_ttft(tiny_model, "kvc", [5])


def test_write_ttft_csv(tmp_path, tiny_model):
    rng = np.random.default_rng(11)
    corpus = random_ids(rng, tiny_model.config.vocab_size, 64)
    rec = measure_ttft(tiny_model, "full", [5, 6], corpus=corpus, reps=1)
    path = tmp_path / "ttft.csv"
    write_ttft_csv([rec], path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TTFT_CSV_COLUMNS
    assert "schema_version" not in rows[0]
    assert rows[1][0] == "full"
    assert len(rows) == 2


def test_methods_catalog_is_pinned():
    assert METHODS == ("full", "rag", "kvc_zs", "kvc_fs", "kvc_fsq",
                       "streaming", "snapkv", "expattn", "oracle")
