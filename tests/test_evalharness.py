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
from kvcbench.compress import guidance_fingerprint, plan_chunks
from kvcbench.corpusgen import generate_corpus
from kvcbench.errors import FormatError, StaleCacheError, UsageError
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


@pytest.mark.parametrize("other", ["corpus", "connectivity"])
def test_suite_refuses_a_runs_file_of_another_corpus(suite, small_bundle, small_model, tmp_path, other):
    records, out, _ = suite
    runs = tmp_path / "runs.jsonl"
    if other == "corpus":  # the same spec with two more filler chunks
        bundle = generate_corpus(dataclasses.replace(small_bundle.spec, n_filler=small_bundle.spec.n_filler + 2))
        assert bundle.corpus_fingerprint() != small_bundle.corpus_fingerprint()
        runs.write_bytes(out.read_bytes())
    else:
        bundle = small_bundle
        lines = out.read_text().splitlines(keepends=True)
        stale = dataclasses.replace(records[0], connectivity=records[0].connectivity + 1)
        runs.write_text(json.dumps(dataclasses.asdict(stale)) + "\n" + "".join(lines[1:]))
    before, calls = runs.read_bytes(), compress_mod.COMPRESSION_CALLS
    with pytest.raises(StaleCacheError, match="runs.jsonl"):
        run_suite(small_model, bundle, methods=("full", "kvc_zs"), budgets=(64,), out_path=runs,
                  params=GenerationParams(max_new_tokens=6))
    assert runs.read_bytes() == before
    assert compress_mod.COMPRESSION_CALLS == calls


SETTINGS = ("chunk_tokens", "model_fp", "segments", "fewshot", "max_new")


def test_records_carry_the_settings_they_ran_under(suite, small_model):
    records, _, _ = suite
    assert {tuple(getattr(r, name) for name in SETTINGS) for r in records} == {
        (80, small_model.fingerprint.hex(), 2, 3, 6)}


@pytest.mark.parametrize("other", ["model", "segments", "fewshot", "max_new", "old_schema"])
def test_suite_refuses_a_runs_file_of_other_settings(suite, small_bundle, small_model, tmp_path, other):
    # old_schema: version 1 records, which carried no chunk width, are
    # refused as a format, not as another setting
    _, out, _ = suite
    runs = tmp_path / "runs.jsonl"
    if other == "old_schema":
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        runs.write_text("".join(json.dumps({**{k: v for k, v in row.items() if k != "chunk_tokens"},
                                            "schema_version": 1}) + "\n"
                                for row in rows))
    else:
        runs.write_bytes(out.read_bytes())
    kwargs = dict(model=small_model, s=2, n_fewshot=3, params=GenerationParams(max_new_tokens=6))
    if other == "model":
        kwargs["model"] = init_random_model(small_model.config, seed=1)
    elif other == "segments":
        kwargs["s"] = 1
    elif other == "fewshot":
        kwargs["n_fewshot"] = 2
    elif other == "max_new":
        kwargs["params"] = GenerationParams(max_new_tokens=7)
    before, calls = runs.read_bytes(), compress_mod.COMPRESSION_CALLS
    with pytest.raises(FormatError if other == "old_schema" else StaleCacheError, match="runs.jsonl"):
        run_suite(bundle=small_bundle, methods=("full", "kvc_zs"), budgets=(64,), out_path=runs, **kwargs)
    assert runs.read_bytes() == before
    assert compress_mod.COMPRESSION_CALLS == calls


@pytest.mark.parametrize("damage", [
    lambda good: [b"{not json", good],
    lambda good: [good.replace(b'"qid"', b'"quid"'), good],
    lambda good: [good.replace(b'"answer": "x", ', b""), good],
    lambda good: [b"[1, 2]"],
    lambda good: [good.replace(b'"schema_version": 2', b'"schema_version": 99')],
    lambda good: [good.replace(b'"schema_version": 2', b'"schema_version": 1')],
    lambda good: [good.replace(b'"chunk_tokens": 256', b'"chunk_tokens": 0')],
    lambda good: [good.replace(b'"chunk_tokens": 256, ', b"")],
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
        first_token_s=0.0, elapsed_s=0.0, chunk_tokens=256, model_fp="bb",
        segments=2, fewshot=3, max_new=12,
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
    rows = emit_report(records, out)
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
    rows = emit_report(records, tmp_path / "suite.csv")
    bounds = {r["budget"]: r for r in rows if r["method"] == "rag_bound"}
    assert bounds[64]["mean_evidence_recall"] == pytest.approx(0.0)
    assert bounds[128]["mean_evidence_recall"] == pytest.approx((128 // 80) / 3)


def test_measure_ttft_times_full_rag_and_kvc(small_bundle, small_model):
    q = question_prompt(small_bundle.questions[0].text, small_bundle.vocab)
    records = measure_ttft(small_model, small_bundle, q, 160, reps=2)
    assert [(r.scenario, r.corpus_tokens, r.budget, r.question_tokens) for r in records] == [
        ("full", 1600, 0, len(q.ids)), ("rag", 1600, 160, len(q.ids)), ("kvc", 1600, 160, len(q.ids))]
    for rec in records:
        assert rec.feasible and rec.reps == 2
        assert 0 < rec.min_s <= rec.median_s


def _ttft_model(small_bundle, max_position):
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                         vocab_size=len(small_bundle.vocab.id_to_token), max_position=max_position)
    return init_random_model(config, seed=0)


@pytest.mark.parametrize("budget,q_len,feasible", [
    # the 1,600-token corpus plus 200 question tokens overflow 1,700 positions
    pytest.param(800, 200, (False, True, True), id="full"),
    # rag assembles whole 80-token chunks, 1,520 rows, and fits; kvc keeps
    # all 1,590 budgeted rows and does not
    pytest.param(1590, 150, (False, True, False), id="kvc"),
    # every context is 1,600 rows: the compression fits, n_kept + question not
    pytest.param(1600, 200, (False, False, False), id="rag"),
])
def test_measure_ttft_infeasible_is_nan_not_error(small_bundle, budget, q_len, feasible):
    model = _ttft_model(small_bundle, 1700)
    question = random_ids(np.random.default_rng(10), model.config.vocab_size, q_len)
    records = measure_ttft(model, small_bundle, question, budget, reps=1)
    assert tuple(r.feasible for r in records) == feasible
    for rec in records:
        assert math.isnan(rec.median_s) != rec.feasible
        assert math.isnan(rec.min_s) != rec.feasible


def test_measure_ttft_rag_counts_assembled_rows(small_bundle):
    """A budget above the corpus assembles the whole 1,600-token corpus:
    with an 8-token question that fits 1,700 positions, as full does."""
    records = measure_ttft(_ttft_model(small_bundle, 1700), small_bundle, [5] * 8, 4000, reps=1)
    assert [(r.scenario, r.feasible) for r in records] == [("full", True), ("rag", True), ("kvc", True)]


def test_measure_ttft_validation(small_bundle, small_model, monkeypatch):
    with pytest.raises(UsageError, match="reps"):
        measure_ttft(small_model, small_bundle, [5], 160, reps=0)
    with pytest.raises(UsageError, match="question must be nonempty"):
        measure_ttft(small_model, small_bundle, [], 160)
    # a budget below one 80-token chunk is refused before anything is
    # compressed or timed
    monkeypatch.setattr(evalharness, "_timed_answer", lambda *a: pytest.fail("timed"))
    before = compress_mod.COMPRESSION_CALLS
    with pytest.raises(UsageError, match="below chunk width"):
        measure_ttft(small_model, small_bundle, [5], 40)
    assert compress_mod.COMPRESSION_CALLS == before


def test_write_ttft_csv(tmp_path, small_bundle, small_model):
    records = measure_ttft(small_model, small_bundle, [5, 6], 160, reps=1)
    path = tmp_path / "ttft.csv"
    write_ttft_csv(records, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TTFT_CSV_COLUMNS
    assert "schema_version" not in rows[0]
    assert [r[:4] for r in rows[1:]] == [
        ["full", "1600", "0", "2"], ["rag", "1600", "160", "2"], ["kvc", "1600", "160", "2"]]
    assert [r[4:] for r in rows[1:]] == [[repr(r.median_s), repr(r.min_s)] for r in records]


def test_methods_catalog_is_pinned():
    assert METHODS == ("full", "rag", "kvc_zs", "kvc_fs", "kvc_fsq",
                       "streaming", "snapkv", "expattn", "oracle")
