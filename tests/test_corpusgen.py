"""Corpus generator: determinism, exact geometry, gold-position bookkeeping,
the distinct/similar token-renaming isomorphism, and bundle directory IO."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvcbench.corpusgen as corpusgen
from kvcbench._binio import read_artifact
from kvcbench.cli import main
from kvcbench.corpusgen import (
    BUNDLE_DATA_FILES,
    BUNDLE_SCHEMA_VERSION,
    DEFAULT_TASK_DESCRIPTION,
    GUIDANCE_CUE_WORDS,
    MAX_CONNECTIVITY,
    CorpusSpec,
    compute_gold_token_positions,
    entity_token_positions,
    generate_corpus,
    load_bundle,
    save_bundle,
)
from kvcbench.errors import FormatError, MissingArtifactError, UsageError
from kvcbench.vocab import UNK

from conftest import SMALL_SPEC


@pytest.mark.parametrize("kwargs", [
    dict(connectivity=0),
    dict(connectivity=MAX_CONNECTIVITY + 1),
    dict(connectivity=5, n_projects=4),
    dict(n_people=0),
    dict(n_people=33),
    dict(n_projects=0),
    dict(n_filler=-1),
    dict(chunk_tokens=79),
    dict(questions_per_kind=0),
    dict(questions_per_kind=7, n_people=6),
    dict(name_style="fancy"),
])
def test_spec_validation(kwargs):
    base = dict(seed=1, connectivity=2, n_people=6, n_projects=6, n_filler=1,
                chunk_tokens=80, questions_per_kind=3)
    base.update(kwargs)
    with pytest.raises(UsageError):
        CorpusSpec(**base)


def test_generation_is_deterministic(small_bundle):
    again = generate_corpus(SMALL_SPEC)
    assert again.corpus_text() == small_bundle.corpus_text()
    assert again.questions == small_bundle.questions
    assert again.vocab.id_to_token == small_bundle.vocab.id_to_token
    assert again.corpus_fingerprint() == small_bundle.corpus_fingerprint()


def test_exact_geometry(small_bundle):
    spec = small_bundle.spec
    assert spec.n_chunks == 2 * 6 + 6 + 2 == 20
    assert spec.n_tokens == 20 * 80
    assert len(small_bundle.chunks) == 20
    for i, doc in enumerate(small_bundle.chunks):
        assert doc.chunk_id == i
        assert len(doc.text.split()) == 80
    kinds = [doc.kind for doc in small_bundle.chunks]
    assert kinds.count("person") == 6
    assert kinds.count("project") == 6
    assert kinds.count("membership") == 6
    assert kinds.count("filler") == 2
    assert len(small_bundle.corpus_tokens().ids) == spec.n_tokens


def test_question_shape_and_ids(small_bundle):
    qs = small_bundle.questions
    assert len(qs) == 8
    direct = [q for q in qs if q.kind == "direct"]
    join = [q for q in qs if q.kind == "join"]
    assert [q.qid for q in direct] == [f"s7c2d{i:02d}" for i in range(4)]
    assert [q.qid for q in join] == [f"s7c2j{i:02d}" for i in range(4)]
    for q in direct:
        assert len(q.evidence) == 1
        assert small_bundle.chunks[q.evidence[0]].kind == "membership"
    for q in join:
        assert len(q.evidence) == 1 + small_bundle.spec.connectivity
        ev_kinds = [small_bundle.chunks[c].kind for c in q.evidence]
        assert ev_kinds[0] == "membership"
        assert all(k == "project" for k in ev_kinds[1:])


def test_gold_positions_point_at_answer_words(small_bundle):
    corpus_words = small_bundle.corpus_text().split()
    for q in small_bundle.questions:
        assert q.gold_positions == compute_gold_token_positions(small_bundle, q)
        hit_words = {corpus_words[p] for p in q.gold_positions}
        assert hit_words == set(q.answers)
        width = small_bundle.spec.chunk_tokens
        assert {p // width for p in q.gold_positions} <= set(q.evidence)


def test_gold_positions_reject_absent_answer(small_bundle):
    q = small_bundle.questions[0]
    broken = dataclasses.replace(q, answers=("nosuchword",))
    with pytest.raises(RuntimeError, match="generator bug"):
        compute_gold_token_positions(small_bundle, broken)


def test_entity_positions_match_brute_force(small_bundle):
    corpus_words = small_bundle.corpus_text().split()
    for q in small_bundle.questions:
        got = entity_token_positions(small_bundle, q.entities)
        want = tuple(i for i, w in enumerate(corpus_words) if w in set(q.entities))
        assert got == want
        assert len(got) > 0


def test_vocab_covers_corpus_questions_and_guidance(small_bundle):
    vocab = small_bundle.vocab
    assert UNK not in small_bundle.corpus_tokens().ids
    for q in small_bundle.questions:
        for w in q.text.split():
            assert w in vocab.token_to_id
    for w in list(DEFAULT_TASK_DESCRIPTION.split()) + list(GUIDANCE_CUE_WORDS):
        assert w in vocab.token_to_id


def test_similar_variant_is_token_renaming(small_bundle):
    similar = generate_corpus(dataclasses.replace(SMALL_SPEC, name_style="similar"))
    assert similar.spec.name_style == "similar"

    def names(bundle):
        return [doc.text.split()[0] for doc in bundle.chunks if doc.kind == "person"]

    mapping = dict(zip(names(small_bundle), names(similar)))
    assert sorted(mapping.values()) == [f"person_{i + 1:02d}" for i in range(6)]

    def rename(text):
        return " ".join(mapping.get(w, w) for w in text.split())

    assert rename(small_bundle.corpus_text()) == similar.corpus_text()
    for dq, sq in zip(small_bundle.questions, similar.questions):
        assert dq.qid == sq.qid
        assert dq.kind == sq.kind
        assert dq.template_id == sq.template_id
        assert dq.evidence == sq.evidence
        assert dq.gold_positions == sq.gold_positions
        assert rename(dq.text) == sq.text
        assert tuple(mapping.get(a, a) for a in dq.answers) == sq.answers


def test_save_round_trip_and_determinism(tmp_path, small_bundle):
    d1, d2 = tmp_path / "b1", tmp_path / "b2"
    save_bundle(small_bundle, d1)
    save_bundle(small_bundle, d2)
    for part in ("corpus.jsonl", "questions.jsonl", "spec.json", "vocab.txt"):
        assert (d1 / part).read_bytes() == (d2 / part).read_bytes()

    loaded = load_bundle(d1)
    assert loaded.spec == small_bundle.spec
    assert [c.text for c in loaded.chunks] == [c.text for c in small_bundle.chunks]
    assert loaded.questions == small_bundle.questions
    assert loaded.corpus_fingerprint() == small_bundle.corpus_fingerprint()


def saved_dir(tmp_path, bundle):
    out = tmp_path / "bundle"
    save_bundle(bundle, out)
    return out


def test_load_missing_parts(tmp_path, small_bundle):
    missing = r"cannot read bundle file \S*nowhere/spec\.json: No such file"
    with pytest.raises(MissingArtifactError, match=missing):
        load_bundle(tmp_path / "nowhere")
    out = saved_dir(tmp_path, small_bundle)
    (out / "questions.jsonl").unlink()
    with pytest.raises(MissingArtifactError, match="questions.jsonl"):
        load_bundle(out)


def test_load_rejects_tampered_corpus(tmp_path, small_bundle):
    out = saved_dir(tmp_path, small_bundle)
    path = out / "corpus.jsonl"
    lines = path.read_text().splitlines()
    row = json.loads(lines[0])
    words = row["text"].split()
    words[3] = "tampered"
    row["text"] = " ".join(words)
    lines[0] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="does not match recorded fingerprint"):
        load_bundle(out)


def test_load_reads_each_bundle_file_once(tmp_path, small_bundle, monkeypatch, capsys):
    """The fingerprint check covers the bytes that were parsed: each file is
    read once, and a data file changed after the save still exits 4."""
    out = saved_dir(tmp_path, small_bundle)
    reads = []

    def counted(path, what):
        reads.append(Path(path).name)
        return read_artifact(path, what)

    monkeypatch.setattr(corpusgen, "read_artifact", counted)
    assert load_bundle(out).questions == small_bundle.questions
    assert sorted(reads) == sorted(["spec.json", *BUNDLE_DATA_FILES])

    # each edit keeps its file parseable, so only the fingerprint sees it
    edits = {
        "corpus.jsonl": lambda raw: raw.replace(b'"text": "', b'"text": "x', 1),
        "questions.jsonl": lambda raw: raw.replace(b'"text": "', b'"text": "x', 1),
        "vocab.txt": lambda raw: raw[:-1] + b"x\n",
    }
    for part, edit in edits.items():
        path = out / part
        raw = path.read_bytes()
        path.write_bytes(edit(raw))
        reads.clear()
        assert main(["rag", "--bundle", str(out), "--question", "anything"]) == 4
        assert sorted(reads) == sorted(["spec.json", *BUNDLE_DATA_FILES])
        assert "does not match recorded fingerprint" in capsys.readouterr().err
        path.write_bytes(raw)


def test_load_rejects_wrong_chunk_count_and_width(tmp_path, small_bundle):
    out = saved_dir(tmp_path, small_bundle)
    path = out / "corpus.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FormatError, match="expected 20 chunks"):
        load_bundle(out)

    out2 = saved_dir(tmp_path / "w", small_bundle)
    path2 = out2 / "corpus.jsonl"
    lines2 = path2.read_text().splitlines()
    row = json.loads(lines2[2])
    row["text"] = row["text"] + " extra"
    lines2[2] = json.dumps(row)
    path2.write_text("\n".join(lines2) + "\n")
    with pytest.raises(FormatError, match="chunk 2 is not 80 tokens"):
        load_bundle(out2)


def test_load_rejects_future_schema(tmp_path, small_bundle):
    out = saved_dir(tmp_path, small_bundle)
    spec_path = out / "spec.json"
    meta = json.loads(spec_path.read_text())
    meta["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
    spec_path.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match="unsupported bundle schema"):
        load_bundle(out)


def test_load_rejects_unknown_spec_field(tmp_path, small_bundle):
    out = saved_dir(tmp_path, small_bundle)
    spec_path = out / "spec.json"
    meta = json.loads(spec_path.read_text())
    meta["mystery_knob"] = 3
    spec_path.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match="bad spec.json"):
        load_bundle(out)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_generated_bundles_are_internally_consistent(data):
    connectivity = data.draw(st.integers(1, 3))
    n_projects = data.draw(st.integers(connectivity, 6))
    n_people = data.draw(st.integers(1, 6))
    spec = CorpusSpec(
        seed=data.draw(st.integers(0, 50)),
        connectivity=connectivity,
        n_people=n_people,
        n_projects=n_projects,
        n_filler=data.draw(st.integers(0, 2)),
        chunk_tokens=80,
        questions_per_kind=data.draw(st.integers(1, n_people)),
    )
    bundle = generate_corpus(spec)
    assert len(bundle.chunks) == spec.n_chunks
    assert all(len(c.text.split()) == 80 for c in bundle.chunks)
    corpus_words = bundle.corpus_text().split()
    assert len(bundle.questions) == 2 * spec.questions_per_kind
    for q in bundle.questions:
        assert q.answers
        assert {corpus_words[p] for p in q.gold_positions} == set(q.answers)
        expected_ev = 1 if q.kind == "direct" else 1 + connectivity
        assert len(q.evidence) == expected_ev
