"""TF-IDF retrieval: hand-computed idf oracle, dense reference ranking,
tie breaking, budget arithmetic, and the KVCI on-disk format."""

import dataclasses
import logging
import math
import struct

import numpy as np
import pytest

from kvcbench.corpusgen import ChunkDoc, CorpusBundle, CorpusSpec
from kvcbench.errors import FormatError, MissingArtifactError, UsageError
from kvcbench.retrieval import (
    ChunkIndex,
    assemble_context,
    evidence_recall,
    index_chunks,
    load_index,
    retrieve,
    save_index,
    vocab_hash,
)
from kvcbench.vocab import UNK, build_vocabulary, tokenize

from conftest import SMALL_SPEC, oracle_ranking


def hand_bundle(texts):
    # spec geometry is irrelevant to indexing; only vocab and chunk text matter
    spec = CorpusSpec(seed=0, connectivity=1, n_people=1, n_projects=1,
                      n_filler=0, chunk_tokens=80, questions_per_kind=1)
    chunks = [ChunkDoc(chunk_id=i, kind="filler", text=t) for i, t in enumerate(texts)]
    return CorpusBundle(spec=spec, chunks=chunks, questions=[],
                        vocab=build_vocabulary(texts))


def test_idf_and_weights_hand_oracle():
    bundle = hand_bundle(["apple banana", "apple cherry", "banana banana durian"])
    index = index_chunks(bundle)
    v = bundle.vocab
    ln2, ln25 = math.log(2.0), math.log(2.5)
    assert index.idf[v.id_of("apple")] == pytest.approx(ln2, abs=1e-6)
    assert index.idf[v.id_of("banana")] == pytest.approx(ln2, abs=1e-6)
    assert index.idf[v.id_of("cherry")] == pytest.approx(ln25, abs=1e-6)
    assert index.idf[v.id_of("durian")] == pytest.approx(ln25, abs=1e-6)

    # row 2: tf(banana)=2, tf(durian)=1, L2 normalized
    lo, hi = int(index.indptr[2]), int(index.indptr[3])
    ids = index.indices[lo:hi].tolist()
    assert ids == sorted([v.id_of("banana"), v.id_of("durian")])
    raw = np.array([2 * ln2, ln25])
    want = raw / np.linalg.norm(raw)
    got = {tid: w for tid, w in zip(ids, index.data[lo:hi])}
    assert got[v.id_of("banana")] == pytest.approx(want[0], abs=1e-6)
    assert got[v.id_of("durian")] == pytest.approx(want[1], abs=1e-6)
    assert np.linalg.norm(index.data[lo:hi]) == pytest.approx(1.0, abs=1e-6)


def test_all_rows_unit_norm(small_bundle):
    index = index_chunks(small_bundle)
    for i in range(index.n_chunks):
        lo, hi = int(index.indptr[i]), int(index.indptr[i + 1])
        assert np.linalg.norm(index.data[lo:hi]) == pytest.approx(1.0, abs=1e-5)


def dense_scores(index, query_ids):
    w = np.zeros(index.vocab_size, dtype=np.float64)
    for tid in query_ids:
        w[tid] += 1.0
    w *= index.idf.astype(np.float64)
    n = np.linalg.norm(w)
    if n > 0:
        w /= n
    dense = np.zeros((index.n_chunks, index.vocab_size), dtype=np.float64)
    for i in range(index.n_chunks):
        lo, hi = int(index.indptr[i]), int(index.indptr[i + 1])
        dense[i, index.indices[lo:hi]] = index.data[lo:hi].astype(np.float64)
    return dense @ w


def test_ranking_matches_dense_reference(small_bundle):
    index = index_chunks(small_bundle)
    rng = np.random.default_rng(11)
    words = small_bundle.vocab.id_to_token[4:]
    for _ in range(20):
        text = " ".join(rng.choice(words, size=6))
        query = tokenize(text, small_bundle.vocab)
        result = retrieve(index, query, top_b=index.n_chunks)
        ref = dense_scores(index, query.ids)
        want = np.argsort(-ref, kind="stable").tolist()
        assert list(result.ranking) == want
        assert np.allclose(result.scores, ref[list(result.ranking)], atol=1e-9)


def test_ties_break_to_lower_chunk_id():
    bundle = hand_bundle(["apple banana", "apple banana", "cherry durian"])
    index = index_chunks(bundle)
    result = retrieve(index, tokenize("apple", bundle.vocab), top_b=3)
    assert result.ranking[:2] == (0, 1)
    assert result.scores[0] == pytest.approx(result.scores[1])
    assert not result.no_known_terms


def test_query_accepts_plain_lists(small_bundle):
    index = index_chunks(small_bundle)
    seq = tokenize(small_bundle.questions[0].text, small_bundle.vocab)
    a = retrieve(index, seq, top_b=5)
    b = retrieve(index, list(seq.ids), top_b=5)
    assert a.ranking == b.ranking


def test_unknown_terms_flagged_and_warned(caplog):
    bundle = hand_bundle(["apple banana", "cherry durian"])
    index = index_chunks(bundle)
    with caplog.at_level(logging.WARNING, logger="kvcbench.retrieval"):
        result = retrieve(index, [UNK], top_b=2)
    assert result.no_known_terms
    assert result.ranking == (0, 1)
    assert all(s == 0.0 for s in result.scores)
    assert "no terms" in caplog.text


def test_retrieve_validation(small_bundle):
    index = index_chunks(small_bundle)
    with pytest.raises(UsageError, match="top_b"):
        retrieve(index, [4], top_b=0)
    with pytest.raises(UsageError, match="outside index vocabulary"):
        retrieve(index, [index.vocab_size], top_b=1)


def test_assemble_context_whole_chunks_in_rank_order(small_bundle):
    index = index_chunks(small_bundle)
    q = small_bundle.questions[0]
    result = retrieve(index, tokenize(q.text, small_bundle.vocab), top_b=20)
    width = small_bundle.spec.chunk_tokens
    ctx = assemble_context(small_bundle, result, budget_tokens=3 * width + 7)
    assert len(ctx.ids) == 3 * width
    want = " ".join(small_bundle.chunks[c].text for c in result.ranking[:3])
    assert list(ctx.ids) == list(tokenize(want, small_bundle.vocab).ids)
    with pytest.raises(UsageError, match="below chunk width"):
        assemble_context(small_bundle, result, budget_tokens=width - 1)


def test_evidence_recall_arithmetic():
    from kvcbench.retrieval import RetrievalResult

    result = RetrievalResult(ranking=(3, 1, 7, 2), scores=(4.0, 3.0, 2.0, 1.0),
                             no_known_terms=False)
    # budget fits 2 chunks: prefix {3, 1}
    assert evidence_recall(result, budget_tokens=512, chunk_tokens=256,
                           gold_evidence=[1, 2]) == 0.5
    assert evidence_recall(result, budget_tokens=1024, chunk_tokens=256,
                           gold_evidence=[1, 2]) == 1.0
    assert evidence_recall(result, budget_tokens=255, chunk_tokens=256,
                           gold_evidence=[1]) == 0.0
    with pytest.raises(UsageError, match="gold evidence is empty"):
        evidence_recall(result, 512, 256, [])


def test_oracle_ranking_puts_gold_first(small_bundle):
    q = next(q for q in small_bundle.questions if q.kind == "join")
    result = oracle_ranking(small_bundle, q.evidence)
    assert result.ranking[: len(q.evidence)] == q.evidence
    assert len(result.ranking) == len(small_bundle.chunks)
    assert sorted(result.ranking) == list(range(len(small_bundle.chunks)))
    assert evidence_recall(result, len(q.evidence) * 80, 80, q.evidence) == 1.0


@pytest.fixture()
def saved_index(tmp_path, small_bundle):
    index = index_chunks(small_bundle)
    path = tmp_path / "chunks.kvci"
    save_index(index, path)
    return index, path


def test_index_round_trip_ranks_identically(saved_index, small_bundle):
    index, path = saved_index
    loaded = load_index(path)
    assert loaded.vocab_sha == index.vocab_sha == vocab_hash(small_bundle.vocab)
    assert np.array_equal(loaded.idf, index.idf)
    assert np.array_equal(loaded.indptr, index.indptr)
    assert np.array_equal(loaded.indices, index.indices)
    assert np.array_equal(loaded.data, index.data)

    rng = np.random.default_rng(5)
    words = small_bundle.vocab.id_to_token[4:]
    for _ in range(20):
        query = tokenize(" ".join(rng.choice(words, size=5)), small_bundle.vocab)
        a = retrieve(index, query, top_b=10)
        b = retrieve(loaded, query, top_b=10)
        assert a.ranking == b.ranking
        assert a.scores == b.scores


def test_index_missing_file(tmp_path):
    with pytest.raises(MissingArtifactError, match="no index file"):
        load_index(tmp_path / "gone.kvci")


def test_index_bad_magic(saved_index, tmp_path):
    _, path = saved_index
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"XXXX"
    bad = tmp_path / "bad.kvci"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="not a KVCI index file"):
        load_index(bad)


def test_index_bad_version(saved_index, tmp_path):
    _, path = saved_index
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 7)
    bad = tmp_path / "v.kvci"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="unsupported index version 7"):
        load_index(bad)


def test_index_truncation_and_trailing(saved_index, tmp_path):
    _, path = saved_index
    raw = path.read_bytes()
    short = tmp_path / "short.kvci"
    short.write_bytes(raw[:-3])
    with pytest.raises(FormatError, match="unexpected end of container"):
        load_index(short)
    long = tmp_path / "long.kvci"
    long.write_bytes(raw + b"\x01")
    with pytest.raises(FormatError, match="trailing bytes"):
        load_index(long)


def test_index_indptr_nnz_mismatch(saved_index, tmp_path):
    index, path = saved_index
    raw = bytearray(path.read_bytes())
    # last indptr entry lives after header(48) + idf + nnz + n_chunks entries
    off = 48 + 4 * index.vocab_size + 8 + 8 * index.n_chunks
    (last,) = struct.unpack_from("<Q", raw, off)
    assert last == int(index.indptr[-1])
    struct.pack_into("<Q", raw, off, last + 1)
    bad = tmp_path / "nnz.kvci"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="CSR indptr does not match nnz"):
        load_index(bad)


@pytest.mark.parametrize("field, at, value, match", [
    ("indptr", 0, 1, "does not start at 0"),
    ("indptr", 1, 10**6, "never decrease"),
    ("indices", 0, None, "outside the vocabulary"),
])
def test_index_rejects_malformed_csr(saved_index, tmp_path, field, at, value, match):
    index, _ = saved_index
    array = getattr(index, field).copy()
    array[at] = index.vocab_size if value is None else value
    bad = tmp_path / "bad.kvci"
    save_index(dataclasses.replace(index, **{field: array}), bad)
    with pytest.raises(FormatError, match=match):
        load_index(bad)
