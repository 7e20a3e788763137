"""TF-IDF retrieval: hand-computed idf oracle, dense reference ranking,
tie breaking and budget arithmetic."""

import logging
import math

import numpy as np
import pytest

from kvcbench.corpusgen import ChunkDoc, CorpusBundle, CorpusSpec
from kvcbench.errors import UsageError
from kvcbench.retrieval import (
    RetrievalResult,
    admitted,
    assemble_context,
    coverage_bound,
    evidence_recall,
    index_chunks,
    rag_retention,
    retrieve,
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
    assert index.idf[v.token_to_id["apple"]] == pytest.approx(ln2, abs=1e-6)
    assert index.idf[v.token_to_id["banana"]] == pytest.approx(ln2, abs=1e-6)
    assert index.idf[v.token_to_id["cherry"]] == pytest.approx(ln25, abs=1e-6)
    assert index.idf[v.token_to_id["durian"]] == pytest.approx(ln25, abs=1e-6)

    # row 2: tf(banana)=2, tf(durian)=1, L2 normalized
    lo, hi = int(index.indptr[2]), int(index.indptr[3])
    ids = index.indices[lo:hi].tolist()
    assert ids == sorted([v.token_to_id["banana"], v.token_to_id["durian"]])
    raw = np.array([2 * ln2, ln25])
    want = raw / np.linalg.norm(raw)
    got = {tid: w for tid, w in zip(ids, index.data[lo:hi])}
    assert got[v.token_to_id["banana"]] == pytest.approx(want[0], abs=1e-6)
    assert got[v.token_to_id["durian"]] == pytest.approx(want[1], abs=1e-6)
    assert np.linalg.norm(index.data[lo:hi]) == pytest.approx(1.0, abs=1e-6)


def test_all_rows_unit_norm(small_bundle):
    index = index_chunks(small_bundle)
    for i in range(len(index.indptr) - 1):
        lo, hi = int(index.indptr[i]), int(index.indptr[i + 1])
        assert np.linalg.norm(index.data[lo:hi]) == pytest.approx(1.0, abs=1e-5)


def dense_scores(index, query_ids):
    w = np.zeros(len(index.idf), dtype=np.float64)
    for tid in query_ids:
        w[tid] += 1.0
    w *= index.idf.astype(np.float64)
    n = np.linalg.norm(w)
    if n > 0:
        w /= n
    dense = np.zeros((len(index.indptr) - 1, len(index.idf)), dtype=np.float64)
    for i in range(len(index.indptr) - 1):
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
        result = retrieve(index, query, top_b=len(index.indptr) - 1)
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
        retrieve(index, [len(index.idf)], top_b=1)


def test_assemble_context_whole_chunks_in_rank_order(small_bundle):
    index = index_chunks(small_bundle)
    q = small_bundle.questions[0]
    result = retrieve(index, tokenize(q.text, small_bundle.vocab), top_b=20)
    width = small_bundle.spec.chunk_tokens
    ctx = assemble_context(small_bundle, result, budget_tokens=3 * width + 7)
    assert len(ctx.ids) == 3 * width
    want = " ".join(small_bundle.chunks[c].text for c in result.ranking[:3])
    assert list(ctx.ids) == list(tokenize(want, small_bundle.vocab).ids)
    one = assemble_context(small_bundle, result, budget_tokens=width)
    assert list(one.ids) == list(tokenize(small_bundle.chunks[result.ranking[0]].text, small_bundle.vocab).ids)
    # a budget past the corpus admits every ranked chunk, and no more
    whole = assemble_context(small_bundle, result, budget_tokens=(len(small_bundle.chunks) + 3) * width)
    assert len(whole.ids) == len(result.ranking) * width
    with pytest.raises(UsageError, match="below chunk width"):
        assemble_context(small_bundle, result, budget_tokens=width - 1)


def test_evidence_recall_arithmetic():
    result = RetrievalResult(ranking=(3, 1, 7, 2), scores=(4.0, 3.0, 2.0, 1.0),
                             no_known_terms=False)
    assert admitted(result, budget_tokens=767, chunk_tokens=256) == (3, 1)
    assert admitted(result, budget_tokens=768, chunk_tokens=256) == (3, 1, 7)
    assert admitted(result, budget_tokens=255, chunk_tokens=256) == ()
    assert admitted(result, budget_tokens=4096, chunk_tokens=256) == (3, 1, 7, 2)
    # budget fits 2 chunks: prefix {3, 1}
    assert evidence_recall(result, budget_tokens=512, chunk_tokens=256,
                           gold_evidence=[1, 2]) == 0.5
    assert evidence_recall(result, budget_tokens=1024, chunk_tokens=256,
                           gold_evidence=[1, 2]) == 1.0
    assert evidence_recall(result, budget_tokens=255, chunk_tokens=256,
                           gold_evidence=[1]) == 0.0
    with pytest.raises(UsageError, match="gold evidence is empty"):
        evidence_recall(result, 512, 256, [])


def test_rag_retention_and_coverage_bound_floor_the_budget():
    result = RetrievalResult(ranking=(3, 1, 7, 2), scores=(4.0, 3.0, 2.0, 1.0),
                             no_known_terms=False)
    # 80-token chunks; budget 200 admits chunks 3 and 1 (tokens 240-319, 80-159)
    gold = (85, 250, 600, 170)
    assert rag_retention(result, 200, 80, gold) == 0.5
    assert rag_retention(result, 400, 80, gold) == 1.0
    assert rag_retention(result, 79, 80, gold) == 0.0
    assert rag_retention(result, 400, 80, ()) == 0.0
    # one 256-token chunk fits 400 tokens, of the 1 + 2 a join needs
    assert coverage_bound(400, 256, 2) == 1 / 3
    assert coverage_bound(1024, 256, 2) == 1.0
    assert coverage_bound(255, 256, 1) == 0.0


def test_oracle_ranking_puts_gold_first(small_bundle):
    q = next(q for q in small_bundle.questions if q.kind == "join")
    result = oracle_ranking(small_bundle, q.evidence)
    assert result.ranking[: len(q.evidence)] == q.evidence
    assert len(result.ranking) == len(small_bundle.chunks)
    assert sorted(result.ranking) == list(range(len(small_bundle.chunks)))
    assert evidence_recall(result, len(q.evidence) * 80, 80, q.evidence) == 1.0
