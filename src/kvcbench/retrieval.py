"""TF-IDF chunk retrieval over a corpus bundle.

The retriever is deliberately lexical: cosine similarity between L2
normalized tf-idf vectors of 256-token chunks and the query, with ties
broken toward the lower chunk id.  Scoring is exact-match at the word
level, which keeps the retrieval floor fully explainable: a chunk scores
only through tokens it literally shares with the query.

The index lives in memory only: every command that ranks chunks builds
it from the bundle with ``index_chunks``. Its vectors are CSR-style
float32; scores are accumulated in float64 from those float32 weights.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpusgen import CorpusBundle
from .errors import UsageError
from .vocab import TokenSequence, tokenize

logger = logging.getLogger(__name__)


@dataclass
class ChunkIndex:
    """CSR tf-idf matrix, one L2-normalized row per chunk."""

    n_chunks: int
    vocab_size: int
    idf: np.ndarray      # (vocab_size,) f32
    indptr: np.ndarray   # (n_chunks + 1,) u64
    indices: np.ndarray  # (nnz,) u32 token ids
    data: np.ndarray     # (nnz,) f32 normalized tf-idf weights


@dataclass(frozen=True)
class RetrievalResult:
    ranking: tuple[int, ...]
    scores: tuple[float, ...]
    no_known_terms: bool


def index_chunks(bundle: CorpusBundle) -> ChunkIndex:
    """idf = ln(1 + N / (1 + df)), tf raw counts, rows L2-normalized."""
    vocab = bundle.vocab
    n_chunks = len(bundle.chunks)
    vocab_size = len(vocab.id_to_token)

    df = np.zeros(vocab_size, dtype=np.int64)
    chunk_counts: list[dict[int, int]] = []
    for doc in bundle.chunks:
        seq = tokenize(doc.text, vocab)
        counts: dict[int, int] = {}
        for tid in seq.ids:
            counts[tid] = counts.get(tid, 0) + 1
        chunk_counts.append(counts)
        df[list(counts)] += 1

    idf = np.log(1.0 + n_chunks / (1.0 + df.astype(np.float64)))

    indptr = np.zeros(n_chunks + 1, dtype=np.uint64)
    indices: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for i, counts in enumerate(chunk_counts):
        ids = np.array(sorted(counts), dtype=np.uint32)
        tf = np.array([counts[t] for t in ids], dtype=np.float64)
        row = tf * idf[ids]
        norm = np.linalg.norm(row)
        if norm > 0:
            row = row / norm
        indices.append(ids)
        data.append(row)
        indptr[i + 1] = indptr[i] + len(ids)

    return ChunkIndex(
        n_chunks=n_chunks,
        vocab_size=vocab_size,
        idf=idf.astype(np.float32),
        indptr=indptr,
        indices=np.concatenate(indices) if indices else np.zeros(0, dtype=np.uint32),
        data=np.concatenate(data).astype(np.float32) if data else np.zeros(0, dtype=np.float32),
    )


def _query_weights(index: ChunkIndex, ids) -> np.ndarray:
    w = np.zeros(index.vocab_size, dtype=np.float64)
    for tid in ids:
        if not (0 <= tid < index.vocab_size):
            raise UsageError(f"query token id {tid} outside index vocabulary")
        w[tid] += 1.0
    w *= index.idf.astype(np.float64)
    norm = np.linalg.norm(w)
    if norm > 0:
        w /= norm
    return w


def retrieve(index: ChunkIndex, query: TokenSequence | list[int] | np.ndarray, top_b: int) -> RetrievalResult:
    """Rank chunks by cosine score; ties go to the lower chunk id.

    A query with no terms known to the index scores every chunk zero and
    is flagged: the ranking degenerates to ascending chunk ids.
    """
    if top_b < 1:
        raise UsageError("top_b must be >= 1")
    ids = query.ids if isinstance(query, TokenSequence) else query
    w = _query_weights(index, ids)

    scores = np.zeros(index.n_chunks, dtype=np.float64)
    indptr = index.indptr.astype(np.int64)
    hits = w[index.indices] * index.data.astype(np.float64)
    # reduceat misbehaves on empty rows; guard by skipping zero-width spans
    for i in range(index.n_chunks):
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            scores[i] = hits[lo:hi].sum()

    no_known = bool(np.all(scores == 0.0))
    if no_known:
        logger.warning("query shares no terms with the index; returning chunk-id order")
    order = np.argsort(-scores, kind="stable")[:top_b]
    return RetrievalResult(
        ranking=tuple(int(i) for i in order),
        scores=tuple(float(scores[i]) for i in order),
        no_known_terms=no_known,
    )


def assemble_context(bundle: CorpusBundle, result: RetrievalResult, budget_tokens: int) -> TokenSequence:
    """Concatenate retrieved chunks in rank order within the token budget.

    Takes whole chunks until the next would overflow; a budget below one
    chunk width is a usage error.
    """
    width = bundle.spec.chunk_tokens
    if budget_tokens < width:
        raise UsageError(f"budget {budget_tokens} below chunk width {width}")
    selected: list[int] = []
    used = 0
    for cid in result.ranking:
        if used + width > budget_tokens:
            break
        selected.append(cid)
        used += width
    text = " ".join(bundle.chunks[cid].text for cid in selected)
    return tokenize(text, bundle.vocab)


def evidence_recall(result: RetrievalResult, budget_tokens: int, chunk_tokens: int, gold_evidence) -> float:
    """Fraction of gold chunks inside the retrieved prefix that fits the budget."""
    gold = set(gold_evidence)
    if not gold:
        raise UsageError("gold evidence is empty")
    n_fit = budget_tokens // chunk_tokens
    got = set(result.ranking[:n_fit])
    return len(gold & got) / len(gold)
