"""TF-IDF chunk retrieval over a corpus bundle, and the RAG budget rule.

The retriever is deliberately lexical: cosine similarity between L2
normalized tf-idf vectors of 256-token chunks and the query, with ties
broken toward the lower chunk id.  Scoring is exact-match at the word
level, which keeps the retrieval floor fully explainable: a chunk scores
only through tokens it literally shares with the query.

The index lives in memory only: every command that ranks chunks builds
it from the bundle with ``index_chunks``. It is a CSR matrix: ``indptr``
and ``indices`` in numpy's default integer type, ``idf`` and the row
weights ``data`` in float32; scores are accumulated in float64 from those
float32 weights.

One rule turns a budget into chunks, and this module is its only home: a
budget of B tokens admits the first floor(B / w) ranked chunks of width w
(``admitted``). The context the model reads, evidence recall, the grid's
rag retention and the join-coverage bound all follow from it.
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

    idf: np.ndarray      # (vocab_size,) f32
    indptr: np.ndarray   # (n_chunks + 1,) int
    indices: np.ndarray  # (nnz,) int token ids, ascending within a row
    data: np.ndarray     # (nnz,) f32 normalized tf-idf weights


@dataclass(frozen=True)
class RetrievalResult:
    ranking: tuple[int, ...]
    scores: tuple[float, ...]
    no_known_terms: bool


def index_chunks(bundle: CorpusBundle) -> ChunkIndex:
    """idf = ln(1 + N / (1 + df)), tf raw counts, rows L2-normalized."""
    rows = [np.unique(np.array(tokenize(doc.text, bundle.vocab).ids, dtype=int), return_counts=True)
            for doc in bundle.chunks]
    indptr = np.cumsum([0] + [len(ids) for ids, _ in rows])
    indices = np.concatenate([ids for ids, _ in rows])
    # a row holds each token once, so counting indices counts chunks per token
    df = np.bincount(indices, minlength=len(bundle.vocab))
    idf = np.log(1.0 + len(rows) / (1.0 + df))
    weights = np.concatenate([tf for _, tf in rows]) * idf[indices]
    norms = [np.linalg.norm(weights[lo:hi]) for lo, hi in zip(indptr[:-1], indptr[1:])]
    data = weights / np.repeat(norms, np.diff(indptr))
    return ChunkIndex(idf=idf.astype(np.float32), indptr=indptr, indices=indices, data=data.astype(np.float32))


def _query_weights(index: ChunkIndex, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    outside = (ids < 0) | (ids >= len(index.idf))
    if outside.any():
        raise UsageError(f"query token id {ids[outside][0]} outside index vocabulary")
    w = np.bincount(ids, minlength=len(index.idf)) * index.idf.astype(np.float64)
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
    hits = _query_weights(index, ids)[index.indices] * index.data.astype(np.float64)
    # one sum per row, in the row's order: a score's last bit depends on it
    ptr = index.indptr.tolist()
    scores = np.array([hits[lo:hi].sum() for lo, hi in zip(ptr[:-1], ptr[1:])], dtype=np.float64)

    no_known = bool(np.all(scores == 0.0))
    if no_known:
        logger.warning("query shares no terms with the index; returning chunk-id order")
    order = np.argsort(-scores, kind="stable")[:top_b]
    return RetrievalResult(
        ranking=tuple(int(i) for i in order),
        scores=tuple(float(scores[i]) for i in order),
        no_known_terms=no_known,
    )


def admitted(result: RetrievalResult, budget_tokens: int, chunk_tokens: int) -> tuple[int, ...]:
    """The chunks a budget admits: the first floor(budget / width) of the
    ranking, whole chunks in rank order."""
    return result.ranking[: budget_tokens // chunk_tokens]


def assemble_context(bundle: CorpusBundle, result: RetrievalResult, budget_tokens: int) -> TokenSequence:
    """Concatenate the admitted chunks in rank order; a budget below one
    chunk width is a usage error."""
    width = bundle.spec.chunk_tokens
    if budget_tokens < width:
        raise UsageError(f"budget {budget_tokens} below chunk width {width}")
    text = " ".join(bundle.chunks[cid].text for cid in admitted(result, budget_tokens, width))
    return tokenize(text, bundle.vocab)


def evidence_recall(result: RetrievalResult, budget_tokens: int, chunk_tokens: int, gold_evidence) -> float:
    """Fraction of gold chunks that the budget admits."""
    gold = set(gold_evidence)
    if not gold:
        raise UsageError("gold evidence is empty")
    return len(gold & set(admitted(result, budget_tokens, chunk_tokens))) / len(gold)


def rag_retention(result: RetrievalResult, budget_tokens: int, chunk_tokens: int, gold_positions) -> float:
    """Fraction of gold token positions p whose chunk p // width the budget
    admits; 0.0 for a question without gold positions."""
    if not gold_positions:
        return 0.0
    inside = set(admitted(result, budget_tokens, chunk_tokens))
    return sum(1 for p in gold_positions if p // chunk_tokens in inside) / len(gold_positions)


def coverage_bound(budget_tokens: int, chunk_tokens: int, connectivity: int) -> float:
    """The evidence-coverage ceiling of a join question over 1 + c gold
    chunks, min(1, floor(budget / width) / (1 + c)); a perfect ranking
    attains it exactly."""
    return min(1.0, (budget_tokens // chunk_tokens) / (1 + connectivity))
