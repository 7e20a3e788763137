"""Task-aware KV-cache compression driven by guidance-token attention.

The compressor prefills the context together with a short guidance prompt
(task description, optionally few-shot examples and the live query),
captures how the guidance rows attend over context columns, and keeps the
top-scoring rows per layer. Long contexts are processed in ``s`` segments:
each iteration prefills [compressed survivors, next segment, guidance],
re-scores everything visible, and keeps a growing budget, so earlier
survivors compete with fresh tokens every round. With ``s = 1`` the
iterative path degenerates to the one-shot oracle. With ``k >= n`` nothing
is ever dropped and the survivor cache is bit-identical to a plain prefill
of the context.

Survivors are renumbered to contiguous positions after every selection;
because the cache stores unrotated keys, renumbering is exact rather than
approximate. The task-agnostic baselines run the same segment walk with
their own keep rules; only ``compress_oracle`` stays a separate one-shot
reference.

The first segment may start from a ``ContextPrefill``, one plain prefill of
the whole context shared by many compressions (the eval grid keeps one per
model and corpus). Attention is causal, so the walk takes a head fork of
the rows its first segment neither observes nor samples, cut to whole
attention tiles, and prefills only the rest: the guidance rows for the
task-aware compressor, the window for SnapKV, the query sample for
Expected Attention, nothing for StreamingLLM beyond the tile remainder.
Every row then meets the same columns in the same tile as without the
prefix, so the result is bitwise the same.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import StaleCacheError, UsageError
from .modelcore import ATTENTION_BLOCK, GenerationParams, KvCache, Model, generate_greedy, prefill
from .vocab import TokenSequence, Vocabulary, fingerprint_ids, tokenize

GUIDANCE_KINDS = ("zs", "fs", "fsq")
BUDGET_SCHEDULES = ("proportional", "flat")

# incremented by every compression entry point; the eval harness asserts
# reuse by checking this does not move on warm runs
COMPRESSION_CALLS = 0


def _count_call() -> None:
    global COMPRESSION_CALLS
    COMPRESSION_CALLS += 1


@dataclass(frozen=True)
class GuidancePrompt:
    """Guidance in one of three strengths: zero-shot task description,
    few-shot with worked examples, or few-shot plus the live query."""

    kind: str
    description: str
    examples: tuple[tuple[str, str], ...] = ()
    query: str | None = None

    def __post_init__(self):
        if self.kind not in GUIDANCE_KINDS:
            raise UsageError(f"guidance kind must be one of {GUIDANCE_KINDS}, got {self.kind!r}")
        if not self.description.strip():
            raise UsageError("guidance description must be nonempty")
        if self.kind == "zs" and self.examples:
            raise UsageError("zero-shot guidance takes no examples")
        if self.kind in ("fs", "fsq") and not self.examples:
            raise UsageError(f"{self.kind} guidance requires at least one example")
        if self.kind == "fsq" and not (self.query and self.query.strip()):
            raise UsageError("fsq guidance requires a query")
        if self.kind != "fsq" and self.query is not None:
            raise UsageError(f"{self.kind} guidance takes no query")

    def token_stream(self, vocab: Vocabulary) -> TokenSequence:
        """Flatten to guidance tokens: description, then per example the cue
        words ``example question ... answer ...``, then ``question <query>``."""
        parts = [self.description]
        for q, a in self.examples:
            parts.append(f"example question {q} answer {a}")
        if self.query is not None:
            parts.append(f"question {self.query}")
        return tokenize(" ".join(parts), vocab)


def guidance_fingerprint(guidance: GuidancePrompt, vocab: Vocabulary) -> bytes:
    h = hashlib.sha256()
    h.update(guidance.kind.encode())
    h.update(fingerprint_ids(guidance.token_stream(vocab).ids))
    return h.digest()


@dataclass(frozen=True)
class CompressionBudget:
    """Per-layer survivor count ``k`` and how it ramps across segments.

    ``proportional`` grows the kept count with the fraction of context seen,
    ceil(k * seen / total), reaching exactly k on the last segment. ``flat``
    holds every intermediate cache at k.
    """

    k: int
    schedule: str = "proportional"

    def __post_init__(self):
        if self.k < 1:
            raise UsageError("budget k must be >= 1")
        if self.schedule not in BUDGET_SCHEDULES:
            raise UsageError(f"unknown schedule {self.schedule!r}")

    def target_rows(self, tokens_seen: int, total_tokens: int) -> int:
        if self.schedule == "flat":
            return self.k
        return (self.k * tokens_seen + total_tokens - 1) // total_tokens


def plan_chunks(n_tokens: int, n_segments: int) -> list[tuple[int, int]]:
    """Split [0, n_tokens) into up to n_segments contiguous spans of equal
    ceiling width; the last span absorbs the remainder (possibly shorter)."""
    if n_tokens < 1:
        raise UsageError("cannot plan chunks over an empty context")
    if n_segments < 1:
        raise UsageError("need at least one segment")
    width = -(-n_tokens // n_segments)
    spans = []
    for start in range(0, n_tokens, width):
        spans.append((start, min(start + width, n_tokens)))
    return spans


def score_tokens(capture, n_candidates: int) -> list[np.ndarray]:
    """Per-layer candidate scores: mean over heads and observer rows of the
    captured attention mass on the first n_candidates columns."""
    if n_candidates < 1 or n_candidates > capture.total_tokens:
        raise UsageError(f"candidate count {n_candidates} outside capture width")
    return [layer[:, :, :n_candidates].mean(axis=(0, 1)) for layer in capture.layers]


def select_top(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best-scoring candidates, ascending; ties keep the
    lower index so reruns are bit-stable."""
    if k < 0 or k > scores.shape[0]:
        raise UsageError(f"cannot keep {k} of {scores.shape[0]} candidates")
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k])


@dataclass(frozen=True)
class CacheMeta:
    model_fingerprint: bytes
    guidance_fingerprint: bytes
    corpus_fingerprint: bytes
    n_context: int
    k: int
    s: int
    schedule: str


@dataclass
class CompressedCache:
    """Survivor K/V rows per layer plus the original context position of
    every survivor. Keys are unrotated; assigned positions are the row
    indices 0..r-1."""

    keys: list[np.ndarray]
    values: list[np.ndarray]
    kept_positions: list[np.ndarray]
    meta: CacheMeta

    @property
    def n_kept(self) -> int:
        return self.keys[0].shape[0]

    def to_kv_cache(self) -> KvCache:
        return KvCache(self.keys, self.values)


def _context_ids(context) -> np.ndarray:
    ids = np.asarray(getattr(context, "ids", context), dtype=np.int64)
    if ids.size == 0:
        raise UsageError("context must be nonempty")
    return ids


def _guidance_ids(guidance: GuidancePrompt, vocab: Vocabulary) -> np.ndarray:
    gids = np.asarray(guidance.token_stream(vocab).ids, dtype=np.int64)
    if gids.size == 0:
        raise UsageError("guidance token stream is empty")
    return gids


_NO_GUIDANCE = np.empty(0, np.int64)


@dataclass(frozen=True)
class ContextPrefill:
    """A plain prefill of ``ids`` and the fingerprints of the model and ids
    it was built from; compressors fork it, never grow it."""

    cache: KvCache
    model_fingerprint: bytes
    ids_fingerprint: bytes


def prefill_context(model: Model, context) -> ContextPrefill:
    """Prefill a context once for every compression that shares it."""
    ids = _context_ids(context)
    cache = KvCache.empty(model.config)
    prefill(model, cache, ids)
    return ContextPrefill(cache, model.fingerprint, fingerprint_ids(ids))


def _guidance_top(capture, cache: KvCache, n_cand: int, r: int) -> list[np.ndarray]:
    """Keep rule of the task-aware compressor: per layer, the r candidates
    the guidance rows attend to most."""
    return [select_top(layer, r) for layer in score_tokens(capture, n_cand)]


def _walk(model, ctx, budget, s, keep_rows, guidance_fp, schedule, gids=_NO_GUIDANCE, observe=0, sample=0,
          prefix: ContextPrefill | None = None):
    """The segment walk every compressor except the oracle runs.

    Per segment it prefills [survivors, segment, gids], capturing the
    attention of the last ``observe`` rows and the rotated queries of the
    last ``sample`` rows, asks ``keep_rows(capture, cache, n_cand, r)`` for
    ``r`` of the ``n_cand`` survivor and segment rows per layer, then
    gathers them and renumbers them to positions 0..r-1. Rows of ``gids``
    observe but are never candidates. With a ``prefix`` of ``ctx`` the first
    segment forks the prefix rows that no observed or sampled row needs and
    prefills only the rest; a prefix of another model or other ids raises
    StaleCacheError.
    """
    _count_call()
    n = int(ctx.shape[0])
    n_layers = model.config.n_layers
    cache = KvCache.empty(model.config)
    if prefix is not None:
        if prefix.model_fingerprint != model.fingerprint:
            raise StaleCacheError("context prefill was built by a different model")
        if prefix.ids_fingerprint != fingerprint_ids(ctx[: prefix.cache.length]):
            raise StaleCacheError("context prefill was built over other ids")
    kept = [np.empty(0, np.int64) for _ in range(n_layers)]
    for start, end in plan_chunks(n, s):
        n_cand = cache.length + end - start
        segment = np.arange(start, end, dtype=np.int64)
        if prefix is not None and start == 0:
            # fork what no observed or sampled row needs, in whole attention
            # tiles so every row meets the columns it meets without a prefix
            start = min(prefix.cache.length, end - max(0, max(observe, sample) - gids.shape[0]))
            start -= start % ATTENTION_BLOCK
            cache = prefix.cache.fork(start)
        seq = np.concatenate([ctx[start:end], gids])
        S = seq.shape[0]
        capture = prefill(model, cache, seq, observer_span=(S - observe, S), query_span=(S - sample, S))
        r = min(budget.target_rows(end, n), n_cand)
        keeps = keep_rows(capture, cache, n_cand, r)
        kept = [np.concatenate([kept[l], segment])[keeps[l]] for l in range(n_layers)]
        keys = [cache.keys[l][keeps[l]] for l in range(n_layers)]
        values = [cache.values[l][keeps[l]] for l in range(n_layers)]
        cache = KvCache(keys, values)

    meta = CacheMeta(
        model_fingerprint=model.fingerprint,
        guidance_fingerprint=guidance_fp,
        corpus_fingerprint=fingerprint_ids(ctx),
        n_context=n,
        k=budget.k,
        s=s,
        schedule=schedule,
    )
    return CompressedCache(keys, values, kept, meta)


def compress_iterative(
    model: Model,
    context,
    guidance: GuidancePrompt,
    vocab: Vocabulary,
    budget: CompressionBudget,
    s: int = 2,
    prefix: ContextPrefill | None = None,
) -> CompressedCache:
    """Compress a context to at most ``budget.k`` rows per layer in ``s``
    segment passes. Guidance rows observe but are never kept. A ``prefix``
    of the context leaves only the guidance rows to prefill in the first
    segment."""
    ctx = _context_ids(context)
    gids = _guidance_ids(guidance, vocab)
    return _walk(
        model, ctx, budget, s, _guidance_top, guidance_fingerprint(guidance, vocab),
        budget.schedule, gids=gids, observe=gids.shape[0], prefix=prefix,
    )


def compress_oracle(
    model: Model,
    context,
    guidance: GuidancePrompt,
    vocab: Vocabulary,
    k: int,
) -> CompressedCache:
    """One-shot reference: prefill the whole context with guidance appended
    and keep the global top-k per layer. Equals compress_iterative(s=1)."""
    _count_call()
    if k < 1:
        raise UsageError("budget k must be >= 1")
    ctx = _context_ids(context)
    gids = _guidance_ids(guidance, vocab)
    n = int(ctx.shape[0])

    cache = KvCache.empty(model.config)
    seq = np.concatenate([ctx, gids])
    capture = prefill(model, cache, seq, observer_span=(n, n + gids.shape[0]))
    scores = score_tokens(capture, n)
    r = min(k, n)
    keys, values, kept = [], [], []
    for layer in range(model.config.n_layers):
        keep = select_top(scores[layer], r)
        keys.append(cache.keys[layer][keep])
        values.append(cache.values[layer][keep])
        kept.append(keep.astype(np.int64))

    meta = CacheMeta(
        model_fingerprint=model.fingerprint,
        guidance_fingerprint=guidance_fingerprint(guidance, vocab),
        corpus_fingerprint=fingerprint_ids(ctx),
        n_context=n,
        k=k,
        s=1,
        schedule="oracle",
    )
    return CompressedCache(keys, values, kept, meta)


def answer_with_cache(
    model: Model,
    compressed: CompressedCache,
    prompt,
    params: GenerationParams = GenerationParams(),
) -> TokenSequence:
    """Greedy-decode an answer on a fork of the compressed cache. The stored
    cache is never mutated, so repeated questions see identical state."""
    if model.fingerprint != compressed.meta.model_fingerprint:
        raise StaleCacheError("compressed cache was built by a different model")
    cache = compressed.to_kv_cache()
    return generate_greedy(model, cache, prompt, params)


def retention(compressed: CompressedCache, positions) -> float:
    """Fraction of the given original context positions that survived,
    averaged over layers."""
    want = np.unique(np.asarray(positions, dtype=np.int64))
    if want.size == 0:
        raise UsageError("no positions to check retention for")
    fractions = [float(np.isin(want, kp).mean()) for kp in compressed.kept_positions]
    return float(np.mean(fractions))
