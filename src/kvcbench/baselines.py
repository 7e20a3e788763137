"""Task-agnostic KV-cache compression baselines.

Three reference policies that never see guidance text:

* StreamingLLM keeps the first `sink` positions plus a recency tail.
* SnapKV (query-agnostic variant) scores earlier context by the attention
  of the last `window` context tokens, smooths scores with a max pool, and
  keeps the window itself unconditionally.
* Expected Attention fits a per-layer, per-head Gaussian (mean and diagonal
  covariance) to recent rotated query vectors and scores each key by the
  closed-form log of its expected attention weight,
  mu.kappa/sqrt(d_k) + 0.5 * kappa^T Sigma kappa / d_k.

Each checks its arguments and hands a keep rule to the segment walk of
the task-aware compressor, run as one segment with no guidance rows, so
all three return the same CompressedCache shape and accept the same shared
context prefill; the guidance fingerprint is all zeros since none is used.
"""

from __future__ import annotations

import numpy as np

from .compress import CompressedCache, CompressionBudget, ContextPrefill, _context_ids, _walk, select_top
from .errors import UsageError
from .modelcore import Model

ZERO_GUIDANCE_FP = b"\x00" * 32

DEFAULT_SINK = 4
DEFAULT_WINDOW = 64
DEFAULT_POOL_WIDTH = 7
DEFAULT_SAMPLE_SIZE = 256


def compress_streaming_llm(
    model: Model, context, k: int, sink: int = DEFAULT_SINK, prefix: ContextPrefill | None = None,
) -> CompressedCache:
    """Keep the first `sink` positions and the last k - sink positions."""
    budget = CompressionBudget(k)
    if sink < 0:
        raise UsageError("sink count must be >= 0")

    def keep(capture, cache, n, r):
        n_sink = min(sink, r)
        rows = np.concatenate(
            [
                np.arange(n_sink, dtype=np.int64),
                np.arange(n - (r - n_sink), n, dtype=np.int64),
            ]
        )
        return [rows for _ in range(model.config.n_layers)]

    return _walk(model, _context_ids(context), budget, 1, keep, ZERO_GUIDANCE_FP, "streaming", prefix=prefix)


def _max_pool(x: np.ndarray, width: int) -> np.ndarray:
    if width <= 1 or x.size == 0:
        return x
    half = width // 2
    pad = np.full(half, -np.inf, dtype=x.dtype)
    padded = np.concatenate([pad, x, pad])
    return np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1).max(axis=1)


def compress_snapkv_agnostic(
    model: Model,
    context,
    k: int,
    window: int = DEFAULT_WINDOW,
    pool_width: int = DEFAULT_POOL_WIDTH,
    prefix: ContextPrefill | None = None,
) -> CompressedCache:
    """Keep the last `window` context tokens plus the top k - window earlier
    tokens by window attention, max-pooled so neighbors of hot tokens
    survive together."""
    budget = CompressionBudget(k)
    if window < 1:
        raise UsageError("window must be >= 1")
    if pool_width < 1:
        raise UsageError("pool_width must be >= 1")
    ctx = _context_ids(context)
    w_eff = min(window, k, ctx.shape[0])

    def keep(capture, cache, n, r):
        n_cand = n - w_eff
        window_rows = np.arange(n_cand, n, dtype=np.int64)
        keeps = []
        for layer in capture.layers:
            pooled = _max_pool(layer[:n_cand], pool_width)
            chosen = select_top(pooled, r - w_eff)
            keeps.append(np.concatenate([chosen.astype(np.int64), window_rows]))
        return keeps

    return _walk(model, ctx, budget, 1, keep, ZERO_GUIDANCE_FP, "snapkv", observe=w_eff, prefix=prefix)


def compress_expected_attention(
    model: Model,
    context,
    k: int,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    prefix: ContextPrefill | None = None,
) -> CompressedCache:
    """Score every key by its expected attention logit under a Gaussian fit
    to the last `sample_size` rotated query vectors. With fewer than two
    samples the covariance term drops and ranking is mean-query only."""
    budget = CompressionBudget(k)
    if sample_size < 1:
        raise UsageError("sample_size must be >= 1")
    ctx = _context_ids(context)
    m = min(sample_size, ctx.shape[0])
    cfg = model.config
    H, dk = cfg.n_heads, cfg.head_dim

    def keep(capture, cache, n, r):
        keeps = []
        for layer in range(cfg.n_layers):
            queries = capture.queries[layer].astype(np.float64)
            k_rot = cache.rotated_keys(layer, cfg).astype(np.float64)
            scores = np.zeros(n)
            for h in range(H):
                cols = slice(h * dk, (h + 1) * dk)
                q_h = queries[:, cols]
                mu = q_h.mean(axis=0)
                var = q_h.var(axis=0)
                k_h = k_rot[:, cols]
                scores += k_h @ mu / np.sqrt(dk) + 0.5 * np.square(k_h) @ var / dk
            keeps.append(select_top(scores / H, r))
        return keeps

    return _walk(model, ctx, budget, 1, keep, ZERO_GUIDANCE_FP, "expattn", sample=m, prefix=prefix)
