"""Task-agnostic KV-cache compression baselines.

Three reference policies that never see guidance text, each at the one
setting every command, eval grid and TTFT run uses:

* StreamingLLM keeps the first ``SINK`` positions plus a recency tail.
* SnapKV (query-agnostic variant) scores earlier context by the attention
  of the last ``WINDOW`` context tokens, smooths scores with a max pool of
  width ``POOL_WIDTH``, and keeps the window itself unconditionally.
* Expected Attention fits a per-layer, per-head Gaussian (mean and diagonal
  covariance) to the last ``SAMPLE_SIZE`` rotated query vectors and scores
  each key by the closed-form log of its expected attention weight,
  mu.kappa/sqrt(d_k) + 0.5 * kappa^T Sigma kappa / d_k.

Each hands a keep rule to the segment walk of the task-aware compressor,
run as one segment with no guidance rows, so all three return the same
CompressedCache shape, recorded under their method names, and accept the
same shared context prefill; the guidance fingerprint is all zeros since
none is used.
"""

from __future__ import annotations

import numpy as np

from .compress import CompressedCache, CompressionBudget, ContextPrefill, _context_ids, _walk, select_top
from .modelcore import Model

ZERO_GUIDANCE_FP = b"\x00" * 32

SINK = 4
WINDOW = 64
POOL_WIDTH = 7
SAMPLE_SIZE = 256


def compress_streaming_llm(model: Model, context, k: int, prefix: ContextPrefill | None = None) -> CompressedCache:
    """Keep the first ``SINK`` positions and the last k - SINK positions."""
    budget = CompressionBudget(k)

    def keep(capture, cache, n, r):
        n_sink = min(SINK, r)
        rows = np.concatenate(
            [
                np.arange(n_sink, dtype=np.int64),
                np.arange(n - (r - n_sink), n, dtype=np.int64),
            ]
        )
        return [rows for _ in range(model.config.n_layers)]

    return _walk(model, _context_ids(context), budget, 1, keep, ZERO_GUIDANCE_FP, "streaming", prefix=prefix)


def _max_pool(x: np.ndarray) -> np.ndarray:
    if x.size == 0:
        return x
    pad = np.full(POOL_WIDTH // 2, -np.inf, dtype=x.dtype)  # POOL_WIDTH is odd
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([pad, x, pad]), POOL_WIDTH).max(axis=1)


def compress_snapkv_agnostic(model: Model, context, k: int, prefix: ContextPrefill | None = None) -> CompressedCache:
    """Keep the last ``WINDOW`` context tokens plus the top k - WINDOW
    earlier tokens by window attention, max-pooled so neighbors of hot
    tokens survive together."""
    budget = CompressionBudget(k)
    ctx = _context_ids(context)
    w_eff = min(WINDOW, k, ctx.shape[0])

    def keep(capture, cache, n, r):
        n_cand = n - w_eff
        window_rows = np.arange(n_cand, n, dtype=np.int64)
        keeps = []
        for layer in capture.layers:
            pooled = _max_pool(layer[:n_cand])
            chosen = select_top(pooled, r - w_eff)
            keeps.append(np.concatenate([chosen.astype(np.int64), window_rows]))
        return keeps

    return _walk(model, ctx, budget, 1, keep, ZERO_GUIDANCE_FP, "snapkv", observe=w_eff, prefix=prefix)


def compress_expected_attention(model: Model, context, k: int, prefix: ContextPrefill | None = None) -> CompressedCache:
    """Score every key by its expected attention logit under a Gaussian fit
    to the last ``SAMPLE_SIZE`` rotated query vectors, or all of them in a
    shorter context. With fewer than two samples the covariance term drops
    and ranking is mean-query only."""
    budget = CompressionBudget(k)
    ctx = _context_ids(context)
    m = min(SAMPLE_SIZE, ctx.shape[0])
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
