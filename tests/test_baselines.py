"""Task-agnostic baselines at their fixed settings: eviction geometry for
StreamingLLM, window behavior for SnapKV, and a Monte-Carlo oracle for the
expected-attention scoring formula."""

import numpy as np
import pytest
from scipy.stats import spearmanr

import kvcbench.baselines as baselines
import kvcbench.compress as compress_mod
from kvcbench.baselines import (
    POOL_WIDTH,
    SAMPLE_SIZE,
    SINK,
    WINDOW,
    ZERO_GUIDANCE_FP,
    _max_pool,
    compress_expected_attention,
    compress_snapkv_agnostic,
    compress_streaming_llm,
)
from kvcbench.compress import select_top
from kvcbench.errors import UsageError
from kvcbench.modelcore import (
    KvCache,
    ModelConfig,
    init_diagnostic_model,
    init_random_model,
    prefill,
    rotate,
)
from kvcbench.vocab import build_vocabulary

from conftest import random_ids


def make_model(seed=0, n_layers=2, n_heads=2, hidden=32, vocab=64, max_position=1024):
    config = ModelConfig(n_layers=n_layers, n_heads=n_heads, hidden_size=hidden,
                         head_dim=hidden // n_heads, vocab_size=vocab,
                         max_position=max_position)
    return init_random_model(config, seed)


def test_streaming_keeps_sink_plus_tail():
    model = make_model(seed=1)
    rng = np.random.default_rng(4)
    n = WINDOW + 36
    ctx = random_ids(rng, model.config.vocab_size, n)
    compressed = compress_streaming_llm(model, ctx, k=SINK + 6)
    expected = list(range(SINK)) + list(range(n - 6, n))
    for layer in range(model.config.n_layers):
        assert compressed.kept_positions[layer].tolist() == expected
    assert compressed.meta.method == "streaming"
    assert compressed.meta.guidance_fingerprint == ZERO_GUIDANCE_FP


def test_streaming_edge_budgets():
    model = make_model(seed=1)
    ctx = list(range(4, 14))  # 10 tokens
    # budget above the context keeps everything
    assert compress_streaming_llm(model, ctx, k=50).kept_positions[0].tolist() == list(range(10))
    # budget below the sink count degenerates to a pure prefix
    assert compress_streaming_llm(model, ctx, k=SINK - 1).kept_positions[0].tolist() == list(range(SINK - 1))
    with pytest.raises(UsageError):
        compress_streaming_llm(model, ctx, k=0)


def test_streaming_rows_match_plain_prefill():
    model = make_model(seed=2)
    rng = np.random.default_rng(0)
    ctx = random_ids(rng, model.config.vocab_size, 30)
    compressed = compress_streaming_llm(model, ctx, k=8)
    plain = KvCache.empty(model.config)
    prefill(model, plain, ctx)
    for layer in range(model.config.n_layers):
        kept = compressed.kept_positions[layer]
        assert np.array_equal(compressed.keys[layer], rotate(plain.keys[layer][kept], 0, model.config))
        assert np.array_equal(compressed.values[layer], plain.values[layer][kept])


def test_max_pool_hand_case():
    # POOL_WIDTH 7: position i takes the max over [i - 3, i + 3]
    assert POOL_WIDTH == 7
    x = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0])
    assert _max_pool(x).tolist() == [1.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 2.0, 2.0, 2.0]
    assert _max_pool(x[:0]).size == 0


def test_snapkv_window_always_survives():
    model = make_model(seed=3)
    rng = np.random.default_rng(1)
    n, k = 3 * WINDOW, WINDOW + 30
    ctx = random_ids(rng, model.config.vocab_size, n)
    compressed = compress_snapkv_agnostic(model, ctx, k=k)
    for layer in range(model.config.n_layers):
        kept = set(compressed.kept_positions[layer].tolist())
        assert len(kept) == k
        assert set(range(n - WINDOW, n)) <= kept
        assert len(kept - set(range(n - WINDOW, n))) == 30
    assert compressed.meta.method == "snapkv"


def test_snapkv_keeps_hot_early_token():
    # diagnostic model: a window token's strongest column is its own id match
    vocab = build_vocabulary(["a b c d e f g h i j k l m n o p"])
    config = ModelConfig(n_layers=1, n_heads=1, hidden_size=64, head_dim=64,
                         vocab_size=len(vocab), max_position=256)
    model = init_diagnostic_model(config, vocab)
    filler = [5, 6, 7, 8, 9, 10] * 10
    window = [4] + list(range(11, 20)) * 7  # ids 11..19 never occur earlier
    assert len(window) == WINDOW
    # early id 4 matched by a window token survives; unmatched, it does not
    assert 0 in compress_snapkv_agnostic(model, [4] + filler + window, k=WINDOW + 2).kept_positions[0].tolist()
    assert 0 not in compress_snapkv_agnostic(model, [5] + filler + window, k=WINDOW + 2).kept_positions[0].tolist()


def test_snapkv_budget_covering_context_keeps_everything():
    model = make_model(seed=4)
    rng = np.random.default_rng(5)
    ctx = random_ids(rng, model.config.vocab_size, WINDOW + 36)
    compressed = compress_snapkv_agnostic(model, ctx, k=2 * WINDOW)
    assert compressed.kept_positions[0].tolist() == list(range(WINDOW + 36))


def test_expected_attention_matches_closed_form_and_monte_carlo():
    config = ModelConfig(n_layers=1, n_heads=1, hidden_size=16, head_dim=16,
                         vocab_size=32, max_position=512)
    model = init_random_model(config, seed=5)
    rng = np.random.default_rng(2)
    n, m, keep = SAMPLE_SIZE + 64, SAMPLE_SIZE, 48
    ctx = random_ids(rng, config.vocab_size, n)
    compressed = compress_expected_attention(model, ctx, k=keep)

    # closed form recomputed independently from captured queries
    cache = KvCache.empty(config)
    capture = prefill(model, cache, ctx, query_span=(n - m, n))
    queries = capture.queries[0].astype(np.float64)
    k_rot = rotate(cache.keys[0], 0, config).astype(np.float64)
    mu = queries.mean(axis=0)
    var = queries.var(axis=0)
    dk = config.head_dim
    closed = k_rot @ mu / np.sqrt(dk) + 0.5 * np.square(k_rot) @ var / dk
    assert compressed.kept_positions[0].tolist() == select_top(closed, keep).tolist()

    # Monte Carlo: log E[exp(q.k/sqrt(dk))] under the fitted Gaussian
    samples = rng.normal(mu, np.sqrt(var), size=(4000, dk))
    mc = np.log(np.mean(np.exp(samples @ k_rot.T / np.sqrt(dk)), axis=0))
    rho = spearmanr(closed, mc).statistic
    assert rho >= 0.9


def test_expected_attention_single_sample_drops_variance_term(monkeypatch):
    # at SAMPLE_SIZE only a one-token context has a single sample, which
    # leaves nothing to rank, so the sample is cut to one row here
    monkeypatch.setattr(baselines, "SAMPLE_SIZE", 1)
    config = ModelConfig(n_layers=1, n_heads=1, hidden_size=16, head_dim=16,
                         vocab_size=32, max_position=64)
    model = init_random_model(config, seed=6)
    rng = np.random.default_rng(3)
    ctx = random_ids(rng, config.vocab_size, 20)
    compressed = compress_expected_attention(model, ctx, k=6)

    cache = KvCache.empty(config)
    capture = prefill(model, cache, ctx, query_span=(19, 20))
    q = capture.queries[0].astype(np.float64)[0]
    k_rot = rotate(cache.keys[0], 0, config).astype(np.float64)
    mean_only = k_rot @ q / np.sqrt(config.head_dim)
    assert compressed.kept_positions[0].tolist() == select_top(mean_only, 6).tolist()


def test_baselines_clamp_and_count():
    model = make_model(seed=7)
    ctx = list(range(4, 14))
    before = compress_mod.COMPRESSION_CALLS
    a = compress_expected_attention(model, ctx, k=99)
    b = compress_snapkv_agnostic(model, ctx, k=99)
    c = compress_streaming_llm(model, ctx, k=99)
    assert a.n_kept == b.n_kept == c.n_kept == 10
    assert compress_mod.COMPRESSION_CALLS == before + 3
    for comp, method in ((a, "expattn"), (b, "snapkv"), (c, "streaming")):
        assert comp.meta.method == method
        assert comp.meta.guidance_fingerprint == ZERO_GUIDANCE_FP
        assert comp.meta.k == 99 and comp.meta.n_context == 10
