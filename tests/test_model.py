"""Model forward-pass correctness against a dense float64 reference, cache
position discipline and layout, capture semantics, and the diagnostic
construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcbench import modelcore
from kvcbench.cachefile import load_cache, save_cache
from kvcbench.compress import CompressedCache, CompressionBudget, _walk, compress_iterative
from kvcbench.errors import PositionOverflowError, UsageError
from kvcbench.evalharness import make_guidance
from kvcbench.modelcore import (
    ATTENTION_BLOCK,
    DIAGNOSTIC_MIN_WIDTH,
    GenerationParams,
    KvCache,
    Model,
    ModelConfig,
    decode_step,
    generate_greedy,
    init_diagnostic_model,
    init_random_model,
    prefill,
    rotate,
    tensor_names,
    tensor_shape,
)
from kvcbench.vocab import SEP, Vocabulary, build_vocabulary

from conftest import random_ids


def reference_forward(model: Model, token_ids) -> tuple[np.ndarray, list[np.ndarray]]:
    """Straight-line float64 forward pass: dense causal attention over the
    whole sequence at once, no cache, no blocking, rotary via complex
    multiplication. Returns logits for every prefix position and, per
    layer, the (n_heads, n, n) softmax probabilities."""
    cfg = model.config
    w = {k: v.astype(np.float64) for k, v in model.weights.items()}
    ids = np.asarray(token_ids)
    n = ids.shape[0]
    pos = np.arange(n, dtype=np.float64)
    dk = cfg.head_dim

    def rmsnorm(x, gain):
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6) * gain

    def gelu(x):
        c = np.sqrt(2.0 / np.pi)
        return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))

    def rot(mat):
        if not cfg.rotary_enabled:
            return mat
        half = dk // 2
        inv_freq = cfg.rotary_base ** (-np.arange(half) / half)
        phase = np.exp(1j * pos[:, None] * inv_freq[None, :])
        x = mat.reshape(n, cfg.n_heads, dk)
        z = (x[..., 0::2] + 1j * x[..., 1::2]) * phase[:, None, :]
        out = np.empty_like(x)
        out[..., 0::2] = z.real
        out[..., 1::2] = z.imag
        return out.reshape(n, cfg.hidden_size)

    future = np.triu(np.ones((n, n), dtype=bool), k=1)
    x = w["embedding"][ids]
    attention = []
    for layer in range(cfg.n_layers):
        hn = rmsnorm(x, w[f"layers.{layer}.attn_norm"])
        q = rot(hn @ w[f"layers.{layer}.q_proj"])
        k = rot(hn @ w[f"layers.{layer}.k_proj"])
        v = hn @ w[f"layers.{layer}.v_proj"]
        out = np.zeros_like(x)
        attention.append(np.empty((cfg.n_heads, n, n)))
        for h in range(cfg.n_heads):
            cols = slice(h * dk, (h + 1) * dk)
            scores = q[:, cols] @ k[:, cols].T / np.sqrt(dk)
            scores[future] = -np.inf
            p = np.exp(scores - scores.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            attention[layer][h] = p
            out[:, cols] = p @ v[:, cols]
        x = x + out @ w[f"layers.{layer}.o_proj"]
        mn = rmsnorm(x, w[f"layers.{layer}.mlp_norm"])
        x = x + gelu(mn @ w[f"layers.{layer}.mlp_fc1"]) @ w[f"layers.{layer}.mlp_fc2"]
    return rmsnorm(x, w["final_norm"]) @ w["lm_head"], attention


def last_logits(model, ids):
    cache = KvCache.empty(model.config)
    if len(ids) > 1:
        prefill(model, cache, ids[:-1])
    logits, _ = decode_step(model, cache, ids[-1])
    return logits


def test_decode_matches_dense_reference_step_by_step(tiny_model):
    rng = np.random.default_rng(0)
    ids = random_ids(rng, tiny_model.config.vocab_size, 12)
    ref = reference_forward(tiny_model, ids)[0]
    cache = KvCache.empty(tiny_model.config)
    for i, tok in enumerate(ids):
        logits, _ = decode_step(tiny_model, cache, tok)
        assert np.max(np.abs(logits - ref[i])) < 1e-4


def test_prefill_matches_dense_reference_across_blocks(tiny_model):
    # crosses the attention block boundary inside one prefill call
    rng = np.random.default_rng(1)
    n = ATTENTION_BLOCK + 88
    ids = random_ids(rng, tiny_model.config.vocab_size, n)
    ref = reference_forward(tiny_model, ids)[0]
    assert np.max(np.abs(last_logits(tiny_model, ids) - ref[-1])) < 1e-4


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=79))
def test_chunked_prefill_equals_one_shot(split):
    model = init_random_model(
        ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                    vocab_size=64, max_position=2048),
        seed=1,
    )
    rng = np.random.default_rng(42)
    ids = random_ids(rng, model.config.vocab_size, 80)

    one = KvCache.empty(model.config)
    prefill(model, one, ids)
    logits_one, _ = decode_step(model, one, 5)

    two = KvCache.empty(model.config)
    prefill(model, two, ids[:split])
    prefill(model, two, ids[split:])
    logits_two, _ = decode_step(model, two, 5)

    assert np.max(np.abs(logits_one - logits_two)) < 1e-4
    assert np.array_equal(one.positions[0], two.positions[0])


def test_empty_prefill_is_a_no_op(tiny_model):
    cache = KvCache.empty(tiny_model.config)
    assert prefill(tiny_model, cache, []) is None
    assert cache.length == 0


def test_prefill_rejects_bad_token_ids(tiny_model):
    cache = KvCache.empty(tiny_model.config)
    with pytest.raises(UsageError):
        prefill(tiny_model, cache, [tiny_model.config.vocab_size])
    with pytest.raises(UsageError):
        decode_step(tiny_model, cache, -1)


def test_decode_overflow_at_max_position():
    config = ModelConfig(n_layers=1, n_heads=1, hidden_size=16, head_dim=16,
                         vocab_size=16, max_position=8)
    model = init_random_model(config, seed=0)
    cache = KvCache.empty(config)
    with pytest.raises(PositionOverflowError):  # last row at position 8
        prefill(model, cache, [4] * 9)
    prefill(model, cache, [4] * 8)
    with pytest.raises(PositionOverflowError):
        decode_step(model, cache, 4)
    with pytest.raises(PositionOverflowError):
        prefill(model, cache, [4])


def test_capture_rows_are_causal_and_normalized(tiny_model):
    rng = np.random.default_rng(2)
    base_ids = random_ids(rng, tiny_model.config.vocab_size, 30)
    ids = random_ids(rng, tiny_model.config.vocab_size, 50)
    cache = KvCache.empty(tiny_model.config)
    prefill(tiny_model, cache, base_ids)
    capture = prefill(tiny_model, cache, ids, observer_span=(10, 20))

    assert len(capture.layers) == tiny_model.config.n_layers
    assert capture.n_observers == 10
    assert capture.total_tokens == 80
    for layer in capture.layers:
        assert layer.shape == (tiny_model.config.n_heads, 10, 80)
        for row in range(10):
            visible = 30 + 10 + row + 1  # base + local index + self
            assert np.allclose(layer[:, row, :visible].sum(axis=-1), 1.0, atol=1e-5)
            assert np.all(layer[:, row, visible:] == 0.0)


@pytest.mark.parametrize("head_dim", [16, 32])  # tiny_config's, ttft_reference_config's
def test_capture_and_logits_match_dense_reference_across_tile_edges(head_dim):
    # a cache length that is no multiple of the tile, then a prefill of more
    # than two tiles whose observer span starts mid-tile and is longer than
    # one tile: the first layer's tiles cut the span, the last layer's range
    # (the span alone) takes two tiles
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=2 * head_dim, head_dim=head_dim,
                         vocab_size=64, max_position=2048)
    model = init_random_model(config, seed=4)
    rng = np.random.default_rng(head_dim)
    base, n = ATTENTION_BLOCK // 2 + 37, 2 * ATTENTION_BLOCK + 41
    lo, hi = ATTENTION_BLOCK // 2 + 5, 3 * ATTENTION_BLOCK // 2 + 20
    ids = random_ids(rng, 64, base + n + 1)
    ref_logits, ref_attention = reference_forward(model, ids)

    cache = KvCache.empty(config)
    prefill(model, cache, ids[:base])
    capture = prefill(model, cache, ids[base : base + n], observer_span=(lo, hi))
    for got, ref in zip(capture.layers, ref_attention):
        rows = ref[:, base + lo : base + hi, : base + n]
        assert np.max(np.abs(got - rows)) < 1e-5
        future = np.arange(base + n)[None, :] > np.arange(base + lo, base + hi)[:, None]
        assert np.all(got[:, future] == 0.0)
    logits, _ = decode_step(model, cache, ids[-1])
    assert np.max(np.abs(logits - ref_logits[-1])) < 1e-4


def test_capture_spans_validated(tiny_model):
    cache = KvCache.empty(tiny_model.config)
    with pytest.raises(UsageError):
        prefill(tiny_model, cache, [5, 6, 7], observer_span=(2, 4))
    with pytest.raises(UsageError):
        prefill(tiny_model, cache, [5, 6, 7], query_span=(-1, 2))
    # empty spans are treated as absent
    assert prefill(tiny_model, cache, [5, 6, 7], observer_span=(2, 2)) is None


def test_query_capture_matches_manual_projection(tiny_model):
    # layer 0 rotated queries are directly recomputable from the weights
    rng = np.random.default_rng(3)
    ids = random_ids(rng, tiny_model.config.vocab_size, 16)
    cache = KvCache.empty(tiny_model.config)
    capture = prefill(tiny_model, cache, ids, query_span=(4, 12))

    w = tiny_model.weights
    x = w["embedding"][np.asarray(ids)].astype(np.float64)
    hn = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)
    q = (hn * w["layers.0.attn_norm"]) @ w["layers.0.q_proj"]
    expected = rotate(q.astype(np.float32), 0, tiny_model.config)[4:12]
    assert capture.queries is not None
    assert np.allclose(capture.queries[0], expected, atol=1e-5)


def test_rotate_identity_cases(tiny_config):
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((6, tiny_config.hidden_size)).astype(np.float32)
    for row in mat:
        assert np.array_equal(rotate(row[None], 0, tiny_config), row[None])
    off = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                      vocab_size=64, max_position=2048, rotary_enabled=False)
    assert rotate(mat, 7, off) is mat


def test_rotate_preserves_pair_norms_at_large_positions(tiny_config):
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((4, tiny_config.hidden_size)).astype(np.float32)
    x = mat.reshape(4, tiny_config.n_heads, tiny_config.head_dim)
    norm_in = np.sqrt(x[..., 0::2] ** 2 + x[..., 1::2] ** 2)
    for start in (0, 100_000, 130_000):
        y = rotate(mat, start, tiny_config).reshape(x.shape)
        norm_out = np.sqrt(y[..., 0::2] ** 2 + y[..., 1::2] ** 2)
        assert np.allclose(norm_in, norm_out, atol=1e-5)


def test_cache_fork_is_independent(tiny_model):
    cache = KvCache.empty(tiny_model.config)
    prefill(tiny_model, cache, [5, 6, 7])
    fork = cache.fork()
    decode_step(tiny_model, fork, 8)
    assert cache.length == 3
    assert fork.length == 4
    assert np.array_equal(cache.positions[0], np.arange(3))


def direct_rotate(mat, positions, config):
    """Rotary rotation with angles computed per call in float64."""
    half = config.head_dim // 2
    inv_freq = config.rotary_base ** (-np.arange(half, dtype=np.float64) / half)
    angles = np.asarray(positions, np.float64)[:, None] * inv_freq[None, :]
    cos = np.cos(angles).astype(np.float32)[:, None, :]
    sin = np.sin(angles).astype(np.float32)[:, None, :]
    x = mat.reshape(mat.shape[0], config.n_heads, config.head_dim)
    out = np.empty_like(x)
    out[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
    out[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
    return out.reshape(mat.shape)


def test_rotate_table_equals_direct_formula(tiny_config):
    rng = np.random.default_rng(6)
    starts = np.concatenate([
        [0, 1, tiny_config.max_position - 1, 130_000],
        rng.integers(0, 140_000, size=50),
    ])
    for start in starts.tolist():
        n = int(rng.integers(2, 40))
        mat = rng.standard_normal((n, tiny_config.hidden_size)).astype(np.float32)
        expected = direct_rotate(mat, np.arange(start, start + n), tiny_config)
        assert np.array_equal(rotate(mat, start, tiny_config), expected)
    with pytest.raises(UsageError):
        rotate(mat[:1], -1, tiny_config)


def assert_shadow_exact(model, cache):
    for layer in range(model.config.n_layers):
        keys = cache.keys[layer]
        expected = rotate(keys, 0, model.config)
        assert np.array_equal(cache.rotated_keys(layer, model.config), expected)


@pytest.mark.parametrize("n0", [1, 7, ATTENTION_BLOCK - 1, ATTENTION_BLOCK, ATTENTION_BLOCK + 8])
def test_shadow_equals_full_rotation_across_growth(n0):
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                         vocab_size=64, max_position=2048)
    model = init_random_model(config, seed=2)
    rng = np.random.default_rng(n0)
    cache = KvCache.empty(config)
    prefill(model, cache, random_ids(rng, 64, n0))
    # 70 single-row steps cross the n0 + n0 // 8 headroom of every n0 here
    for tok in random_ids(rng, 64, 70):
        decode_step(model, cache, tok)
        assert_shadow_exact(model, cache)
    prefill(model, cache, random_ids(rng, 64, ATTENTION_BLOCK + 3))
    assert_shadow_exact(model, cache)
    assert np.array_equal(cache.positions[1], np.arange(n0 + 70 + ATTENTION_BLOCK + 3))


def test_fork_and_parent_grow_independently(tiny_model):
    def replay(tokens):
        cache = KvCache.empty(tiny_model.config)
        prefill(tiny_model, cache, list(range(10, 40)))
        for tok in tokens:
            decode_step(tiny_model, cache, tok)
        return cache

    ours, theirs = [5, 6, 7, 8, 9] * 3, [11, 12, 13] * 5
    parent = replay([])
    fork = parent.fork()
    for a, b in zip(ours, theirs):
        decode_step(tiny_model, parent, a)
        decode_step(tiny_model, fork, b)
    for cache, tokens in ((parent, ours), (fork, theirs)):
        fresh = replay(tokens)
        for layer in range(tiny_model.config.n_layers):
            assert np.array_equal(cache.keys[layer], fresh.keys[layer])
            assert np.array_equal(cache.values[layer], fresh.values[layer])
            assert np.array_equal(
                cache.rotated_keys(layer, tiny_model.config),
                fresh.rotated_keys(layer, tiny_model.config),
            )


@pytest.fixture
def grown_calls(monkeypatch):
    """The `need` of every buffer reallocation made from here on."""
    calls = []
    grown = modelcore._grown

    def counted(buf, used, need):
        calls.append(need)
        return grown(buf, used, need)

    monkeypatch.setattr(modelcore, "_grown", counted)
    return calls


def test_fork_leaves_headroom_for_its_first_appends(tiny_model, grown_calls):
    """A fork, and the question or segment rows appended to it, reallocate
    no buffer: a whole fork then a 3-token prefill, and a head fork of 960
    rows then 40 more."""
    rng = np.random.default_rng(12)
    cache = KvCache.empty(tiny_model.config)
    prefill(tiny_model, cache, random_ids(rng, 64, 1000))
    grown_calls.clear()
    for rows, extra in ((None, 3), (960, 40)):
        fork = cache.fork(rows)
        prefill(tiny_model, fork, random_ids(rng, 64, extra))
        assert fork.length == (rows or 1000) + extra
        assert_shadow_exact(tiny_model, fork)
    assert grown_calls == []


def test_loaded_cache_answers_without_regrowth(small_bundle, small_model, tmp_path, grown_calls):
    """The kvc answer path, load_cache then to_kv_cache then a question
    prefill of an eighth of the kept rows, reallocates no buffer, the
    rotated-key shadow included. The compressed caches that compression
    and loading return hold arrays of exactly n_kept rows, not views into
    a cache's headroom."""
    path = tmp_path / "c.kvcc"
    compressed = compress_iterative(small_model, small_bundle.corpus_tokens(), make_guidance("zs", []),
                                    small_bundle.vocab, CompressionBudget(320), s=2)
    save_cache(compressed, path)
    grown_calls.clear()
    loaded = load_cache(path, small_model)
    cache = loaded.to_kv_cache()
    n = loaded.n_kept
    prefill(small_model, cache, random_ids(np.random.default_rng(13), small_model.config.vocab_size, n // 8))
    assert cache.length == n + n // 8
    assert_shadow_exact(small_model, cache)
    assert grown_calls == []
    for c in (compressed, loaded):
        for a in (*c.keys, *c.values):
            root = a
            while isinstance(root.base, np.ndarray):
                root = root.base
            assert a.shape[0] == c.n_kept and root.nbytes == a.nbytes


def test_plain_prefill_leaves_every_shadow_complete(tiny_model, monkeypatch):
    """Forks of a prefilled context rotate only their own new rows: one
    query row and one key row per layer for a decode step."""
    config = tiny_model.config
    cache = KvCache.empty(config)
    prefill(tiny_model, cache, random_ids(np.random.default_rng(9), 64, 600))
    rows = []

    def counted(mat, start, cfg):
        rows.append(mat.shape[0])
        return rotate(mat, start, cfg)

    monkeypatch.setattr(modelcore, "rotate", counted)
    decode_step(tiny_model, cache.fork(), 5)
    assert sum(rows) == 2 * config.n_layers
    rows.clear()
    for layer in range(config.n_layers):
        cache.rotated_keys(layer, config)
    assert sum(rows) == 0


def test_gathered_caches_decode_like_a_fresh_prefill(tiny_model):
    rng = np.random.default_rng(8)
    ids = np.array(random_ids(rng, 64, 700))
    fresh = KvCache.empty(tiny_model.config)
    prefill(tiny_model, fresh, ids[:350])
    prefill(tiny_model, fresh, ids[350:])
    # a keep-all rule: the walk gathers every row after the first segment
    walked = _walk(tiny_model, ids, CompressionBudget(700), 2,
                   lambda capture, cache, n, r: [np.arange(n)] * cache.n_layers, b"", "walk")
    loaded = CompressedCache(fresh.keys, fresh.values, walked.kept_positions, walked.meta)
    caches = [walked.to_kv_cache(), loaded.to_kv_cache(), fresh]
    for tok in (5, 9, 13):
        logits = [decode_step(tiny_model, c, tok)[0] for c in caches]
        assert np.array_equal(logits[0], logits[2])
        assert np.array_equal(logits[1], logits[2])


def test_shadow_is_the_keys_with_rotary_off():
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                         vocab_size=64, max_position=2048, rotary_enabled=False)
    model = init_random_model(config, seed=3)
    cache = KvCache.empty(config)
    prefill(model, cache, list(range(4, 60)))
    decode_step(model, cache, 7)
    for layer in range(config.n_layers):
        assert np.shares_memory(cache.rotated_keys(layer, config), cache.keys[layer])


def test_generate_greedy_contract(tiny_model):
    cache = KvCache.empty(tiny_model.config)
    prefill(tiny_model, cache, [5, 6, 7])
    params = GenerationParams(max_new_tokens=5, stop_tokens=())
    out = generate_greedy(tiny_model, cache.fork(), [8, 9], params)
    assert len(out.ids) == 5

    # the first generated token becomes a stop token -> empty output
    stop = GenerationParams(max_new_tokens=5, stop_tokens=(out.ids[0],))
    again = generate_greedy(tiny_model, cache.fork(), [8, 9], stop)
    assert again.ids == []

    with pytest.raises(UsageError):
        generate_greedy(tiny_model, cache.fork(), [], params)


def test_greedy_ties_resolve_to_lowest_id():
    # diagnostic head is all zeros: every logit ties, argmax must pick id 0
    vocab = build_vocabulary(["alpha beta gamma delta"])
    config = ModelConfig(n_layers=1, n_heads=1, hidden_size=64, head_dim=64,
                         vocab_size=len(vocab), max_position=64)
    model = init_diagnostic_model(config, vocab)
    cache = KvCache.empty(model.config)
    out = generate_greedy(model, cache, [4, 5], GenerationParams(max_new_tokens=3, stop_tokens=()))
    assert out.ids == [0, 0, 0]


def test_model_config_validation():
    with pytest.raises(UsageError):
        ModelConfig(n_layers=2, n_heads=2, hidden_size=30, head_dim=16,
                    vocab_size=64, max_position=64)
    with pytest.raises(UsageError):
        ModelConfig(n_layers=0, n_heads=1, hidden_size=16, head_dim=16,
                    vocab_size=64, max_position=64)
    with pytest.raises(UsageError):
        ModelConfig(n_layers=1, n_heads=1, hidden_size=16, head_dim=16,
                    vocab_size=1, max_position=64)
    with pytest.raises(UsageError):
        ModelConfig(n_layers=1, n_heads=1, hidden_size=16, head_dim=16,
                    vocab_size=64, max_position=0)
    with pytest.raises(UsageError):  # odd head_dim under rotary
        ModelConfig(n_layers=1, n_heads=1, hidden_size=15, head_dim=15,
                    vocab_size=64, max_position=64)


def test_tensor_catalog_consistency(tiny_config):
    names = tensor_names(tiny_config)
    assert names[0] == "embedding" and names[-1] == "lm_head"
    assert len(names) == 3 + 8 * tiny_config.n_layers
    model = init_random_model(tiny_config, seed=0)
    for name in names:
        assert model.weights[name].shape == tensor_shape(name, tiny_config)
    assert np.array_equal(model.weights["layers.0.attn_norm"], np.ones(32, np.float32))


def test_model_fingerprint_tracks_weights(tiny_config):
    a = init_random_model(tiny_config, seed=0)
    b = init_random_model(tiny_config, seed=0)
    c = init_random_model(tiny_config, seed=1)
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


def test_diagnostic_model_geometry():
    vocab = build_vocabulary(["alpha beta gamma delta epsilon zeta"])
    config = ModelConfig(n_layers=1, n_heads=1, hidden_size=64, head_dim=64,
                         vocab_size=len(vocab), max_position=128)
    model = init_diagnostic_model(config, vocab)
    assert model.config.rotary_enabled is False
    emb = model.weights["embedding"]
    norms = np.linalg.norm(emb, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)
    assert emb[SEP, 0] == 1.0 and np.all(emb[SEP, 1:] == 0.0)
    dots = emb @ emb.T
    off = dots - np.diag(np.diag(dots))
    # sink column dot 0.5, any two distinct non-sink codes at most 0.4375
    assert np.allclose(dots[SEP, np.arange(len(vocab)) != SEP], 0.5, atol=1e-6)
    mask = np.ones_like(off, dtype=bool)
    mask[SEP, :] = mask[:, SEP] = False
    np.fill_diagonal(mask, False)
    assert np.max(np.abs(off[mask])) <= 0.4375 + 1e-6
    assert np.array_equal(model.weights["layers.0.v_proj"], np.eye(64, dtype=np.float32))
    assert np.all(model.weights["lm_head"] == 0.0)


def test_diagnostic_model_rejects_narrow_or_small_configs():
    vocab = build_vocabulary(["alpha beta"])
    with pytest.raises(UsageError):
        init_diagnostic_model(
            ModelConfig(n_layers=1, n_heads=1, hidden_size=DIAGNOSTIC_MIN_WIDTH // 2,
                        head_dim=DIAGNOSTIC_MIN_WIDTH // 2, vocab_size=16, max_position=64),
            vocab,
        )
    with pytest.raises(UsageError):
        init_diagnostic_model(
            ModelConfig(n_layers=1, n_heads=1, hidden_size=64, head_dim=64,
                        vocab_size=len(vocab) - 1, max_position=64),
            vocab,
        )


def test_diagnostic_attention_peaks_on_matching_ids():
    vocab = build_vocabulary(["alpha beta gamma delta epsilon zeta eta theta"])
    config = ModelConfig(n_layers=1, n_heads=1, hidden_size=64, head_dim=64,
                         vocab_size=len(vocab), max_position=128)
    model = init_diagnostic_model(config, vocab)
    ids = [4, 5, 6, 7, 8, 9, 5]  # final token repeats id 5 at position 1
    cache = KvCache.empty(config)
    capture = prefill(model, cache, ids, observer_span=(6, 7))
    row = capture.layers[0][0, 0]
    # the two id-5 columns split nearly all the mass between them
    assert row[1] + row[6] > 0.99
    assert np.all(row[[0, 2, 3, 4, 5]] < 1e-4)
    # a token with no match elsewhere falls back to itself, then the sink
    cache2 = KvCache.empty(config)
    ids2 = [2, 4, 5, 6, 10]  # leading separator is the sink
    capture2 = prefill(model, cache2, ids2, observer_span=(4, 5))
    row2 = capture2.layers[0][0, 0]
    assert row2.argmax() == 4  # self-match dominates
    assert row2[0] > max(row2[1], row2[2], row2[3])  # sink beats non-matches
