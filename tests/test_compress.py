"""Task-aware compression: guidance handling, segment planning, selection,
lossless behavior at k = n, equality of the iterative s=1 path with the
one-shot reference, and compressions started from a shared context
prefill."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvcbench.compress as compress_mod
from kvcbench.baselines import (
    compress_expected_attention,
    compress_snapkv_agnostic,
    compress_streaming_llm,
)
from kvcbench.compress import (
    CompressedCache,
    CompressionBudget,
    GuidancePrompt,
    answer_with_cache,
    compress_iterative,
    compress_oracle,
    guidance_fingerprint,
    plan_chunks,
    prefill_context,
    retention,
    score_tokens,
    select_top,
)
from kvcbench.errors import StaleCacheError, UsageError
from kvcbench.modelcore import (
    AttentionCapture,
    GenerationParams,
    KvCache,
    ModelConfig,
    generate_greedy,
    init_random_model,
    prefill,
)
from kvcbench.vocab import build_vocabulary, tokenize

from conftest import random_ids

VOCAB = build_vocabulary([
    "answer questions about people and projects in the context",
    "example question which role does a person have answer engineer",
])


def zs():
    return GuidancePrompt("zs", "answer questions about people and projects")


def fs():
    return GuidancePrompt("fs", "answer questions about people and projects",
                          examples=(("which role does a person have", "engineer"),))


def fsq(query="which projects exist"):
    return GuidancePrompt("fsq", "answer questions about people and projects",
                          examples=(("which role does a person have", "engineer"),),
                          query=query)


# --- guidance -------------------------------------------------------------------

def test_guidance_validation():
    with pytest.raises(UsageError):
        GuidancePrompt("oneshot", "desc")
    with pytest.raises(UsageError):
        GuidancePrompt("zs", "   ")
    with pytest.raises(UsageError):
        GuidancePrompt("zs", "desc", examples=(("q", "a"),))
    with pytest.raises(UsageError):
        GuidancePrompt("fs", "desc")
    with pytest.raises(UsageError):
        GuidancePrompt("fsq", "desc", examples=(("q", "a"),))
    with pytest.raises(UsageError):
        GuidancePrompt("fs", "desc", examples=(("q", "a"),), query="what")


def test_guidance_token_stream_rendering():
    stream = fsq("which projects exist").token_stream(VOCAB)
    expected = tokenize(
        "answer questions about people and projects "
        "example question which role does a person have answer engineer "
        "question which projects exist",
        VOCAB,
    )
    assert stream.ids == expected.ids


def test_guidance_fingerprint_separates_kinds_and_content():
    assert guidance_fingerprint(zs(), VOCAB) == guidance_fingerprint(zs(), VOCAB)
    assert guidance_fingerprint(zs(), VOCAB) != guidance_fingerprint(fs(), VOCAB)
    assert guidance_fingerprint(fsq("a"), VOCAB) != guidance_fingerprint(fsq("b"), VOCAB)
    assert len(guidance_fingerprint(zs(), VOCAB)) == 32


# --- planning and selection -------------------------------------------------------

@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=10))
def test_plan_chunks_partitions_the_context(n, s):
    spans = plan_chunks(n, s)
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert len(spans) <= s
    width = -(-n // s)
    for (a, b), nxt in zip(spans, spans[1:]):
        assert b - a == width
        assert nxt[0] == b
    assert 0 < spans[-1][1] - spans[-1][0] <= width


def test_plan_chunks_rejects_empty_inputs():
    with pytest.raises(UsageError):
        plan_chunks(0, 2)
    with pytest.raises(UsageError):
        plan_chunks(10, 0)


def test_budget_schedules():
    prop = CompressionBudget(k=10, schedule="proportional")
    assert prop.target_rows(100, 100) == 10
    assert prop.target_rows(1, 100) == 1  # ceil(0.1)
    assert prop.target_rows(25, 100) == 3  # ceil(2.5)
    flat = CompressionBudget(k=10, schedule="flat")
    assert flat.target_rows(1, 100) == 10
    with pytest.raises(UsageError):
        CompressionBudget(k=0)
    with pytest.raises(UsageError):
        CompressionBudget(k=4, schedule="linear")


def test_select_top_known_answers_and_ties():
    scores = np.array([0.1, 0.9, 0.3, 0.9, 0.05])
    assert select_top(scores, 2).tolist() == [1, 3]
    assert select_top(scores, 3).tolist() == [1, 2, 3]
    ties = np.array([1.0, 1.0, 1.0, 1.0])
    assert select_top(ties, 2).tolist() == [0, 1]  # ties keep the lower index
    assert select_top(scores, 0).tolist() == []
    with pytest.raises(UsageError):
        select_top(scores, 6)


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40),
       st.data())
def test_select_top_is_monotone_in_k(values, data):
    scores = np.array(values, dtype=np.float64)
    k1 = data.draw(st.integers(min_value=0, max_value=len(values)))
    k2 = data.draw(st.integers(min_value=k1, max_value=len(values)))
    small = set(select_top(scores, k1).tolist())
    large = set(select_top(scores, k2).tolist())
    assert small <= large
    assert len(large) == k2


def test_score_tokens_means_and_bounds():
    layer = np.arange(5, dtype=np.float32)  # one layer's mean attention per column
    capture = AttentionCapture(layers=[layer])
    scores = score_tokens(capture, 4)
    assert len(scores) == 1 and scores[0].shape == (4,)
    assert scores[0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert len(score_tokens(capture, 5)[0]) == 5
    with pytest.raises(UsageError):
        score_tokens(capture, 6)
    with pytest.raises(UsageError):
        score_tokens(capture, 0)

    # a prefill's scores are the mean over observer rows of one-row scores,
    # and each one-row score is that row's attention averaged over heads
    model = make_model(seed=1)
    ids = random_ids(np.random.default_rng(5), len(VOCAB), 40)
    spans = [(37, 38), (38, 39), (39, 40)]
    rows = [score_tokens(prefill(model, KvCache.empty(model.config), ids, observer_span=sp), 30) for sp in spans]
    scores = score_tokens(prefill(model, KvCache.empty(model.config), ids, observer_span=(37, 40)), 30)
    for layer, got in enumerate(scores):
        assert np.max(np.abs(got - np.mean([r[layer] for r in rows], axis=0))) < 1e-6


# --- compression behavior ---------------------------------------------------------

def make_model(seed=0, vocab_size=None, max_position=2048):
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                         vocab_size=vocab_size or len(VOCAB), max_position=max_position)
    return init_random_model(config, seed)


def test_lossless_when_budget_covers_context():
    model = make_model(seed=2)
    rng = np.random.default_rng(0)
    ctx = random_ids(rng, len(VOCAB), 96)
    compressed = compress_iterative(model, ctx, fs(), VOCAB, CompressionBudget(96), s=3)
    assert compressed.n_kept == 96

    plain = KvCache.empty(model.config)
    prefill(model, plain, ctx)
    for layer in range(model.config.n_layers):
        assert compressed.kept_positions[layer].tolist() == list(range(96))
        # segmented prefill changes GEMM batch shapes, so deep layers are
        # BLAS-close rather than bitwise equal
        assert np.allclose(compressed.keys[layer], plain.rotated_keys(layer, model.config), atol=1e-5)
        assert np.allclose(compressed.values[layer], plain.values[layer], atol=1e-5)

    prompt = tokenize("question which role does a person have answer", VOCAB)
    params = GenerationParams(max_new_tokens=8)
    want = generate_greedy(model, plain.fork(), prompt, params)
    got = answer_with_cache(model, compressed, prompt, params)
    assert got.ids == want.ids


def test_iterative_s1_equals_oracle_bitwise():
    model = make_model(seed=5)
    rng = np.random.default_rng(1)
    ctx = random_ids(rng, len(VOCAB), 64)
    a = compress_iterative(model, ctx, fsq(), VOCAB, CompressionBudget(20), s=1)
    b = compress_oracle(model, ctx, fsq(), VOCAB, 20)
    for la, lb in zip(a.kept_positions, b.kept_positions):
        assert np.array_equal(la, lb)
    for ka, kb in zip(a.keys, b.keys):
        assert np.array_equal(ka, kb)
    for va, vb in zip(a.values, b.values):
        assert np.array_equal(va, vb)
    assert a.meta.schedule == "proportional" and b.meta.schedule == "oracle"


def test_compression_is_deterministic():
    model = make_model(seed=6)
    rng = np.random.default_rng(2)
    ctx = random_ids(rng, len(VOCAB), 80)
    a = compress_iterative(model, ctx, fs(), VOCAB, CompressionBudget(24), s=2)
    b = compress_iterative(model, ctx, fs(), VOCAB, CompressionBudget(24), s=2)
    for la, lb in zip(a.kept_positions, b.kept_positions):
        assert np.array_equal(la, lb)
    for ka, kb in zip(a.keys, b.keys):
        assert np.array_equal(ka, kb)


def test_kept_positions_ascending_and_budgeted():
    model = make_model(seed=7)
    rng = np.random.default_rng(3)
    ctx = random_ids(rng, len(VOCAB), 70)
    compressed = compress_iterative(model, ctx, zs(), VOCAB, CompressionBudget(16), s=4)
    assert compressed.n_kept == 16
    for layer in range(model.config.n_layers):
        kept = compressed.kept_positions[layer]
        assert kept.shape == (16,)
        assert np.all(np.diff(kept) > 0)
        assert kept.min() >= 0 and kept.max() < 70
    meta = compressed.meta
    assert meta.n_context == 70 and meta.k == 16 and meta.s == 4
    assert meta.model_fingerprint == model.fingerprint


def test_flat_schedule_holds_k_rows_after_first_segment():
    model = make_model(seed=8)
    rng = np.random.default_rng(4)
    ctx = random_ids(rng, len(VOCAB), 60)
    flat = compress_iterative(model, ctx, zs(), VOCAB,
                              CompressionBudget(12, schedule="flat"), s=2)
    prop = compress_iterative(model, ctx, zs(), VOCAB, CompressionBudget(12), s=2)
    assert flat.n_kept == 12 and prop.n_kept == 12
    assert flat.meta.schedule == "flat"
    # under flat, 12 rows survive segment one, so at most 12 of the final
    # survivors can come from the first half; proportional keeps only 6 there
    first_half_prop = [int((kp < 30).sum()) for kp in prop.kept_positions]
    assert all(c <= 6 for c in first_half_prop)


def test_walk_builds_no_cache_after_its_last_segment(small_bundle, small_model, monkeypatch):
    """The survivors of a segment become a cache only when a segment
    follows; the last survivors go straight into the compressed cache."""
    rows = []
    init = KvCache.__init__

    def counted(self, keys, values, rotated=None):
        rows.append(keys[0].shape[0])
        init(self, keys, values, rotated)

    monkeypatch.setattr(KvCache, "__init__", counted)
    compressed = compress_iterative(small_model, small_bundle.corpus_tokens(), fs(), small_bundle.vocab,
                                    CompressionBudget(320), s=2)
    assert compressed.n_kept == 320
    assert rows == [0, 160]


def test_compress_input_validation():
    model = make_model()
    with pytest.raises(UsageError):
        compress_iterative(model, [], zs(), VOCAB, CompressionBudget(4))
    with pytest.raises(UsageError):
        compress_iterative(model, [5, 6], zs(), VOCAB, CompressionBudget(4), s=0)
    with pytest.raises(UsageError):
        compress_oracle(model, [5, 6], zs(), VOCAB, 0)


def test_answer_with_cache_checks_model_and_preserves_cache():
    model = make_model(seed=9)
    other = make_model(seed=10)
    rng = np.random.default_rng(5)
    ctx = random_ids(rng, len(VOCAB), 40)
    compressed = compress_iterative(model, ctx, zs(), VOCAB, CompressionBudget(10), s=2)
    with pytest.raises(StaleCacheError):
        answer_with_cache(other, compressed, [5, 6])

    prompt = tokenize("question which projects exist answer", VOCAB)
    keys_before = [k.copy() for k in compressed.keys]
    first = answer_with_cache(model, compressed, prompt, GenerationParams(max_new_tokens=6))
    second = answer_with_cache(model, compressed, prompt, GenerationParams(max_new_tokens=6))
    assert first.ids == second.ids
    for before, after in zip(keys_before, compressed.keys):
        assert np.array_equal(before, after)


def test_retention_math():
    meta = None  # retention only reads kept_positions
    compressed = CompressedCache(
        keys=[np.zeros((3, 4), np.float32)] * 2,
        values=[np.zeros((3, 4), np.float32)] * 2,
        kept_positions=[np.array([0, 2, 4]), np.array([0, 1, 2])],
        meta=meta,
    )
    assert retention(compressed, [2, 4]) == pytest.approx(0.75)
    assert retention(compressed, [9]) == 0.0
    assert retention(compressed, [2, 2, 2]) == pytest.approx(1.0)  # duplicates collapse
    with pytest.raises(UsageError):
        retention(compressed, [])


def test_compression_calls_counter_moves_once_per_call():
    model = make_model(seed=11)
    rng = np.random.default_rng(6)
    ctx = random_ids(rng, len(VOCAB), 30)
    before = compress_mod.COMPRESSION_CALLS
    compress_iterative(model, ctx, zs(), VOCAB, CompressionBudget(8), s=2)
    compress_oracle(model, ctx, zs(), VOCAB, 8)
    assert compress_mod.COMPRESSION_CALLS == before + 2


# --- shared context prefill -------------------------------------------------------

def _prefix_compressors(model):
    """(name, build taking a prefix) for every compressor that accepts one."""
    out = []
    for kind, guide in (("zs", zs()), ("fs", fs()), ("fsq", fsq())):
        for s in (1, 2, 3):
            out.append((f"{kind}-s{s}", lambda ctx, p, g=guide, s=s: compress_iterative(
                model, ctx, g, VOCAB, CompressionBudget(len(ctx) // 5), s=s, prefix=p)))
    out.append(("snapkv", lambda ctx, p: compress_snapkv_agnostic(model, ctx, 40, prefix=p)))
    out.append(("expattn", lambda ctx, p: compress_expected_attention(model, ctx, 40, prefix=p)))
    out.append(("streaming", lambda ctx, p: compress_streaming_llm(model, ctx, 40, prefix=p)))
    return out


@pytest.mark.parametrize("n", [150, 333])
def test_prefix_gives_bitwise_the_cache_of_a_run_without_one(n):
    model = make_model(seed=12)
    ctx = np.array(random_ids(np.random.default_rng(n), len(VOCAB), n))
    for name, build in _prefix_compressors(model):
        want = build(ctx, None)
        first = plan_chunks(n, want.meta.s)[0][1]
        # shorter than, as long as and (for s > 1) longer than the first segment
        for m in (first // 2 + 7, first, n):
            got = build(ctx, prefill_context(model, ctx[:m]))
            for layer in range(model.config.n_layers):
                assert np.array_equal(got.kept_positions[layer], want.kept_positions[layer]), (name, m)
                assert np.array_equal(got.keys[layer], want.keys[layer]), (name, m)
                assert np.array_equal(got.values[layer], want.values[layer]), (name, m)
            assert got.meta == want.meta


def test_prefix_leaves_only_observed_or_sampled_rows_to_prefill(monkeypatch):
    model = make_model(seed=13)
    n = 640  # ten attention tiles, so the head fork needs no rounding
    ctx = np.array(random_ids(np.random.default_rng(4), len(VOCAB), n))
    prefix = prefill_context(model, ctx)
    lengths = []

    def counted(model, cache, ids, **spans):
        lengths.append(len(ids))
        return prefill(model, cache, ids, **spans)

    monkeypatch.setattr(compress_mod, "prefill", counted)
    n_guide = len(fs().token_stream(VOCAB).ids)
    for build, want in (
        (lambda p: compress_iterative(model, ctx, fs(), VOCAB, CompressionBudget(100), s=1, prefix=p), n_guide),
        (lambda p: compress_snapkv_agnostic(model, ctx, 100, prefix=p), 64),
        (lambda p: compress_expected_attention(model, ctx, 100, prefix=p), 256),
        (lambda p: compress_streaming_llm(model, ctx, 100, prefix=p), 0),
    ):
        lengths.clear()
        build(prefix)
        assert lengths == [want]


def test_stale_prefix_raises_instead_of_compressing():
    model = make_model(seed=14)
    other = make_model(seed=15)
    ctx = np.array(random_ids(np.random.default_rng(5), len(VOCAB), 120))
    edited = ctx.copy()
    edited[30] = 4 if ctx[30] != 4 else 5
    stale = (
        prefill_context(other, ctx),
        prefill_context(model, edited),
        prefill_context(model, np.concatenate([ctx, ctx[:10]])),
    )
    for prefix in stale:
        with pytest.raises(StaleCacheError):
            compress_iterative(model, ctx, fsq(), VOCAB, CompressionBudget(20), s=2, prefix=prefix)
        with pytest.raises(StaleCacheError):
            compress_snapkv_agnostic(model, ctx, 20, prefix=prefix)
