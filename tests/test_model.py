"""Model forward-pass correctness against a dense float64 reference, cache
position discipline and layout, capture semantics, and the diagnostic
construction."""

import ctypes
import hashlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcbench import modelcore
from kvcbench.cachefile import load_cache, save_cache
from kvcbench.compress import CacheMeta, CompressedCache, CompressionBudget, _walk, compress_iterative
from kvcbench.errors import PositionOverflowError, UsageError
from kvcbench.evalharness import default_eval_config, make_guidance, ttft_reference_config
from kvcbench.modelcore import (
    ATTENTION_BLOCK,
    DIAGNOSTIC_MIN_WIDTH,
    MLP_BLOCK,
    SHIFT_FREE_BOUND,
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


def reference_forward(model: Model, token_ids, queries=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Straight-line float64 forward pass: dense causal attention over the
    whole sequence at once, no cache, no blocking, rotary via complex
    multiplication. Returns logits for every prefix position and, per
    layer, the (n_heads, n, n) softmax probabilities. When `queries` is a
    list, each layer's rotated (n, hidden_size) queries are appended to it."""
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
        if queries is not None:
            queries.append(q)
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


@pytest.mark.parametrize("n_heads, head_dim, past_bound",
                         [(2, 16, False), (1, 32, False), (1, 64, False), (2, 16, True)])
def test_a_multi_tile_range_equals_one_tile_calls_bitwise(n_heads, head_dim, past_bound):
    # One call of 4 tiles and a row scores its 64-row tiles from the key
    # panels into the pass's score buffer, and its one-row tail tile from the
    # plain product. Calls of one tile each score every tile from the plain
    # product. The tail call projects its one row through gemv, which can
    # round differently from the one call's gemm, so that row alone is
    # compared within a tolerance.
    config = ModelConfig(n_layers=2, n_heads=n_heads, hidden_size=n_heads * head_dim, head_dim=head_dim,
                         vocab_size=64, max_position=2048)
    model = init_random_model(config, seed=3)
    if past_bound:
        model = Model(config, {name: w * np.float32(12) if name.endswith(("q_proj", "k_proj")) else w
                               for name, w in model.weights.items()})
    assert (model.score_bound > SHIFT_FREE_BOUND) == past_bound
    n = 4 * ATTENTION_BLOCK
    ids = random_ids(np.random.default_rng(5), config.vocab_size, n + 2)
    one, tiles = KvCache.empty(config), KvCache.empty(config)
    prefill(model, one, ids[: n + 1])
    for r0 in range(0, n + 1, ATTENTION_BLOCK):
        prefill(model, tiles, ids[r0 : min(r0 + ATTENTION_BLOCK, n + 1)])

    def bits(a):
        return a.view(np.uint32)

    for layer in range(config.n_layers):
        for a, b in ((one.keys[layer], tiles.keys[layer]), (one.values[layer], tiles.values[layer]),
                     (one.rotated_keys(layer, config), tiles.rotated_keys(layer, config))):
            assert np.array_equal(bits(a[:n]), bits(b[:n])), layer
            assert np.allclose(a, b, atol=1e-5)
    next_logits = [decode_step(model, cache.fork(n), ids[n])[0] for cache in (one, tiles)]
    assert np.array_equal(bits(next_logits[0]), bits(next_logits[1]))
    logits = [decode_step(model, cache, ids[n + 1])[0] for cache in (one, tiles)]
    assert np.max(np.abs(logits[0] - logits[1])) < 1e-4


def test_panels_only_for_ranges_of_several_tiles(monkeypatch):
    # a pass transposes its keys into one (hidden, columns) panel per layer
    # whose range has more than one tile, and scores only its multi-row
    # tiles from it; decode steps and one-tile ranges take none
    panels, products = [], []

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape, *args, **kwargs):
            if len(shape) == 2 and shape[0] == hidden and shape[1] > ATTENTION_BLOCK:
                panels.append(shape[1])
            return np.empty(shape, *args, **kwargs)

        @staticmethod
        def matmul(a, b, *args, **kwargs):
            if b.shape[0] == head_dim:  # a panel's rows, not a projection's
                products.append(a.shape[0])
            return np.matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(modelcore, "np", Spy())
    ids = random_ids(np.random.default_rng(5), 64, 400)
    n_heads, head_dim = 2, 16
    hidden = n_heads * head_dim
    config = ModelConfig(n_layers=2, n_heads=n_heads, hidden_size=hidden, head_dim=head_dim,
                         vocab_size=64, max_position=2048)
    model = init_random_model(config, seed=3)
    for rows, want in ((64, []), (65, [65])):
        cache = KvCache.empty(config)
        panels.clear()
        products.clear()
        prefill(model, cache, ids[:rows])  # the last layer attends over no rows
        assert panels == want, rows
        # every full tile from the panel, the one-row tail tile not
        assert products == [ATTENTION_BLOCK] * (n_heads * (rows // ATTENTION_BLOCK) if want else 0)
        prefill(model, cache, ids[rows : rows + 40])
        decode_step(model, cache, int(ids[rows + 40]))
        assert panels == want
    prefill(model, KvCache.empty(config), ids[:300], observer_span=(100, 164))
    assert panels == want + [300]  # the last layer's observed range is one tile
    prefill(model, KvCache.empty(config), ids[:300], observer_span=(0, 300))
    assert panels == want + [300, 300, 300]
    assert 1 not in products


@pytest.fixture
def tile_workers(monkeypatch):
    """Sets TILE_WORKERS; every range of several tiles splits, whatever its size."""
    monkeypatch.setattr(modelcore, "SPLIT_MIN_SCORES", 0)
    return lambda workers: monkeypatch.setattr(modelcore, "TILE_WORKERS", workers)


def past_bound(model):
    """`model` with q and k scaled by 12, which multiplies its score bound by 144."""
    return Model(model.config, {name: w * np.float32(12) if name.endswith(("q_proj", "k_proj")) else w
                                for name, w in model.weights.items()})


def diagnostic_model():
    vocab = build_vocabulary(["alpha beta gamma"])
    return init_diagnostic_model(ModelConfig(n_layers=1, n_heads=1, hidden_size=256, head_dim=256,
                                             vocab_size=len(vocab), max_position=4096, rotary_enabled=False),
                                 vocab)


WORKER_COUNT_MODELS = {
    "eval": lambda: init_random_model(default_eval_config(64), 1),
    "ttft": lambda: init_random_model(ttft_reference_config(64), 2),
    "diagnostic": diagnostic_model,
    "past_bound": lambda: past_bound(init_random_model(default_eval_config(64), 3)),
}


@pytest.mark.parametrize("name", sorted(WORKER_COUNT_MODELS))
def test_outputs_do_not_depend_on_the_worker_count(name, tile_workers):
    # A range of several tiles splits them round-robin over TILE_WORKERS
    # threads; every tile writes its own rows, and the capture adds the
    # tiles' contributions in one thread's order, so no bit moves. The sizes
    # end in a one-row and a 63-row tail tile, after no cache and after one;
    # the observer spans cover several tiles of the last layer's range.
    model = WORKER_COUNT_MODELS[name]()
    config = model.config
    assert (model.score_bound > SHIFT_FREE_BOUND) == (name == "past_bound")
    rng = np.random.default_rng(11)
    cases = [(base, n, (n // 3, n - 20), (n - 20, n))
             for base in (0, 100) for n in (3 * ATTENTION_BLOCK + 1, 4 * ATTENTION_BLOCK + 63)]
    cases.append((0, 2 * ATTENTION_BLOCK + 5, None, None))
    ids = [random_ids(rng, config.vocab_size, base + n + 1) for base, n, _, _ in cases]

    def run():
        arrays = []
        for (base, n, obs, query), case_ids in zip(cases, ids):
            cache = KvCache.empty(config)
            prefill(model, cache, case_ids[:base])
            capture = prefill(model, cache, case_ids[base : base + n], observer_span=obs, query_span=query)
            if capture is not None:
                arrays += [*capture.layers, *capture.queries]
            for layer in range(config.n_layers):
                arrays += [cache.keys[layer], cache.values[layer], cache.rotated_keys(layer, config)]
            arrays.append(decode_step(model, cache, case_ids[-1])[0])
        return arrays

    runs = {}
    for workers in (1, 2, 3):
        tile_workers(workers)
        runs[workers] = run()
    for workers in (2, 3):
        for a, b in zip(runs[1], runs[workers], strict=True):
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32)), (name, workers)


def test_more_workers_than_cores_with_fast_thread_switches_agree_bitwise(tile_workers):
    # Five workers share the output rows while the caller adds the capture;
    # a lost or reordered update would move a capture or an output bit. A
    # long observer span keeps most tiles on the caller, a short one at the
    # end deals most of them to the workers.
    model = init_random_model(default_eval_config(64), 6)
    ids = random_ids(np.random.default_rng(6), 64, 12 * ATTENTION_BLOCK + 7)
    n = len(ids) - 1
    spans = [(ATTENTION_BLOCK + 3, n), (n - 20, n)]

    def run(span):
        cache = KvCache.empty(model.config)
        capture = prefill(model, cache, ids[:n], observer_span=span)
        return [*capture.layers, *cache.keys, *cache.values, decode_step(model, cache, ids[n])[0]]

    serial = [run(span) for span in spans]
    tile_workers(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [[run(span) for _ in range(3)] for span in spans]
    finally:
        sys.setswitchinterval(interval)
    for one, runs in zip(serial, threaded, strict=True):
        for arrays in runs:
            for a, b in zip(one, arrays, strict=True):
                assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_a_compressed_cache_file_does_not_depend_on_the_worker_count(small_bundle, small_model, tmp_path,
                                                                     tile_workers):
    files = []
    for workers in (1, 2):
        tile_workers(workers)
        compressed = compress_iterative(small_model, small_bundle.corpus_tokens(), make_guidance("zs", []),
                                        small_bundle.vocab, CompressionBudget(160))
        save_cache(compressed, tmp_path / f"{workers}.kvcc")
        files.append((tmp_path / f"{workers}.kvcc").read_bytes())
    assert files[0] == files[1]


def test_workers_run_under_the_callers_errstate(tiny_model, tile_workers):
    # test_a_model_past_the_bound_keeps_the_shift's prefill without the
    # shift overflows exp2 on purpose, under np.errstate. A worker thread
    # that left the caller's errstate behind would warn, here an error that
    # ends its share of the tiles.
    model = past_bound(tiny_model)
    model.score_bound = 0.0
    n = 2 * ATTENTION_BLOCK + 9
    ids = random_ids(np.random.default_rng(7), model.config.vocab_size, n)
    captures = []
    for workers in (1, 2):
        tile_workers(workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                capture = prefill(model, KvCache.empty(model.config), ids, observer_span=(0, n))
        captures.append(capture.layers)
    assert not np.all(np.isfinite(captures[1][-1]))
    for a, b in zip(*captures, strict=True):
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_an_exception_in_a_worker_surfaces_from_prefill(tiny_model, monkeypatch, tile_workers):
    class Boom(Exception):
        pass

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp2(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise Boom("worker")
            return np.exp2(*args, **kwargs)

    monkeypatch.setattr(modelcore, "np", Spy())
    tile_workers(2)
    ids = random_ids(np.random.default_rng(4), tiny_model.config.vocab_size, 3 * ATTENTION_BLOCK)
    with pytest.raises(Boom, match="worker"):
        prefill(tiny_model, KvCache.empty(tiny_model.config), ids)
    # a one-tile range runs on the calling thread alone
    prefill(tiny_model, KvCache.empty(tiny_model.config), ids[:ATTENTION_BLOCK])


def test_run_shares_waits_for_the_pool_when_the_first_call_raises():
    finished = threading.Event()

    def first():
        raise ValueError("first")

    def slow():
        time.sleep(0.05)
        finished.set()

    with pytest.raises(ValueError, match="first"):
        try:
            modelcore._run_shares([first, slow])
        finally:
            assert finished.is_set()


def test_run_shares_raises_the_earliest_exception_in_call_order():
    # the later call raises first; the earlier call's exception surfaces
    later_raised = threading.Event()

    def earlier():
        later_raised.wait(5)
        time.sleep(0.05)
        raise ValueError("earlier")

    def later():
        later_raised.set()
        raise KeyError("later")

    with pytest.raises(ValueError, match="earlier"):
        modelcore._run_shares([lambda: None, earlier, later])


def test_only_ranges_of_enough_scores_split(tiny_model, monkeypatch):
    # H x rows x columns of at least SPLIT_MIN_SCORES: the first layer's
    # range of 1,024 rows over an empty cache scores 2 x 1,024 x 1,024
    # elements, one of 1,536 rows 2 x 1,536 x 1,536
    splits = []
    run_shares = modelcore._run_shares
    monkeypatch.setattr(modelcore, "_run_shares",
                        lambda calls: len(calls) > 1 and splits.append(len(calls)) or run_shares(calls))
    monkeypatch.setattr(modelcore, "TILE_WORKERS", 2)
    monkeypatch.setattr(modelcore, "SPLIT_MIN_SCORES", 2 * 1024 * 1024 + 1)
    ids = random_ids(np.random.default_rng(8), tiny_model.config.vocab_size, 1536)
    prefill(tiny_model, KvCache.empty(tiny_model.config), ids[:1024])
    assert splits == []
    prefill(tiny_model, KvCache.empty(tiny_model.config), ids)
    assert splits == [2]


def test_only_a_range_that_splits_goes_through_run_shares(tiny_model, monkeypatch, tile_workers):
    # every range of several tiles splits here; one tile, a decode step's
    # or a short question's, calls the kernel directly
    calls = []
    run_shares = modelcore._run_shares
    monkeypatch.setattr(modelcore, "_run_shares", lambda shares: calls.append(len(shares)) or run_shares(shares))
    tile_workers(2)
    ids = random_ids(np.random.default_rng(9), tiny_model.config.vocab_size, 2 * ATTENTION_BLOCK + 1)
    cache = KvCache.empty(tiny_model.config)
    prefill(tiny_model, cache, ids[: ATTENTION_BLOCK - 1], observer_span=(0, 9))
    decode_step(tiny_model, cache, int(ids[ATTENTION_BLOCK - 1]))
    assert calls == []
    prefill(tiny_model, KvCache.empty(tiny_model.config), ids)
    assert calls == [2]


def per_head_plain_tile(q, k_rot, v_all, base, H, shift):
    """The plain-product tile as a loop over heads: the kernel's form for a
    one-tile range before its heads were batched, kept as the oracle."""
    rows, dk = q.shape[0], q.shape[1] // H
    end = base + rows
    future = modelcore._FUTURE[:rows, :rows]
    ones = np.ones(end, np.float32)
    out = np.empty(q.shape, np.float32)
    for h in range(H):
        cols = slice(h * dk, (h + 1) * dk)
        scores = q[:, cols] @ k_rot[:end, cols].T
        if rows > 1:
            scores[:, base:][future] = -np.inf
        if shift:
            scores -= scores.max(axis=1, keepdims=True)
        np.exp2(scores, out=scores)
        rowsum = (scores @ ones[:end])[:, None]
        out[:, cols] = (scores @ v_all[:end, cols]) / rowsum
    return out


def batched_tiles_equal_the_per_head_loop() -> int:
    """Compares the kernel's one-tile, capture-free path bit for bit with
    per_head_plain_tile over heads, widths, rows, cached rows and the shift;
    returns the number of cases. Keys and values sit in buffers with
    headroom, as the cache's do."""
    rng = np.random.default_rng(21)
    cases = 0
    for H in (1, 2, 4):
        for dk in (8, 16, 32, 256):
            d = H * dk
            pool = rng.standard_normal((3, 4097 + 64 + 600, d)).astype(np.float32) / np.float32(np.sqrt(dk))
            for rows in (1, 2, 7, 63, 64):
                for base in (0, 1, 63, 500, 4097):
                    end = base + rows
                    q, k_rot, v_all = (pool[i, : end + end // 8] for i in range(3))
                    q = np.ascontiguousarray(q[:rows])
                    for shift in (False, True):
                        out = np.empty((rows, d), np.float32)
                        modelcore._attend([0], None, None, rows, base, q, 0, k_rot, None, v_all,
                                          modelcore._ones(end), out, shift, (0, 0), H)
                        want = per_head_plain_tile(q, k_rot, v_all, base, H, shift)
                        case = (H, dk, rows, base, shift)
                        assert np.array_equal(out.view(np.uint32), want.view(np.uint32)), case
                        cases += 1
    return cases


def test_a_plain_tile_batched_over_heads_equals_the_per_head_loop_bitwise():
    assert batched_tiles_equal_the_per_head_loop() == 3 * 4 * 5 * 5 * 2


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_short_passes_take_the_batched_path(n_heads, monkeypatch):
    # exp2 runs once per tile on its (heads, rows, columns) scores when the
    # tile captures nothing and scores from the plain product, and once per
    # head on a (rows, columns) block when it adds into the capture
    calls = []

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp2(x, *args, **kwargs):
            calls.append(x.ndim)
            return np.exp2(x, *args, **kwargs)

    config = ModelConfig(n_layers=2, n_heads=n_heads, hidden_size=n_heads * 16, head_dim=16,
                         vocab_size=64, max_position=2048)
    model = init_random_model(config, seed=4)
    ids = random_ids(np.random.default_rng(10), config.vocab_size, 600)
    cache = KvCache.empty(config)
    prefill(model, cache, ids[:590])
    monkeypatch.setattr(modelcore, "np", Spy())
    prefill(model, cache, ids[590:599])  # the last layer attends over no rows
    assert calls == [3]
    calls.clear()
    decode_step(model, cache, int(ids[599]))
    assert calls == [3, 3]
    calls.clear()
    capture = prefill(model, KvCache.empty(config), ids[:9], observer_span=(2, 9))
    assert calls == [2] * (2 * n_heads)
    assert all(np.isclose(layer.sum(), 1.0) for layer in capture.layers)


def workload_digest() -> str:
    """SHA-256 of the cache, captures, query rows and logits of two
    eval-model prefills with observer spans over several tiles and one
    decode step, under the current TILE_WORKERS and SPLIT_MIN_SCORES."""
    model = init_random_model(default_eval_config(64), 5)
    ids = np.random.default_rng(5).integers(4, 64, size=1500)
    cache = KvCache.empty(model.config)
    prefill(model, cache, ids[:1000], observer_span=(300, 1000))
    capture = prefill(model, cache, ids[1000:-1], observer_span=(100, 499), query_span=(0, 499))
    h = hashlib.sha256()
    for a in (*cache.keys, *cache.values, *capture.layers, *capture.queries,
              decode_step(model, cache, int(ids[-1]))[0]):
        h.update(a.tobytes())
    return h.hexdigest()


def test_importing_modelcore_pins_blas_to_one_thread_and_gives_each_core_a_worker():
    blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    assert blas.scipy_openblas_get_num_threads64_() == 1
    assert modelcore.TILE_WORKERS == len(os.sched_getaffinity(0))


def no_library(path):
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [no_library, lambda path: types.SimpleNamespace()], ids=["no_handle", "no_symbol"])
def test_without_the_bundled_openblas_blas_is_left_alone_and_one_worker_runs(monkeypatch, cdll):
    # numpy linked against another BLAS: nothing to pin, so no tile runs
    # beside BLAS's own threads
    monkeypatch.setattr(modelcore.ctypes, "CDLL", cdll)
    assert modelcore._pin_blas() == 1


def test_one_blas_thread_gives_every_core_a_worker_and_the_same_bits(tile_workers):
    digests = []
    for workers in (modelcore.TILE_WORKERS, 1):
        tile_workers(workers)
        digests.append(workload_digest())
    assert digests[0] == digests[1], digests


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="BLAS runs one thread on one core whatever is set")
def test_no_bit_depends_on_the_blas_environment():
    # OpenBLAS takes its thread count from these variables when it loads,
    # a thread per core when none is set; the pin at import overrides both
    tests = str(Path(__file__).parent)
    src = str(Path(modelcore.__file__).parents[1])
    unset = {name: value for name, value in os.environ.items() if name not in BLAS_VARIABLES}
    unset["PYTHONPATH"] = os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])
    script = "import test_model; test_model.modelcore.SPLIT_MIN_SCORES = 0; print(test_model.workload_digest())"
    digests = []
    for env in (unset, dict(unset, OPENBLAS_NUM_THREADS="1")):
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert digests[0] == digests[1], digests


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


def assert_capture_is_a_distribution(layer, visible):
    # the mean of probability rows sums to 1; no row sees a column past `visible`
    assert abs(float(layer.sum(dtype=np.float64)) - 1.0) < 1e-5
    assert np.all(layer[visible:] == 0.0)


def test_capture_rows_are_causal_and_normalized(tiny_model):
    rng = np.random.default_rng(2)
    base_ids = random_ids(rng, tiny_model.config.vocab_size, 30)
    ids = random_ids(rng, tiny_model.config.vocab_size, 50)
    head = KvCache.empty(tiny_model.config)
    prefill(tiny_model, head, base_ids)
    capture = prefill(tiny_model, head.fork(), ids, observer_span=(10, 20))

    assert len(capture.layers) == tiny_model.config.n_layers
    assert capture.total_tokens == 80
    for layer in capture.layers:
        assert layer.shape == (80,)
        assert_capture_is_a_distribution(layer, 30 + 20)  # base + the last row's local index + self
    # one row at a time: each row is normalised and sees only its past, and
    # the span's capture is the mean of its rows' captures
    rows = []
    for row in range(10, 20):
        one = prefill(tiny_model, head.fork(), ids, observer_span=(row, row + 1))
        for layer in one.layers:
            assert_capture_is_a_distribution(layer, 30 + row + 1)
        rows.append(one.layers)
    for layer, got in enumerate(capture.layers):
        assert np.max(np.abs(got - np.mean([r[layer] for r in rows], axis=0))) < 1e-6


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

    head = KvCache.empty(config)
    prefill(model, head, ids[:base])
    assert_capture_matches_reference(model, head, ids[base : base + n], ref_attention, (lo, hi), 1e-5)
    cache = head.fork()
    prefill(model, cache, ids[base : base + n])
    logits, _ = decode_step(model, cache, ids[-1])
    assert np.max(np.abs(logits - ref_logits[-1])) < 1e-4


def assert_capture_matches_reference(model, head, ids, ref_attention, span, tol):
    """Prefill `ids` on forks of `head` and check the capture of `span`, and
    of one-row spans on both sides of the first layer's first tile edge,
    against the dense reference: each layer's vector is the reference rows
    averaged over heads and rows, within `tol`, and a distribution over the
    columns the last row sees."""
    base, n = head.length, len(ids)
    for lo, hi in (span, (ATTENTION_BLOCK - 1, ATTENTION_BLOCK), (ATTENTION_BLOCK, ATTENTION_BLOCK + 1)):
        capture = prefill(model, head.fork(), ids, observer_span=(lo, hi))
        for got, ref in zip(capture.layers, ref_attention):
            assert got.shape == (base + n,)
            want = ref[:, base + lo : base + hi, : base + n].mean(axis=(0, 1))
            assert np.max(np.abs(got - want)) < tol
            assert_capture_is_a_distribution(got, base + hi)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eval_ttft_and_diagnostic_models_attend_without_the_shift(seed):
    vocab_size = 1500 + 100 * seed
    for config in (default_eval_config(vocab_size), ttft_reference_config(vocab_size)):
        model = init_random_model(config, seed)
        assert 0 < model.score_bound <= SHIFT_FREE_BOUND
    # criterion 7's geometry; its q and k do not depend on the vocabulary
    vocab = build_vocabulary(["alpha beta gamma"])
    diagnostic = init_diagnostic_model(
        ModelConfig(n_layers=1, n_heads=1, hidden_size=256, head_dim=256,
                    vocab_size=len(vocab), max_position=40960, rotary_enabled=False),
        vocab,
    )
    assert diagnostic.score_bound == pytest.approx(24 * np.log2(np.e))


def test_score_bound_holds_for_the_scores_a_prefill_computes(tiny_model):
    cfg = tiny_model.config
    rng = np.random.default_rng(6)
    ids = random_ids(rng, cfg.vocab_size, 3 * ATTENTION_BLOCK)
    cache = KvCache.empty(cfg)
    capture = prefill(tiny_model, cache, ids, query_span=(0, len(ids)))
    dk = cfg.head_dim
    for layer, q in enumerate(capture.queries):
        k = cache.rotated_keys(layer, cfg)
        for h in range(cfg.n_heads):
            cols = slice(h * dk, (h + 1) * dk)
            scores = q[:, cols].astype(np.float64) @ k[:, cols].T * np.log2(np.e) / np.sqrt(dk)
            assert np.abs(scores).max() <= tiny_model.score_bound


def test_a_model_past_the_bound_keeps_the_shift(tiny_model):
    # q and k scaled by 12 multiply the bound by 144
    model = Model(tiny_model.config, {
        name: w * np.float32(12) if name.endswith(("q_proj", "k_proj")) else w
        for name, w in tiny_model.weights.items()
    })
    assert model.score_bound > SHIFT_FREE_BOUND
    rng = np.random.default_rng(7)
    base, n = 37, 2 * ATTENTION_BLOCK + 9
    lo, hi = 20, ATTENTION_BLOCK + 30
    ids = random_ids(rng, model.config.vocab_size, base + n + 1)
    ref_logits, ref_attention = reference_forward(model, ids)

    head = KvCache.empty(model.config)
    prefill(model, head, ids[:base])
    assert_capture_matches_reference(model, head, ids[base : base + n], ref_attention, (lo, hi), 1e-4)
    cache = head.fork()
    prefill(model, cache, ids[base : base + n])
    logits, _ = decode_step(model, cache, ids[-1])
    assert np.max(np.abs(logits - ref_logits[-1])) < 1e-4

    # the shift is what keeps these scores finite: without it exp2 overflows
    model.score_bound = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        capture = prefill(model, KvCache.empty(model.config), ids[:n], observer_span=(0, n))
    assert not np.all(np.isfinite(capture.layers[-1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_model_with_a_non_finite_weight_is_built_and_keeps_the_shift(tiny_model, bad):
    weights = dict(tiny_model.weights)
    weights["layers.1.q_proj"] = weights["layers.1.q_proj"].copy()
    weights["layers.1.q_proj"][3, 5] = bad
    assert Model(tiny_model.config, weights).score_bound == np.inf


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


@pytest.mark.parametrize("obs_span, q_span", [((20, 40), (130, 140)), ((150, 170), (70, 80)), ((100, 101), None)])
def test_last_layer_queries_cover_only_the_spans_and_match_the_reference(obs_span, q_span):
    # the last layer projects queries only for rows covering both spans, and
    # rotates them from that first row's position: its query capture of a
    # span mid-sequence, after a cached head, matches float64, and its
    # captures are bitwise what a projection of every row gives. Width 64,
    # where numpy computes a one-row product by gemv, which rounds otherwise.
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=64, head_dim=32, vocab_size=64, max_position=2048)
    model = init_random_model(config, seed=6)
    rng = np.random.default_rng(8)
    base, n = 50, 200
    ids = random_ids(rng, 64, base + n)
    ref_queries = []
    reference_forward(model, ids, queries=ref_queries)

    head = KvCache.empty(config)
    prefill(model, head, ids[:base])
    capture = prefill(model, head.fork(), ids[base:], observer_span=obs_span, query_span=q_span)
    every_row = prefill(model, head.fork(), ids[base:], observer_span=obs_span, query_span=(0, n))
    for got, want in zip(capture.layers, every_row.layers):
        assert np.array_equal(got, want)
    if q_span is not None:
        got = capture.queries[-1]
        assert got.shape == (q_span[1] - q_span[0], config.hidden_size)
        assert np.max(np.abs(got - ref_queries[-1][base + q_span[0] : base + q_span[1]])) < 1e-5
        assert np.array_equal(got, every_row.queries[-1][q_span[0] : q_span[1]])


def rmsnorm_expression(x, gain):
    inv = 1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + np.float32(1e-6))
    return (x * inv * gain).astype(np.float32, copy=False)


def gelu_expression(x):
    c = np.float32(np.sqrt(2.0 / np.pi))
    return np.float32(0.5) * x * (np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x)))


@pytest.mark.parametrize("rows", [1, 5, 4096])
@pytest.mark.parametrize("width", [3, 32, 48, 256, 1000])
def test_rmsnorm_mean_equals_np_mean_bitwise(rows, width):
    """_rmsnorm's mean, a sum divided by the width, is bitwise np.mean."""
    rng = np.random.default_rng(rows * width)
    x = (rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-3, 4, (rows, 1))).astype(np.float32)
    gain = rng.uniform(0.5, 2.0, width).astype(np.float32)
    got = modelcore._rmsnorm(x, gain)
    assert np.array_equal(got.view(np.uint32), rmsnorm_expression(x, gain).view(np.uint32))


@pytest.mark.parametrize("rows", [1, 3, 257])
def test_in_place_rmsnorm_and_gelu_equal_the_expression_forms_bitwise(rows):
    # magnitudes from 1e-3 to 1e15, so that x**3 and the squares overflow
    rng = np.random.default_rng(rows)
    d = 96
    x = (rng.standard_normal((rows, 4 * d)) * 10.0 ** rng.uniform(-3, 15, (rows, 4 * d))).astype(np.float32)
    gain = rng.uniform(-2, 2, d).astype(np.float32)
    with np.errstate(over="ignore"):
        for part in (x[:, :d], x[:, d : 2 * d] * np.float32(1e-12)):
            got = modelcore._rmsnorm(part, gain)
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), rmsnorm_expression(part, gain).view(np.uint32))
        want = gelu_expression(x)
        arg = x.copy()
        got = modelcore._gelu(arg)
    assert got is arg
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prefill_holds_few_full_width_arrays():
    # U is one (S, d) float32 array. A one-layer prefill holds the cache's
    # keys and values with an eighth of headroom (2.25 U) and no whole input
    # or normed copy: its prologue gathers, norms in place and projects one
    # MLP row block at a time (U at S = MLP_BLOCK, U / 8 at 8 * MLP_BLOCK)
    # and keeps only the normed query rows. Queries, the score tile (U / 4
    # at width 256) and the capture are small; each head frees its plain
    # product before the next head's allocates (at 4 heads the two overlapped
    # for 2.77 U, 2.55 U without). Full queries and K/V
    # temporaries took 7.25 U, a whole normed copy beside the cache 3.3 U.
    # At S = 1,024 the 100 observer rows span two tiles, so the last layer
    # also holds its (d, S) key panel (U) and score buffer; at 8 * MLP_BLOCK
    # they are 60 rows in one tile, as compression's guidance rows are.
    rng = np.random.default_rng(9)
    S8 = 8 * MLP_BLOCK
    for S, d, heads, layers, rotary, bound in (
            (1024, 512, 4, 1, False, 3.6), (1024, 512, 4, 2, False, 13.0), (1024, 512, 4, 1, True, 4.8),
            (S8, 256, 1, 1, False, 2.9), (S8, 256, 4, 1, False, 2.7),
            (S8, 256, 1, 1, True, 4.5), (S8, 256, 4, 1, True, 4.5)):
        config = ModelConfig(n_layers=layers, n_heads=heads, hidden_size=d, head_dim=d // heads,
                             vocab_size=64, max_position=2 * S, rotary_enabled=rotary)
        model = init_random_model(config, seed=layers)
        ids = random_ids(rng, 64, S)
        cache = KvCache.empty(config)
        if rotary:
            # the long-lived cos/sin table (1.125 U here) is not the pass's
            modelcore._rotary_table(config, S)
        unit = S * d * 4
        obs = (900, 1000) if S == 1024 else (S - 200, S - 140)
        peak = traced_peak(lambda: prefill(model, cache, ids, observer_span=obs, query_span=(obs[1], S)))
        # two layers: the first one's MLP holds the cache (2.25 U), the hidden
        # states (U), the (S, 4d) fc1 output and one GELU temporary of that
        # size (8 U); a second GELU temporary would take the peak to 15.25 U.
        # Rotary on adds the rotated-key shadow (1.125 U) and the fresh rows
        # `rotate` returns before they are copied into it (U); with a whole
        # normed copy beside them it took 5.38 U.
        assert peak < bound * unit, (S, heads, layers, rotary, peak / unit)
        assert cache.length == S


@pytest.mark.parametrize("width", [32, 64])
@pytest.mark.parametrize("S", [2 * MLP_BLOCK + 1, 3 * MLP_BLOCK + 63, 4 * MLP_BLOCK])
def test_mlp_row_blocks_equal_the_whole_mlp_bitwise(S, width, monkeypatch):
    # A prefill runs its first layer's MLP over S // MLP_BLOCK row blocks of
    # at least MLP_BLOCK rows each; with MLP_BLOCK = S it runs one block, the
    # whole MLP. 2 * MLP_BLOCK + 1 rows is where blocks cut at multiples of
    # MLP_BLOCK would leave a one-row block, whose gemv rounds differently.
    if width == 32:
        config = default_eval_config(64)
    else:
        config = ModelConfig(n_layers=2, n_heads=2, hidden_size=64, head_dim=32,
                             vocab_size=64, max_position=2 * S)
    assert config.hidden_size == width and config.n_layers == 2
    model = init_random_model(config, seed=4)
    ids = random_ids(np.random.default_rng(S), config.vocab_size, S + 1)

    def run():
        cache = KvCache.empty(config)
        capture = prefill(model, cache, ids[:S], observer_span=(S - 300, S - 100), query_span=(S - 100, S))
        arrays = [capture.layers[0], capture.layers[1], *capture.queries]
        for layer in range(config.n_layers):
            arrays += [cache.keys[layer], cache.values[layer], cache.rotated_keys(layer, config)]
        return arrays + [decode_step(model, cache, ids[S])[0]]

    blocks = run()
    monkeypatch.setattr(modelcore, "MLP_BLOCK", S)
    whole = run()
    for a, b in zip(blocks, whole, strict=True):
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


@pytest.mark.parametrize("layers, rotary", [(1, False), (1, True), (2, True)])
def test_streamed_prologue_equals_the_whole_prologue_bitwise(layers, rotary, monkeypatch):
    # A prefill's last layer norms and projects its rows block by block, over
    # the MLP's row blocks, gathering a one-layer model's embedding rows per
    # block; with MLP_BLOCK at S it does so over all rows at once.
    # The spans straddle the edge between the two blocks of 2 * MLP_BLOCK + 1
    # rows, so the query rows come from both.
    S = 2 * MLP_BLOCK + 1
    config = ModelConfig(n_layers=layers, n_heads=2, hidden_size=64, head_dim=32,
                         vocab_size=64, max_position=2 * S, rotary_enabled=rotary)
    model = init_random_model(config, seed=5)
    ids = random_ids(np.random.default_rng(S), config.vocab_size, S + 1)
    edge = S // 2

    def run():
        cache = KvCache.empty(config)
        capture = prefill(model, cache, ids[:S], observer_span=(edge - 150, edge + 50),
                          query_span=(edge - 20, edge + 100))
        arrays = [*capture.layers, *capture.queries]
        for layer in range(config.n_layers):
            arrays += [cache.keys[layer], cache.values[layer], cache.rotated_keys(layer, config)]
        return arrays + [decode_step(model, cache, ids[S])[0]]

    blocks = run()
    monkeypatch.setattr(modelcore, "MLP_BLOCK", S)
    whole = run()
    for a, b in zip(blocks, whole, strict=True):
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_prefill_mlp_arrays_do_not_grow_with_the_sequence():
    # U is one (S, d) float32 array, here 1 MiB. The peak, 8.3 U, is layer
    # 0's attention: the cache's keys and values with headroom (2.25 U) and
    # the hidden states, queries, attention output, key panels, score buffer
    # (ATTENTION_BLOCK x about S floats, U at width 64) and o_proj product
    # (U each). Its MLP holds the cache, the hidden states and one block's
    # fc1 output and GELU temporary (U each, as MLP_BLOCK = S / 4): 5.3 U.
    # The second layer holds both layers' caches (4.5 U) and the hidden
    # states, which it norms in place. An MLP over all S rows at once held
    # 4 U per (S, 4d) array and peaked at 12.3 U.
    S, d = 4 * MLP_BLOCK, 64
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=d, head_dim=d // 2,
                         vocab_size=64, max_position=2 * S, rotary_enabled=False)
    model = init_random_model(config, seed=2)
    ids = random_ids(np.random.default_rng(9), 64, S)
    cache = KvCache.empty(config)
    peak = traced_peak(lambda: prefill(model, cache, ids, observer_span=(900, 1000)))
    assert peak < 9.5 * S * d * 4, peak / (S * d * 4)
    assert cache.length == S


def test_a_second_worker_holds_one_more_score_buffer(tile_workers):
    # The caller allocates each worker's score buffer, ATTENTION_BLOCK x
    # (columns + 32) floats, and frees them all before the MLP; the workers'
    # other temporaries are a tile's size. A few hundred bytes of thread
    # objects come on top.
    S, d = 4 * MLP_BLOCK, 64
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=d, head_dim=d // 2,
                         vocab_size=64, max_position=2 * S, rotary_enabled=False)
    model = init_random_model(config, seed=2)
    ids = random_ids(np.random.default_rng(9), 64, S)
    peaks = {}
    for workers in (1, 2):
        tile_workers(workers)
        peaks[workers] = traced_peak(lambda: prefill(model, KvCache.empty(config), ids))
    buffer = ATTENTION_BLOCK * (S + 32) * 4
    assert peaks[2] - peaks[1] <= buffer + 1024, (peaks[2] - peaks[1]) / buffer


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


def assert_adopted_shadow_exact(model, cache, compressed, ids):
    """The shadow of a cache built from `compressed`, then prefilled with
    `ids`, is the compressed keys followed by the new rows' keys rotated to
    their positions. The new keys are a reference cache's that takes the
    compressed keys as its shadow, as its unrotated rows below n_kept,
    zero here, are never read."""
    n = compressed.n_kept
    ref = KvCache([np.zeros_like(k) for k in compressed.keys], compressed.values, compressed.keys)
    prefill(model, ref, ids)
    assert cache.length == ref.length
    for layer in range(model.config.n_layers):
        shadow = cache.rotated_keys(layer, model.config)
        assert np.array_equal(shadow[:n], compressed.keys[layer])
        assert np.array_equal(shadow[n:], rotate(ref.keys[layer][n:], n, model.config))


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
    rotated-key shadow included. The compressed cache that compression
    returns holds arrays of exactly n_kept rows, not views into a cache's
    headroom; the loaded one's are read-only views of the mapped file that
    the question, written into that file's headroom rows, leaves as they
    were."""
    path = tmp_path / "c.kvcc"
    compressed = compress_iterative(small_model, small_bundle.corpus_tokens(), make_guidance("zs", []),
                                    small_bundle.vocab, CompressionBudget(320), s=2)
    save_cache(compressed, path)
    grown_calls.clear()
    loaded = load_cache(path, small_model)
    cache = loaded.to_kv_cache()
    n = loaded.n_kept
    ids = random_ids(np.random.default_rng(13), small_model.config.vocab_size, n // 8)
    prefill(small_model, cache, ids)
    assert cache.length == n + n // 8
    assert grown_calls == []
    assert_adopted_shadow_exact(small_model, cache, compressed, ids)
    for a in (*compressed.keys, *compressed.values):
        root = a
        while isinstance(root.base, np.ndarray):
            root = root.base
        assert a.shape[0] == compressed.n_kept and root.nbytes == a.nbytes
    for got, want in zip((*loaded.keys, *loaded.values), (*compressed.keys, *compressed.values)):
        assert not got.flags.writeable and np.array_equal(got, want)


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


@pytest.mark.parametrize("rotary", [True, False])
def test_reading_a_complete_shadow_calls_no_rotate(rotary, monkeypatch):
    """Only rows a shadow lacks are handed to ``rotate``: a complete shadow,
    or a rotary-off model's keys, read without a call."""
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16, vocab_size=64,
                         max_position=2048, rotary_enabled=rotary)
    model = init_random_model(config, seed=2)
    cache = KvCache.empty(config)
    prefill(model, cache, random_ids(np.random.default_rng(16), 64, 70))
    calls = []

    def counted(mat, start, cfg):
        calls.append(mat.shape[0])
        return rotate(mat, start, cfg)

    monkeypatch.setattr(modelcore, "rotate", counted)
    for layer in range(config.n_layers):
        cache.rotated_keys(layer, config)
    assert calls == []
    decode_step(model, cache, 5)  # one query row per layer, and one key row when rotary
    assert calls == [1, 1] * config.n_layers if rotary else [1] * config.n_layers


@pytest.mark.parametrize("from_disk", [False, True])
def test_a_question_on_a_compressed_cache_rotates_only_its_rows(small_bundle, small_model, tmp_path,
                                                                monkeypatch, from_disk):
    """A rotary model's compressed cache holds its survivors' rotated keys,
    in memory and through a KVCC file, so a cache built from it has a
    complete shadow and a question prefilled on it rotates only the
    question's rows, from position n_kept on."""
    compressed = compress_iterative(small_model, small_bundle.corpus_tokens(), make_guidance("zs", []),
                                    small_bundle.vocab, CompressionBudget(320), s=2)
    if from_disk:
        save_cache(compressed, tmp_path / "c.kvcc")
        compressed = load_cache(tmp_path / "c.kvcc", small_model)
    calls = []

    def counted(mat, start, cfg):
        if mat.shape[0]:
            calls.append((start, mat.shape[0]))
        return rotate(mat, start, cfg)

    monkeypatch.setattr(modelcore, "rotate", counted)
    cache = compressed.to_kv_cache()
    assert_adopted_shadow_exact(small_model, cache, compressed, [])
    assert calls == []
    n = compressed.n_kept
    ids = random_ids(np.random.default_rng(14), small_model.config.vocab_size, 9)
    prefill(small_model, cache, ids)
    assert calls and all(call == (n, 9) for call in calls)
    assert_adopted_shadow_exact(small_model, cache, compressed, ids)


# the geometry of hand_compressed's rows
HAND_CONFIG = ModelConfig(n_layers=2, n_heads=2, hidden_size=64, head_dim=32, vocab_size=64, max_position=2048)


def hand_compressed(n=1000):
    """A compressed cache of n random rows per layer of HAND_CONFIG."""
    rng = np.random.default_rng(15)
    layers, d = HAND_CONFIG.n_layers, HAND_CONFIG.hidden_size
    keys, values = ([rng.standard_normal((n, d)).astype(np.float32) for _ in range(layers)] for _ in "kv")
    meta = CacheMeta(b"\x01" * 32, b"\x02" * 32, b"\x03" * 32, n, n, 1, "streaming")
    return CompressedCache(keys, values, [np.arange(n)] * layers, meta)


@pytest.mark.parametrize("from_disk", [False, True])
def test_an_answer_cache_refuses_to_read_or_fork_its_keys(tmp_path, from_disk):
    """A cache built from a compressed cache, on the mapped file or on
    copies, holds its keys rotated: reading them unrotated or forking it
    raises UsageError, while its values and rotated keys read as stored."""
    compressed = hand_compressed()
    if from_disk:
        save_cache(compressed, tmp_path / "c.kvcc")
        compressed = load_cache(tmp_path / "c.kvcc")
    cache = compressed.to_kv_cache()
    for read in (lambda: cache.keys, cache.fork, lambda: cache.fork(ATTENTION_BLOCK)):
        with pytest.raises(UsageError, match="rotated keys"):
            read()
    for layer in range(HAND_CONFIG.n_layers):
        assert np.array_equal(cache.values[layer], compressed.values[layer])
        assert np.array_equal(cache.rotated_keys(layer, HAND_CONFIG), compressed.keys[layer])
        assert np.shares_memory(cache.values[layer], compressed.values[layer]) == from_disk


def test_a_copied_answer_cache_allocates_two_buffers_per_layer(grown_calls):
    """to_kv_cache of a compressed cache in memory copies each layer's keys
    and values into a buffer with an eighth of headroom, and the key buffer
    is its own rotated-key shadow: two buffers per layer, where a separate
    shadow made three. A question of an eighth of the rows then fits."""
    compressed = hand_compressed(1000)
    buffer = (1000 + 1000 // 8) * HAND_CONFIG.hidden_size * 4
    tracemalloc.start()
    try:
        cache = compressed.to_kv_cache()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 4 * buffer <= held < 4.1 * buffer, held / buffer
    model = init_random_model(HAND_CONFIG, seed=6)
    ids = random_ids(np.random.default_rng(16), HAND_CONFIG.vocab_size, 1000 // 8)
    prefill(model, cache, ids)
    assert grown_calls == []
    assert_adopted_shadow_exact(model, cache, compressed, ids)


def test_gathered_caches_decode_like_a_fresh_prefill(tiny_model):
    rng = np.random.default_rng(8)
    ids = np.array(random_ids(rng, 64, 700))
    fresh = KvCache.empty(tiny_model.config)
    prefill(tiny_model, fresh, ids[:350])
    prefill(tiny_model, fresh, ids[350:])
    # a keep-all rule: the walk gathers every row after the first segment
    walked = _walk(tiny_model, ids, CompressionBudget(700), 2,
                   lambda capture, cache, n, r: [np.arange(n)] * len(cache.keys), b"", "walk")
    rotated = [fresh.rotated_keys(layer, tiny_model.config) for layer in range(tiny_model.config.n_layers)]
    loaded = CompressedCache(rotated, fresh.values, walked.kept_positions, walked.meta)
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


def test_generate_greedy_contract(tiny_model, monkeypatch):
    cache = KvCache.empty(tiny_model.config)
    prefill(tiny_model, cache, [5, 6, 7])
    params = GenerationParams(max_new_tokens=5)
    monkeypatch.setattr(GenerationParams, "stop_tokens", ())
    out = generate_greedy(tiny_model, cache.fork(), [8, 9], params)
    assert len(out.ids) == 5

    # the first generated token becomes a stop token -> empty output
    monkeypatch.setattr(GenerationParams, "stop_tokens", (out.ids[0],))
    again = generate_greedy(tiny_model, cache.fork(), [8, 9], params)
    assert again.ids == []

    with pytest.raises(UsageError):
        generate_greedy(tiny_model, cache.fork(), [], params)


def test_greedy_ties_resolve_to_lowest_id(monkeypatch):
    # diagnostic head is all zeros: every logit ties, argmax must pick id 0
    vocab = build_vocabulary(["alpha beta gamma delta"])
    config = ModelConfig(n_layers=1, n_heads=1, hidden_size=64, head_dim=64,
                         vocab_size=len(vocab), max_position=64)
    model = init_diagnostic_model(config, vocab)
    cache = KvCache.empty(model.config)
    monkeypatch.setattr(GenerationParams, "stop_tokens", ())
    out = generate_greedy(model, cache, [4, 5], GenerationParams(max_new_tokens=3))
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
    row = capture.layers[0]  # one head and one observer row: that row itself
    assert row.shape == (len(ids),)
    # the two id-5 columns split nearly all the mass between them
    assert row[1] + row[6] > 0.99
    assert np.all(row[[0, 2, 3, 4, 5]] < 1e-4)
    # a token with no match elsewhere falls back to itself, then the sink
    cache2 = KvCache.empty(config)
    ids2 = [2, 4, 5, 6, 10]  # leading separator is the sink
    capture2 = prefill(model, cache2, ids2, observer_span=(4, 5))
    row2 = capture2.layers[0]
    assert row2.argmax() == 4  # self-match dominates
    assert row2[0] > max(row2[1], row2[2], row2[3])  # sink beats non-matches
