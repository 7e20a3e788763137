"""KVCC container round trips and structural validation."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from kvcbench.cachefile import HEADER, METHOD_CODES, VERSION, load_cache, save_cache
from kvcbench.compress import (
    CacheMeta,
    CompressedCache,
    CompressionBudget,
    GuidancePrompt,
    compress_iterative,
    compress_oracle,
)
from kvcbench.errors import FormatError, MissingArtifactError, StaleCacheError, UsageError
from kvcbench.evalharness import COMPRESSED_METHODS
from kvcbench.modelcore import ModelConfig, decode_step, init_random_model, prefill
from kvcbench.vocab import build_vocabulary, tokenize

from conftest import random_ids

VOCAB = build_vocabulary([
    "the red fox sat near the old barn and watched the quiet road",
    "a small dog ran across the field toward the river bank",
])


def make_compressed(seed=0, k=6, method="kvc_zs", rotary=True):
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                         vocab_size=len(VOCAB), max_position=512, rotary_enabled=rotary)
    model = init_random_model(config, seed)
    rng = np.random.default_rng(seed + 10)
    ctx = random_ids(rng, len(VOCAB), 24)
    guidance = GuidancePrompt(kind="zs", description="answer questions about the passage")
    if method == "kvc_zs":
        comp = compress_iterative(model, ctx, guidance, VOCAB, CompressionBudget(k), s=2)
    else:
        comp = compress_oracle(model, ctx, guidance, VOCAB, k)
    return model, comp


@pytest.fixture()
def saved(tmp_path):
    model, comp = make_compressed()
    path = tmp_path / "ctx.kvcc"
    save_cache(comp, path)
    return model, comp, path


def test_round_trip_bit_identical(saved):
    model, comp, path = saved
    loaded = load_cache(path, model)
    assert loaded.n_kept == comp.n_kept
    for layer in range(2):
        assert np.array_equal(loaded.keys[layer], comp.keys[layer])
        assert np.array_equal(loaded.values[layer], comp.values[layer])
        assert np.array_equal(loaded.kept_positions[layer], comp.kept_positions[layer])
    m = loaded.meta
    assert m.model_fingerprint == comp.meta.model_fingerprint
    assert m.guidance_fingerprint == comp.meta.guidance_fingerprint
    assert m.corpus_fingerprint == comp.meta.corpus_fingerprint
    assert (m.n_context, m.k, m.s, m.method) == (24, 6, 2, "kvc_zs")


# the header, after the frame (8 bytes), the fingerprints (96) and the
# geometry (33), ends at this byte
HEADER_END = 137


def layout_size(n, d, layers=2):
    """The size of a v5 file, laid out as v4: after the header, per layer the positions and
    the K and V arrays of n + n // 8 rows, each at a multiple of 64."""
    size = HEADER_END
    for _ in range(layers):
        size = -(-size // 64) * 64 + 4 * n
        for _ in range(2):
            size = -(-size // 64) * 64 + (n + n // 8) * 4 * d
    return size


def assert_layout_of_16_rows(raw, comp):
    """16 kept rows of width 32: each layer holds 64 bytes of positions and
    the K and V arrays of 16 + 2 rows of 128 bytes, each starting at a
    multiple of 64 bytes, with the last two rows zero."""
    assert struct.unpack("<I", raw[4:8]) == (VERSION,) and 8 + HEADER.size == HEADER_END
    assert len(raw) == layout_size(16, 32) == 192 + 2 * (64 + 2 * 18 * 128)
    for layer in range(2):
        start = 192 + layer * (64 + 2 * 18 * 128)
        assert np.array_equal(np.frombuffer(raw, "<u4", 16, start), comp.kept_positions[layer])
        for i, rows in enumerate((comp.keys, comp.values)):
            at = start + 64 + i * 18 * 128
            assert np.array_equal(np.frombuffer(raw, "<f4", 16 * 32, at), rows[layer].ravel())
            assert not any(raw[at + 16 * 128 : at + 18 * 128])


def test_v3_round_trip_keeps_rotated_keys_bitwise(saved):
    """The rotated keys v3 stored beside the plain ones are, at v4, the only
    keys: the file holds the compressor's rotated keys bitwise, and a cache
    built from the loaded file serves them as its rotated keys unchanged."""
    model, comp, path = saved
    raw = path.read_bytes()
    assert struct.unpack("<I", raw[4:8]) == (VERSION,)
    assert len(raw) == layout_size(comp.n_kept, 32)
    loaded = load_cache(path, model)
    cache = loaded.to_kv_cache()
    for layer in range(2):
        assert np.array_equal(loaded.keys[layer], comp.keys[layer])
        assert np.array_equal(cache.rotated_keys(layer, model.config)[: comp.n_kept], comp.keys[layer])
        assert np.array_equal(loaded.values[layer], comp.values[layer])
        assert np.array_equal(loaded.kept_positions[layer], comp.kept_positions[layer])


def test_rotary_off_cache_writes_no_rotated_payload(tmp_path):
    """Rotary off, the file has the rotary-on layout, with no further array,
    and the loaded cache answers bitwise like the compressor's."""
    model, comp = make_compressed(k=16, rotary=False)
    assert comp.n_kept == 16
    path = tmp_path / "plain.kvcc"
    save_cache(comp, path)
    assert_layout_of_16_rows(path.read_bytes(), comp)
    loaded = load_cache(path, model)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.keys, comp.keys))
    assert_answers_alike(model, [comp.to_kv_cache(), loaded.to_kv_cache()])


def test_v3_layout_aligns_every_array_and_adds_headroom_rows(tmp_path):
    """The aligned layout with headroom rows that v3 brought in, at v4 less
    the rotated array: the header ends at byte 137, every array of the
    loaded cache is aligned and the cache answers bitwise like the one the
    compressor returned."""
    model, comp = make_compressed(k=16)
    assert comp.n_kept == 16
    path = tmp_path / "c.kvcc"
    save_cache(comp, path)
    assert_layout_of_16_rows(path.read_bytes(), comp)
    loaded = load_cache(path, model)
    assert all(a.ctypes.data % 64 == 0 for a in (*loaded.keys, *loaded.values))
    assert_answers_alike(model, [comp.to_kv_cache(), loaded.to_kv_cache()])


def test_empty_file_is_damage(tmp_path):
    (tmp_path / "empty.kvcc").write_bytes(b"")
    with pytest.raises(FormatError, match="unexpected end of container at byte 0"):
        load_cache(tmp_path / "empty.kvcc")


def assert_answers_alike(model, caches, steps=20):
    """Prefill one question on each cache, then decode `steps` tokens on
    them in turn, feeding each step's argmax of the first cache to all;
    every logit vector must be bitwise the first cache's."""
    ids = tokenize("the red fox sat near the barn", VOCAB).ids
    for cache in caches:
        prefill(model, cache, ids[:-1])
    tok = ids[-1]
    for _ in range(steps):
        logits = [decode_step(model, cache, tok)[0] for cache in caches]
        assert all(np.array_equal(got, logits[0]) for got in logits[1:])
        tok = int(np.argmax(logits[0]))


def test_first_kv_cache_of_a_loaded_cache_runs_on_the_mapping(tmp_path):
    """The first to_kv_cache of a loaded cache shares the loaded arrays'
    memory, a second one does not, and both answer bitwise like the cache
    the compressor returned while the loaded rows stay as they were."""
    model, comp = make_compressed(k=16)
    path = tmp_path / "c.kvcc"
    save_cache(comp, path)
    loaded = load_cache(path, model)
    first, second = loaded.to_kv_cache(), loaded.to_kv_cache()
    cfg = model.config
    for layer in range(2):
        for rows, mapped, copied in (
            (loaded.keys[layer], first.rotated_keys(layer, cfg), second.rotated_keys(layer, cfg)),
            (loaded.values[layer], first.values[layer], second.values[layer]),
        ):
            assert not rows.flags.writeable
            assert np.shares_memory(rows, mapped) and not np.shares_memory(rows, copied)
    assert_answers_alike(model, [comp.to_kv_cache(), first, second])
    for got, want in zip((*loaded.keys, *loaded.values), (*comp.keys, *comp.values)):
        assert np.array_equal(got, want)
    assert all(np.shares_memory(a, b) for a, b in zip(replace(loaded).keys, loaded.keys))
    assert replace(loaded)._mapped is None


def test_saving_over_a_loaded_path_leaves_its_answer_alone(tmp_path):
    model, comp = make_compressed(k=16)
    _, other = make_compressed(seed=3, k=16)
    path = tmp_path / "c.kvcc"
    save_cache(comp, path)
    loaded = load_cache(path, model)
    save_cache(other, path)
    assert_answers_alike(model, [comp.to_kv_cache(), loaded.to_kv_cache()])
    assert not np.array_equal(load_cache(path).keys[0], comp.keys[0])


def test_save_is_deterministic(tmp_path):
    _, comp = make_compressed()
    a, b = tmp_path / "a.kvcc", tmp_path / "b.kvcc"
    save_cache(comp, a)
    save_cache(comp, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_without_model_skips_identity_check(saved):
    _, comp, path = saved
    loaded = load_cache(path)
    assert loaded.meta.model_fingerprint == comp.meta.model_fingerprint


def test_load_with_wrong_model_is_stale(saved):
    _, _, path = saved
    other = init_random_model(
        ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                    vocab_size=len(VOCAB), max_position=512), seed=99)
    with pytest.raises(StaleCacheError, match="different model"):
        load_cache(path, other)


def test_oracle_method_round_trips(tmp_path):
    model, comp = make_compressed(method="oracle")
    path = tmp_path / "o.kvcc"
    save_cache(comp, path)
    assert load_cache(path, model).meta.method == "oracle"


def test_method_codes_follow_the_method_table(saved, tmp_path):
    """Every method ``kvc compress`` can build has a code byte, and each
    keeps the code v5 gave it."""
    model, comp, path = saved
    codes = {"kvc_zs": 0, "kvc_fs": 1, "kvc_fsq": 2, "streaming": 3, "snapkv": 4, "expattn": 5, "oracle": 6}
    assert set(METHOD_CODES) == set(COMPRESSED_METHODS) == set(codes)
    for method, code in codes.items():
        save_cache(CompressedCache(comp.keys, comp.values, comp.kept_positions,
                                   replace(comp.meta, method=method)), path)
        assert path.read_bytes()[120] == code
        assert load_cache(path, model).meta.method == method


def test_missing_file(tmp_path):
    with pytest.raises(MissingArtifactError):
        load_cache(tmp_path / "absent.kvcc")


def corrupt(path, tmp_path, mutate):
    raw = bytearray(path.read_bytes())
    mutate(raw)
    bad = tmp_path / "bad.kvcc"
    bad.write_bytes(bytes(raw))
    return bad


def test_bad_magic(saved, tmp_path):
    _, _, path = saved
    bad = corrupt(path, tmp_path, lambda raw: raw.__setitem__(slice(0, 4), b"KVCX"))
    with pytest.raises(FormatError, match="not a KVCC container"):
        load_cache(bad)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 9])
def test_bad_version(saved, tmp_path, version):
    """Only the version save_cache writes loads: an older cache is rebuilt
    with ``kvc compress``."""
    _, _, path = saved
    bad = corrupt(path, tmp_path, lambda raw: raw.__setitem__(slice(4, 8), struct.pack("<I", version)))
    with pytest.raises(FormatError, match=rf"unsupported KVCC version {version} \(expected 5\)"):
        load_cache(bad)


@pytest.mark.parametrize("code", [7, 99, 255])
def test_unknown_method_code(saved, tmp_path, code):
    _, _, path = saved
    assert len(METHOD_CODES) == 7
    bad = corrupt(path, tmp_path, lambda raw: raw.__setitem__(120, code))
    with pytest.raises(FormatError, match=f"unknown method code {code}"):
        load_cache(bad)


def test_zero_layers_rejected(saved, tmp_path):
    _, _, path = saved
    bad = corrupt(path, tmp_path,
                  lambda raw: raw.__setitem__(slice(121, 125), struct.pack("<I", 0)))
    with pytest.raises(FormatError, match="implausible geometry"):
        load_cache(bad)


def test_zero_kept_rows_rejected_before_the_layers(tmp_path):
    """With no kept row a layer takes no bytes, so nothing but the geometry
    check bounds a claimed layer count: this 192-byte file claims 100,000."""
    header = HEADER.pack(b"\x01" * 32, b"\x02" * 32, b"\x03" * 32, 10, 1, 1, 0, 100_000, 0, 8)
    raw = b"KVCC" + struct.pack("<I", VERSION) + header
    path = tmp_path / "zero.kvcc"
    path.write_bytes(raw + bytes(-len(raw) % 64))
    assert path.stat().st_size == 192
    with pytest.raises(FormatError, match=r"implausible geometry \(100000 layers, 0 kept rows"):
        load_cache(path)


def test_truncation(saved, tmp_path):
    _, _, path = saved
    raw = path.read_bytes()
    bad = tmp_path / "short.kvcc"
    bad.write_bytes(raw[:-5])
    with pytest.raises(FormatError, match="unexpected end of container"):
        load_cache(bad)


def test_trailing_bytes(saved, tmp_path):
    _, _, path = saved
    bad = tmp_path / "long.kvcc"
    bad.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing bytes"):
        load_cache(bad)


def hand_cache(positions, method="snapkv"):
    n_kept = len(positions)
    meta = CacheMeta(model_fingerprint=b"\x01" * 32, guidance_fingerprint=b"\x02" * 32,
                     corpus_fingerprint=b"\x03" * 32, n_context=10, k=n_kept, s=1,
                     method=method)
    rows = np.zeros((n_kept, 8), dtype=np.float32)
    pos = np.asarray(positions, dtype=np.int64)
    return CompressedCache([rows.copy()], [rows.copy()], [pos], meta)


@pytest.mark.parametrize("positions", [[3, 2, 5], [1, 1, 4], [2, 4, 10]])
def test_invalid_positions_rejected_on_load(tmp_path, positions):
    # the writer trusts its input; the loader must not
    path = tmp_path / "hand.kvcc"
    save_cache(hand_cache(positions), path)
    with pytest.raises(FormatError, match="kept positions"):
        load_cache(path)


def test_valid_hand_cache_loads(tmp_path):
    path = tmp_path / "hand.kvcc"
    save_cache(hand_cache([0, 4, 9]), path)
    loaded = load_cache(path)
    assert loaded.kept_positions[0].tolist() == [0, 4, 9]
    assert loaded.meta.method == "snapkv"


@pytest.mark.parametrize("field, name", [("k", "budget k"), ("s", "segment count s")])
def test_header_fields_past_u32_refused_on_save(tmp_path, field, name):
    """k and s are u32 in the header: one past the limit is the caller's error."""
    comp = hand_cache([0, 1, 2])
    fits = replace(comp, meta=replace(comp.meta, **{field: (1 << 32) - 1}))
    save_cache(fits, tmp_path / "fits.kvcc")
    assert getattr(load_cache(tmp_path / "fits.kvcc").meta, field) == (1 << 32) - 1
    past = replace(comp, meta=replace(comp.meta, **{field: 1 << 32}))
    with pytest.raises(UsageError, match=f"{name} = {1 << 32} does not fit"):
        save_cache(past, tmp_path / "x.kvcc")
    assert not (tmp_path / "x.kvcc").exists()


def test_unknown_method_refused_on_save(tmp_path):
    """A method without a code byte is the caller's error, not damage."""
    comp = hand_cache([0, 1, 2], method="proportional")
    with pytest.raises(UsageError, match="unknown method 'proportional'"):
        save_cache(comp, tmp_path / "x.kvcc")
    assert not (tmp_path / "x.kvcc").exists()
