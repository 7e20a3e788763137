"""KVCC container round trips and structural validation."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from kvcbench.cachefile import SCHEDULE_CODES, load_cache, save_cache
from kvcbench.compress import (
    CacheMeta,
    CompressedCache,
    CompressionBudget,
    GuidancePrompt,
    compress_iterative,
    compress_oracle,
)
from kvcbench.errors import FormatError, MissingArtifactError, StaleCacheError
from kvcbench.modelcore import ModelConfig, decode_step, init_random_model, prefill, rotate
from kvcbench.vocab import build_vocabulary, tokenize

from conftest import random_ids

VOCAB = build_vocabulary([
    "the red fox sat near the old barn and watched the quiet road",
    "a small dog ran across the field toward the river bank",
])


def make_compressed(seed=0, k=6, schedule="iterative", rotary=True):
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                         vocab_size=len(VOCAB), max_position=512, rotary_enabled=rotary)
    model = init_random_model(config, seed)
    rng = np.random.default_rng(seed + 10)
    ctx = random_ids(rng, len(VOCAB), 24)
    guidance = GuidancePrompt(kind="zs", description="answer questions about the passage")
    if schedule == "iterative":
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
    assert (m.n_context, m.k, m.s, m.schedule) == (24, 6, 2, "proportional")


# the header: frame 8, fingerprints 96, geometry 33; v2 adds the rotated flag
HEADER_V1 = 137


def test_v2_round_trip_keeps_rotated_keys_bitwise(saved):
    model, comp, path = saved
    raw = path.read_bytes()
    assert struct.unpack("<I", raw[4:8]) == (2,) and raw[HEADER_V1] == 1
    n, d = comp.n_kept, 32
    assert len(raw) == HEADER_V1 + 1 + 2 * n * (4 + 3 * 4 * d)
    loaded = load_cache(path, model)
    for layer in range(2):
        assert np.array_equal(comp.rotated[layer], rotate(comp.keys[layer], 0, model.config))
        assert np.array_equal(loaded.rotated[layer], comp.rotated[layer])
        assert np.array_equal(loaded.keys[layer], comp.keys[layer])
        assert np.array_equal(loaded.values[layer], comp.values[layer])
        assert np.array_equal(loaded.kept_positions[layer], comp.kept_positions[layer])


def test_rotary_off_cache_writes_no_rotated_payload(tmp_path):
    model, comp = make_compressed(rotary=False)
    assert comp.rotated is None
    path = tmp_path / "plain.kvcc"
    save_cache(comp, path)
    raw = path.read_bytes()
    assert raw[HEADER_V1] == 0
    assert len(raw) == HEADER_V1 + 1 + 2 * comp.n_kept * (4 + 2 * 4 * 32)
    loaded = load_cache(path, model)
    assert loaded.rotated is None
    assert all(np.array_equal(a, b) for a, b in zip(loaded.keys, comp.keys))


def write_v1(comp, path):
    """`comp` in the version 1 layout: no rotated flag and no rotated rows."""
    m = comp.meta
    parts = [b"KVCC", struct.pack("<I", 1), m.model_fingerprint, m.guidance_fingerprint,
             m.corpus_fingerprint,
             struct.pack("<QIIBIQI", m.n_context, m.k, m.s, SCHEDULE_CODES.index(m.schedule),
                         len(comp.keys), comp.n_kept, comp.keys[0].shape[1])]
    for pos, k, v in zip(comp.kept_positions, comp.keys, comp.values):
        parts += [pos.astype("<u4").tobytes(), k.astype("<f4").tobytes(), v.astype("<f4").tobytes()]
    path.write_bytes(b"".join(parts))


def test_v1_file_loads_and_answers_like_its_v2_twin(tmp_path):
    model, comp = make_compressed()
    write_v1(comp, tmp_path / "v1.kvcc")
    save_cache(comp, tmp_path / "v2.kvcc")
    v1, v2 = (load_cache(tmp_path / f"{v}.kvcc", model) for v in ("v1", "v2"))
    assert v1.rotated is None and v2.rotated is not None
    assert v1.meta == v2.meta
    for a, b in zip((*v1.keys, *v1.values, *v1.kept_positions), (*v2.keys, *v2.values, *v2.kept_positions)):
        assert np.array_equal(a, b)
    caches = [c.to_kv_cache() for c in (v1, v2)]
    ids = tokenize("the red fox sat near the barn", VOCAB).ids
    for cache in caches:
        prefill(model, cache, ids[:-1])
    for tok in (ids[-1], 5, 9):
        logits = [decode_step(model, cache, tok)[0] for cache in caches]
        assert np.array_equal(logits[0], logits[1])

    raw = bytearray((tmp_path / "v1.kvcc").read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    (tmp_path / "v9.kvcc").write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"unsupported KVCC version 9 \(expected 1 or 2\)"):
        load_cache(tmp_path / "v9.kvcc")


def test_unknown_rotated_flag(saved, tmp_path):
    _, _, path = saved
    bad = corrupt(path, tmp_path, lambda raw: raw.__setitem__(HEADER_V1, 2))
    with pytest.raises(FormatError, match="rotated flag is 2"):
        load_cache(bad)


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


def test_oracle_schedule_round_trips(tmp_path):
    model, comp = make_compressed(schedule="oracle")
    path = tmp_path / "o.kvcc"
    save_cache(comp, path)
    assert load_cache(path, model).meta.schedule == "oracle"
    # every schedule keeps the code byte that KVCC files have always carried
    old_codes = {"proportional": 0, "flat": 1, "oracle": 2, "streaming": 3, "snapkv": 4, "expattn": 5}
    assert set(SCHEDULE_CODES) == set(old_codes)
    for schedule, code in old_codes.items():
        save_cache(CompressedCache(comp.keys, comp.values, comp.kept_positions,
                                   replace(comp.meta, schedule=schedule)), path)
        assert path.read_bytes()[120] == code
        assert load_cache(path, model).meta.schedule == schedule


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


def test_bad_version(saved, tmp_path):
    _, _, path = saved
    bad = corrupt(path, tmp_path, lambda raw: raw.__setitem__(slice(4, 8), struct.pack("<I", 9)))
    with pytest.raises(FormatError, match="unsupported KVCC version 9"):
        load_cache(bad)


def test_unknown_schedule_code(saved, tmp_path):
    _, _, path = saved
    assert len(SCHEDULE_CODES) < 99
    bad = corrupt(path, tmp_path, lambda raw: raw.__setitem__(120, 99))
    with pytest.raises(FormatError, match="unknown schedule code 99"):
        load_cache(bad)


def test_zero_layers_rejected(saved, tmp_path):
    _, _, path = saved
    bad = corrupt(path, tmp_path,
                  lambda raw: raw.__setitem__(slice(121, 125), struct.pack("<I", 0)))
    with pytest.raises(FormatError, match="implausible geometry"):
        load_cache(bad)


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


def hand_cache(positions, schedule="flat"):
    n_kept = len(positions)
    meta = CacheMeta(model_fingerprint=b"\x01" * 32, guidance_fingerprint=b"\x02" * 32,
                     corpus_fingerprint=b"\x03" * 32, n_context=10, k=n_kept, s=1,
                     schedule=schedule)
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
    assert loaded.meta.schedule == "flat"


def test_unknown_schedule_refused_on_save(tmp_path):
    comp = hand_cache([0, 1, 2], schedule="mystery")
    with pytest.raises(FormatError, match="unknown schedule"):
        save_cache(comp, tmp_path / "x.kvcc")
