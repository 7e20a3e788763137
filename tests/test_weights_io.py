"""Weight container (KVCW) round trips and corruption handling. The file
stores its own config, so every test loads it by path alone."""

import dataclasses

import numpy as np
import pytest

from kvcbench.errors import FormatError, MissingArtifactError, UsageError
from kvcbench.modelcore import ModelConfig, init_random_model, tensor_names
from kvcbench.weights import CONFIG as HEADER
from kvcbench.weights import load_weights, save_weights

CONFIG = ModelConfig(n_layers=2, n_heads=2, hidden_size=16, head_dim=8,
                     vocab_size=32, max_position=64)


@pytest.fixture
def saved(tmp_path):
    model = init_random_model(CONFIG, seed=3)
    path = tmp_path / "model.kvcw"
    save_weights(model, path)
    return model, path


def with_header(path, **changes):
    """Rewrite the config stored in the KVCW at `path` with `changes`,
    leaving the fingerprint and tensors as they are."""
    raw = bytearray(path.read_bytes())
    fields = {f.name: v for f, v in zip(dataclasses.fields(ModelConfig), HEADER.unpack_from(raw, 8), strict=True)}
    raw[8 : 8 + HEADER.size] = HEADER.pack(*{**fields, **changes}.values())
    path.write_bytes(bytes(raw))


def test_round_trip_is_bit_identical(saved):
    model, path = saved
    loaded = load_weights(path)
    assert loaded.config == CONFIG
    assert loaded.fingerprint == model.fingerprint
    for name in tensor_names(CONFIG):
        assert np.array_equal(loaded.weights[name], model.weights[name])
        assert loaded.weights[name].dtype == np.float32


def test_save_is_deterministic(saved, tmp_path):
    model, path = saved
    again = tmp_path / "again.kvcw"
    save_weights(model, again)
    assert path.read_bytes() == again.read_bytes()


def test_missing_file(tmp_path):
    with pytest.raises(MissingArtifactError):
        load_weights(tmp_path / "absent.kvcw")


def test_bad_magic(saved):
    _, path = saved
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="not a KVCW container"):
        load_weights(path)


def test_unsupported_version(saved):
    _, path = saved
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"unsupported KVCW version 9 \(expected 4\)"):
        load_weights(path)


def test_version_1_is_refused(saved):
    _, path = saved
    raw = bytearray(path.read_bytes())
    raw[4] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"unsupported KVCW version 1 \(expected 4\)"):
        load_weights(path)


def test_version_2_is_refused(saved):
    # version 2 stored no fingerprint; save the model again
    _, path = saved
    raw = bytearray(path.read_bytes())
    raw[4] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"unsupported KVCW version 2 \(expected 4\)"):
        load_weights(path)


def test_version_3_is_refused(saved):
    # version 3 kept its config in a JSON file beside it; save the model again
    _, path = saved
    raw = bytearray(path.read_bytes())
    raw[4] = 3
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"unsupported KVCW version 3 \(expected 4\)"):
        load_weights(path)


def test_file_records_the_fingerprint_after_the_frame(saved):
    # the frame, then the config, then the fingerprint
    model, path = saved
    raw = path.read_bytes()
    assert HEADER.size == 33
    assert raw[8:41] == HEADER.pack(2, 2, 16, 8, 32, 64, 1, 10000.0)
    assert raw[41:73] == model.fingerprint


@pytest.mark.parametrize("where", ["config", "fingerprint", "tensor", "padding"])
def test_a_flipped_byte_is_refused(saved, where):
    # the fingerprint hashes the config and every tensor; padding must be zero
    _, path = saved
    raw = bytearray(path.read_bytes())
    # config: a byte of max_position, which any value fits
    offset = {"config": 28, "fingerprint": 41, "tensor": len(raw) - 3, "padding": 100}[where]
    raw[offset] ^= 0x10
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="padding" if where == "padding" else "fingerprint mismatch"):
        load_weights(path)


def test_truncated_container(saved):
    _, path = saved
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FormatError, match="unexpected end of container"):
        load_weights(path)


def test_trailing_bytes(saved):
    _, path = saved
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing bytes"):
        load_weights(path)


def test_missing_tensor_for_config(saved):
    _, path = saved
    with_header(path, n_layers=3)
    with pytest.raises(FormatError, match="unexpected end of container: its config needs"):
        load_weights(path)


def test_extra_tensor_for_config(saved):
    _, path = saved
    with_header(path, n_layers=1)
    with pytest.raises(FormatError, match="trailing bytes after last field"):
        load_weights(path)


def test_shape_mismatch_for_config(saved):
    _, path = saved
    with_header(path, hidden_size=32, head_dim=16)
    with pytest.raises(FormatError, match="unexpected end of container"):
        load_weights(path)


@pytest.mark.parametrize("changes, reason", [
    ({"rotary_enabled": 2}, "rotary_enabled byte is 2, not 0 or 1"),
    ({"rotary_enabled": 255}, "rotary_enabled byte is 255, not 0 or 1"),
    ({"hidden_size": 15}, "bad model config: hidden_size 15 != n_heads 2 x head_dim 8"),
    ({"n_heads": 0, "hidden_size": 0}, "bad model config: n_layers, n_heads and head_dim must be >= 1"),
    ({"n_layers": 0}, "bad model config: n_layers, n_heads and head_dim must be >= 1"),
    ({"vocab_size": 1}, "bad model config: vocab_size must be >= 2"),
    ({"head_dim": 7, "hidden_size": 14}, "bad model config: head_dim must be even"),
], ids=["rotary_2", "rotary_255", "hidden_size", "no_heads", "no_layers", "vocab_size", "odd_rotary_head"])
def test_a_config_the_model_refuses_is_a_format_error(saved, changes, reason):
    _, path = saved
    with_header(path, **changes)
    with pytest.raises(FormatError, match=reason):
        load_weights(path)


def test_save_refuses_a_tensor_of_another_shape(tmp_path):
    # the file records no shapes, so it could not tell such a tensor apart
    model = init_random_model(CONFIG, seed=3)
    model.weights["layers.1.q_proj"] = model.weights["layers.1.q_proj"][:, :8]
    with pytest.raises(UsageError, match=r"tensor layers\.1\.q_proj has shape \(16, 8\), expected \(16, 16\)"):
        save_weights(model, tmp_path / "model.kvcw")
    assert not (tmp_path / "model.kvcw").exists()
