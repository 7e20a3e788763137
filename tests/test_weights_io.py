"""Weight container (KVCW) round trips and corruption handling."""

import numpy as np
import pytest

from kvcbench.errors import FormatError, MissingArtifactError, UsageError
from kvcbench.modelcore import ModelConfig, init_random_model, tensor_names
from kvcbench.weights import load_weights, save_weights

CONFIG = ModelConfig(n_layers=2, n_heads=2, hidden_size=16, head_dim=8,
                     vocab_size=32, max_position=64)


@pytest.fixture
def saved(tmp_path):
    model = init_random_model(CONFIG, seed=3)
    path = tmp_path / "model.kvcw"
    save_weights(model, path)
    return model, path


def test_round_trip_is_bit_identical(saved):
    model, path = saved
    loaded = load_weights(path, CONFIG)
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
        load_weights(tmp_path / "absent.kvcw", CONFIG)


def test_bad_magic(saved):
    _, path = saved
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="not a KVCW container"):
        load_weights(path, CONFIG)


def test_unsupported_version(saved):
    _, path = saved
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"unsupported KVCW version 9 \(expected 3\)"):
        load_weights(path, CONFIG)


def test_version_1_is_refused(saved):
    _, path = saved
    raw = bytearray(path.read_bytes())
    raw[4] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"unsupported KVCW version 1 \(expected 3\)"):
        load_weights(path, CONFIG)


def test_version_2_is_refused(saved):
    # version 2 stored no fingerprint; save the model again
    _, path = saved
    raw = bytearray(path.read_bytes())
    raw[4] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"unsupported KVCW version 2 \(expected 3\)"):
        load_weights(path, CONFIG)


def test_file_records_the_fingerprint_after_the_frame(saved):
    model, path = saved
    assert path.read_bytes()[8:40] == model.fingerprint


@pytest.mark.parametrize("where", ["fingerprint", "tensor", "padding"])
def test_a_flipped_byte_is_refused(saved, where):
    # the fingerprint hashes the config and every tensor; padding must be zero
    _, path = saved
    raw = bytearray(path.read_bytes())
    offset = {"fingerprint": 8, "tensor": len(raw) - 3, "padding": 50}[where]
    raw[offset] ^= 0x10
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="padding" if where == "padding" else "fingerprint mismatch"):
        load_weights(path, CONFIG)


def test_truncated_container(saved):
    _, path = saved
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FormatError, match="unexpected end of container"):
        load_weights(path, CONFIG)


def test_trailing_bytes(saved):
    _, path = saved
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing bytes"):
        load_weights(path, CONFIG)


def test_missing_tensor_for_config(saved):
    _, path = saved
    bigger = ModelConfig(n_layers=3, n_heads=2, hidden_size=16, head_dim=8,
                         vocab_size=32, max_position=64)
    with pytest.raises(FormatError, match="unexpected end of container"):
        load_weights(path, bigger)


def test_extra_tensor_for_config(saved):
    _, path = saved
    smaller = ModelConfig(n_layers=1, n_heads=2, hidden_size=16, head_dim=8,
                          vocab_size=32, max_position=64)
    with pytest.raises(FormatError, match="trailing bytes after last field"):
        load_weights(path, smaller)


def test_shape_mismatch_for_config(saved):
    _, path = saved
    wider = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                        vocab_size=32, max_position=64)
    with pytest.raises(FormatError, match=r"unexpected end of container at byte \d+"):
        load_weights(path, wider)


def test_save_refuses_a_tensor_of_another_shape(tmp_path):
    # the file records no shapes, so it could not tell such a tensor apart
    model = init_random_model(CONFIG, seed=3)
    model.weights["layers.1.q_proj"] = model.weights["layers.1.q_proj"][:, :8]
    with pytest.raises(UsageError, match=r"tensor layers\.1\.q_proj has shape \(16, 8\), expected \(16, 16\)"):
        save_weights(model, tmp_path / "model.kvcw")
    assert not (tmp_path / "model.kvcw").exists()
