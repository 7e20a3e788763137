"""Flat binary container for model weights, mapped on load.

Layout (little-endian): magic ``KVCW``, version u32 (4, the only version
read), the model's config as ``CONFIG``, its 32-byte
``fingerprint_weights``, then each tensor of ``tensor_names(config)`` in
that order, as row-major f32 of ``tensor_shape``, each starting aligned
(``_binio``). The file describes itself: its config fixes the tensors'
names and shapes, and the fingerprint, which hashes the config and every
tensor, refuses a changed byte in either.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from pathlib import Path

import numpy as np

from ._binio import read_container, write_container
from .errors import FormatError, UsageError
from .modelcore import LAYER_TENSORS, Model, ModelConfig, fingerprint_weights, tensor_names, tensor_shape

MAGIC = b"KVCW"
VERSION = 4
# after the frame, every ModelConfig field in order: n_layers, n_heads,
# hidden_size, head_dim, vocab_size and max_position u32, rotary_enabled u8
# (0 or 1), rotary_base f64
CONFIG = struct.Struct("<6IBd")


def save_weights(model: Model, path) -> None:
    """Write `model`'s config and tensors; a tensor whose shape differs from
    its config's raises UsageError, as the file could not tell it apart."""
    parts = [CONFIG.pack(*dataclasses.astuple(model.config)), model.fingerprint]
    for name in tensor_names(model.config):
        arr, want = model.weights[name], tensor_shape(name, model.config)
        if arr.shape != want:
            raise UsageError(f"cannot save {path}: tensor {name} has shape {arr.shape}, expected {want}")
        parts.append(np.ascontiguousarray(arr, dtype="<f4"))
    write_container(path, MAGIC, VERSION, parts)


def _n_floats(config: ModelConfig, names) -> int:
    return sum(math.prod(tensor_shape(name, config)) for name in names)


def load_weights(path) -> Model:
    """Map a KVCW container: its tensor views are writable copy-on-write.
    Structural damage, any version but ``VERSION``, a rotary byte other
    than 0 or 1, a config that ``ModelConfig`` refuses or whose tensors
    cannot fit in the file, and a stored fingerprint other than that of the
    config and the tensors raise FormatError, the last before the model
    reads a weight. The size check comes before any per-tensor work, so a
    damaged layer or vocabulary count costs time bounded by the file's
    size."""
    r = read_container(Path(path), MAGIC, VERSION)
    *dims, rotary, base = r.unpack(CONFIG)
    if rotary > 1:
        raise FormatError(f"{path}: rotary_enabled byte is {rotary}, not 0 or 1")
    try:
        config = ModelConfig(*dims, bool(rotary), base)
    except UsageError as exc:
        raise FormatError(f"{path}: bad model config: {exc}") from None
    stored = r.take(32)
    need = 4 * (_n_floats(config, ("embedding", "final_norm", "lm_head"))
                + config.n_layers * _n_floats(config, LAYER_TENSORS))
    if need > len(r.data) - r.off:
        raise FormatError(f"{path}: unexpected end of container: its config needs {need} tensor bytes, "
                          f"{len(r.data) - r.off} remain")
    weights = {}
    for name in tensor_names(config):
        shape = tensor_shape(name, config)
        weights[name] = r.view("<f4", math.prod(shape)).reshape(shape)
    r.expect_end()
    fingerprint = fingerprint_weights(config, weights)
    if fingerprint != stored:
        raise FormatError(f"{path}: weights fingerprint mismatch (damaged file)")
    return Model(config, weights, fingerprint)
