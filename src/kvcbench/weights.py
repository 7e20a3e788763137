"""Flat binary container for model weights, mapped on load.

Layout (little-endian): magic ``KVCW``, version u32 (3, the only version
read), the model's 32-byte ``fingerprint_weights``, then each tensor of
``tensor_names(config)`` in that order, as row-major f32 of
``tensor_shape``, each starting aligned (``_binio``). The file records no
names, dtypes or shapes: its config sidecar fixes them, so a file loaded
with another config ends early, leaves trailing bytes or, when the shapes
match, fails the fingerprint, which hashes the config and every tensor.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ._binio import read_container, write_container
from .errors import FormatError, UsageError
from .modelcore import Model, ModelConfig, fingerprint_weights, tensor_names, tensor_shape

MAGIC = b"KVCW"
VERSION = 3


def save_weights(model: Model, path) -> None:
    """Write `model`'s tensors; one whose shape differs from its config's
    raises UsageError, as the file could not tell it apart."""
    parts = [model.fingerprint]
    for name in tensor_names(model.config):
        arr, want = model.weights[name], tensor_shape(name, model.config)
        if arr.shape != want:
            raise UsageError(f"cannot save {path}: tensor {name} has shape {arr.shape}, expected {want}")
        parts.append(np.ascontiguousarray(arr, dtype="<f4"))
    write_container(path, MAGIC, VERSION, parts)


def load_weights(path, config: ModelConfig) -> Model:
    """Map a KVCW container holding the tensors of `config`: their views are
    writable copy-on-write. Structural damage, a size that does not fit
    `config`, any version but ``VERSION`` and a stored fingerprint other
    than that of `config` and the tensors raise FormatError, the last
    before the model reads a weight."""
    r = read_container(Path(path), MAGIC, VERSION)
    stored = r.take(32)
    weights = {}
    for name in tensor_names(config):
        shape = tensor_shape(name, config)
        weights[name] = r.view("<f4", math.prod(shape)).reshape(shape)
    r.expect_end()
    fingerprint = fingerprint_weights(config, weights)
    if fingerprint != stored:
        raise FormatError(f"{path}: weights fingerprint mismatch (damaged, or saved under another config)")
    return Model(config, weights, fingerprint)
