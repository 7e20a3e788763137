"""Flat binary container for model weights.

Layout (little-endian): magic ``KVCW``, version u32, tensor count u32, then
per tensor: name length u32, utf-8 name, dtype u8 (0 = float32), rank u8,
dims as u64[rank], raw row-major payload. No alignment padding; readers and
writers agree byte for byte, which keeps the model fingerprint stable.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ._binio import read_container, write_container
from .errors import FormatError
from .modelcore import Model, ModelConfig, tensor_names, tensor_shape

MAGIC = b"KVCW"
VERSION = 1
_DTYPE_F32 = 0


def save_weights(model: Model, path) -> None:
    names = tensor_names(model.config)
    parts = [struct.pack("<I", len(names))]
    for name in names:
        arr = np.ascontiguousarray(model.weights[name], dtype="<f4")
        raw = name.encode()
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<BB", _DTYPE_F32, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr)
    write_container(path, MAGIC, VERSION, parts)


def load_weights(path, config: ModelConfig) -> Model:
    """Read a KVCW container and validate it against the expected tensor set."""
    p = Path(path)
    r = read_container(p, MAGIC, VERSION)
    count = r.u32()
    weights: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            name = r.take(r.u32()).decode()
        except UnicodeDecodeError:
            raise FormatError(f"{p}: tensor name before byte {r.off} is not utf-8") from None
        dtype = r.u8()
        if dtype != _DTYPE_F32:
            raise FormatError(f"{p}: tensor {name} has unknown dtype code {dtype}")
        rank = r.u8()
        dims = struct.unpack(f"<{rank}Q", r.take(8 * rank))
        n_elem = 1
        for dim in dims:
            n_elem *= dim
        payload = r.array("<f4", n_elem)
        if name in weights:
            raise FormatError(f"{p}: duplicate tensor {name}")
        weights[name] = payload.reshape(dims)
    r.expect_end()

    expected = tensor_names(config)
    missing = [n for n in expected if n not in weights]
    if missing:
        raise FormatError(f"{p}: missing tensor {missing[0]}")
    extra = [n for n in weights if n not in expected]
    if extra:
        raise FormatError(f"{p}: unexpected tensor {extra[0]}")
    for name in expected:
        want = tensor_shape(name, config)
        if weights[name].shape != want:
            raise FormatError(
                f"{p}: tensor {name} has shape {weights[name].shape}, expected {want}"
            )
    return Model(config, weights)
