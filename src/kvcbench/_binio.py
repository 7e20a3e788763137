"""Shared readers and writer for the artifact formats: a little-endian
reader for the binary containers, a typed record reader for the JSON ones,
and the atomic writer every whole-file save goes through."""

from __future__ import annotations

import contextlib
import dataclasses
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError


class Reader:
    """Sequential reader that turns truncation into a FormatError naming the
    file and offset instead of a silent short read."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.off = 0
        self.path = path

    def _advance(self, n: int) -> int:
        """Claim the next n bytes and return their offset."""
        if self.off + n > len(self.data):
            raise FormatError(f"{self.path}: unexpected end of container at byte {self.off}")
        self.off += n
        return self.off - n

    def take(self, n: int) -> bytes:
        off = self._advance(n)
        return self.data[off : off + n]

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def array(self, dtype, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.data, dt, count, self._advance(dt.itemsize * count)).copy()

    def expect_end(self) -> None:
        if self.off != len(self.data):
            raise FormatError(
                f"{self.path}: {len(self.data) - self.off} trailing bytes after last field"
            )


# dataclass field annotation -> the JSON values it accepts; a tuple field
# takes a JSON list of its element type
_JSON_TYPES = {"str": str, "int": int, "bool": bool, "float": (int, float),
               "float | None": (int, float, type(None))}


def _json_value(name: str, value, annotation: str):
    if annotation.startswith("tuple["):  # tuple[<element>, ...]
        if not isinstance(value, list):
            raise TypeError(f"{name} is {value!r}, expected a list")
        return tuple(_json_value(name, v, annotation[6:-6]) for v in value)
    if isinstance(value, bool) != (annotation == "bool") or not isinstance(value, _JSON_TYPES[annotation]):
        raise TypeError(f"{name} is {value!r}, expected {annotation}")
    return float(value) if annotation.startswith("float") and value is not None else value


def json_record(cls, row, rename=None):
    """``cls(**row)`` for a dataclass read from a decoded JSON object whose
    raw values must match the field annotations: a bool is not an int, an
    int is read as a float, a tuple field needs a list. ``rename`` maps
    JSON keys to field names. A mismatch, an unknown or a missing key raises
    TypeError; ``cls`` runs its own checks as usual."""
    if not isinstance(row, dict):
        raise TypeError(f"expected a JSON object, got {type(row).__name__}")
    kwargs = {(rename or {}).get(key, key): value for key, value in row.items()}
    for f in dataclasses.fields(cls):
        if f.name in kwargs:
            kwargs[f.name] = _json_value(f.name, kwargs[f.name], f.type)
    return cls(**kwargs)


@contextlib.contextmanager
def atomic_write(path, mode="w", **open_kwargs):
    """Open a temporary file beside `path` for writing; it replaces `path`
    when the block completes and is removed if the block raises anything,
    so readers see either the old file or the whole new one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
