"""The one place artifact files are opened. ``read_artifact`` reads an
artifact whole and ``map_artifact`` maps one copy-on-write; both turn any OS
failure (missing file, a directory, no permission) into
MissingArtifactError, CLI exit 3. ``writing`` turns one on the write side
(an output directory that is a file, an output file that is a directory, no
permission) into UsageError, CLI exit 2. The two binary containers, KVCC
and KVCW, share one layout: a 4-byte magic then a u32 version, which
``read_container`` checks over the mapped file and ``write_container``
writes, then fixed-size headers and arrays. Every array starts at a
multiple of ``ALIGN`` bytes from the start of the file, after zero
padding that the reader checks, and loads as a view of the mapping
(``Reader.view``). Also here: a typed record reader for the JSON formats,
and the atomic writer every whole-file save goes through. Saves rename a
new file over the old one, so a save never changes a mapping of the old
file; truncating a mapped file in place is unsupported (touching a page
past its new end raises SIGBUS)."""

from __future__ import annotations

import contextlib
import dataclasses
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, MissingArtifactError, UsageError

# every array of a container starts at a multiple of this many bytes
ALIGN = 64


@contextlib.contextmanager
def _reading(path, what: str):
    """Run a block that opens artifact `path`, `what` naming it in errors: a
    path the OS cannot read, or cannot even name (a NUL byte), raises
    MissingArtifactError; its cause is the original exception."""
    try:
        yield
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise MissingArtifactError(f"cannot read {what} {path}: {reason}") from exc


def read_artifact(path, what: str) -> bytes:
    """The whole of artifact file `path`."""
    with _reading(path, what):
        return Path(path).read_bytes()


def map_artifact(path, what: str):
    """Artifact file `path` mapped copy-on-write (``mmap.ACCESS_COPY``): a
    page is read when first touched, and a write lands in a private copy of
    its page, never in the file. An empty file, which mmap refuses, comes
    back as empty bytes. No ``MAP_POPULATE``: on a private writable mapping
    it copies every page up front."""
    with _reading(path, what), open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            return b""
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)


@contextlib.contextmanager
def writing(path):
    """Run a block that creates or writes output `path`: an OSError in it
    raises UsageError naming the path and the OS reason; its cause is the
    original exception. Output directories and ``atomic_write`` go
    through it."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


class Reader:
    """Sequential reader over a container's bytes or mapping that turns
    truncation into a FormatError naming the file and offset instead of a
    silent short read."""

    def __init__(self, data, path):
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

    def unpack(self, layout: struct.Struct) -> tuple:
        """The next ``layout.size`` bytes unpacked by `layout`."""
        return layout.unpack(self.take(layout.size))

    def view(self, dtype, count: int) -> np.ndarray:
        """The `count` items from the next multiple of ``ALIGN`` bytes on, as
        a view of the file's bytes, which it keeps alive: writable
        (copy-on-write) over a mapping. Padding that is not zero raises
        FormatError."""
        if any(self.take(-self.off % ALIGN)):
            raise FormatError(f"{self.path}: nonzero padding before byte {self.off}")
        dt = np.dtype(dtype)
        return np.frombuffer(self.data, dt, count, self._advance(dt.itemsize * count))

    def expect_end(self) -> None:
        if self.off != len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.off} trailing bytes after last field")


def read_container(path, magic: bytes, version: int) -> Reader:
    """A Reader over container `path`, mapped and positioned after its
    frame, which must carry `magic` and `version`."""
    name = magic.decode()
    r = Reader(map_artifact(path, f"{name} container"), path)
    if r.take(4) != magic:
        raise FormatError(f"{path}: not a {name} container")
    found = int.from_bytes(r.take(4), "little")
    if found != version:
        raise FormatError(f"{path}: unsupported {name} version {found} (expected {version})")
    return r


def write_container(path, magic: bytes, version: int, parts) -> None:
    """Atomically write the frame of `magic` and `version`, then each of
    `parts` (bytes, or C-contiguous arrays written through the buffer
    protocol) in turn, so no joined copy of the file is ever made. Zero
    bytes pad the file so that each array starts at a multiple of
    ``ALIGN``."""
    with atomic_write(path, "wb") as fh:
        fh.write(magic + version.to_bytes(4, "little"))
        for part in parts:
            if isinstance(part, np.ndarray):
                fh.write(bytes(-fh.tell() % ALIGN))
            fh.write(part)


# dataclass field annotation -> the JSON values it accepts; a tuple field
# takes a JSON list of its element type, and no field takes a bool
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "float | None": (int, float, type(None))}


def _json_value(name: str, value, annotation: str):
    if annotation.startswith("tuple["):  # tuple[<element>, ...]
        if not isinstance(value, list):
            raise TypeError(f"{name} is {value!r}, expected a list")
        return tuple(_json_value(name, v, annotation[6:-6]) for v in value)
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[annotation]):
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
    """Open a temporary file beside `path` for writing, creating its
    directory first; it replaces `path` when the block completes and is
    removed if the block raises anything, so readers see either the old
    file or the whole new one. OS errors raise UsageError, as in
    ``writing``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, mode, **open_kwargs) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
