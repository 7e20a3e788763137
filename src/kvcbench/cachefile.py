"""Binary container for compressed caches, laid out so a cache can run
from the mapped file.

Layout (little-endian): magic ``KVCC``, version u32 (5, the only version
read; a cache of another version is rebuilt with ``kvc compress``), then
the three 32-byte fingerprints (model, guidance, corpus), n_context u64,
k u32, s u32, method code u8 (the index in ``METHOD_CODES`` of the
``evalharness.COMPRESSED_METHODS`` key that built the cache), n_layers
u32, n_kept u64 and hidden u32.
Then per layer the kept original positions as u32, the K rows (rotated to
positions 0..n_kept-1, as ``CompressedCache`` holds them) and the V rows
as row-major f32. Rotary on or off, the layout is the same. Each array
starts aligned, as in every container (``_binio``), and each float array
is followed by zero rows up to ``modelcore.headroom(n_kept)``, the headroom
``KvCache`` gives a cache it builds.

Loading validates structure always and fingerprint compatibility when a
model is supplied, so a cache can never be silently replayed against the
wrong model. The file is mapped copy-on-write, never read whole: a loaded
cache's float rows are read-only views of its first n_kept rows of each
array. The first ``to_kv_cache`` of a loaded cache takes over the mapped
arrays, headroom included, so a question's rows and decoded tokens land in
private copies of the pages they touch and no cached row is copied; later
calls copy the rows. A save renames a new file over the path, so it never
changes a cache loaded from the old one. Truncating a KVCC file in place
while a process answers from it is unsupported: touching a page past the
new end raises SIGBUS.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ._binio import read_container, write_container
from .compress import CacheMeta, CompressedCache
from .errors import FormatError, StaleCacheError, UsageError
from .modelcore import Model, headroom

MAGIC = b"KVCC"
VERSION = 5
# after the frame: the model, guidance and corpus fingerprints, n_context,
# k, s, method code, n_layers, n_kept, hidden
HEADER = struct.Struct("<32s32s32sQIIBIQI")

# a method's code byte is its index here: append new methods, never reorder
METHOD_CODES = ("kvc_zs", "kvc_fs", "kvc_fsq", "streaming", "snapkv", "expattn", "oracle")


def check_header_fits(k: int, s: int) -> None:
    """Refuse a budget k or segment count s that the header's u32 fields cannot hold."""
    for name, value in (("budget k", k), ("segment count s", s)):
        if value >= 1 << 32:
            raise UsageError(f"{name} = {value} does not fit the u32 field of a KVCC header")


def save_cache(compressed: CompressedCache, path) -> None:
    meta = compressed.meta
    if meta.method not in METHOD_CODES:
        raise UsageError(f"cannot save a cache of unknown method {meta.method!r}")
    check_header_fits(meta.k, meta.s)
    n_layers = len(compressed.keys)
    n_kept = compressed.n_kept
    hidden = compressed.keys[0].shape[1]
    header = HEADER.pack(
        meta.model_fingerprint, meta.guidance_fingerprint, meta.corpus_fingerprint, meta.n_context,
        meta.k, meta.s, METHOD_CODES.index(meta.method), n_layers, n_kept, hidden,
    )
    parts = [header]
    room = bytes((headroom(n_kept) - n_kept) * hidden * 4)
    for layer in range(n_layers):
        parts.append(np.ascontiguousarray(compressed.kept_positions[layer], dtype="<u4"))
        for rows in (compressed.keys, compressed.values):
            parts += [np.ascontiguousarray(rows[layer], dtype="<f4"), room]
    write_container(path, MAGIC, VERSION, parts)


def load_cache(path, model: Model | None = None) -> CompressedCache:
    """Map a KVCC container. When `model` is given, a fingerprint mismatch
    raises StaleCacheError; structural damage and any version but
    ``VERSION`` raise FormatError."""
    p = Path(path)
    r = read_container(p, MAGIC, VERSION)
    *fingerprints, n_context, k, s, code, n_layers, n_kept, hidden = r.unpack(HEADER)
    if code >= len(METHOD_CODES):
        raise FormatError(f"{p}: unknown method code {code}")
    # with a kept row every layer takes bytes, so truncation bounds n_layers
    if n_layers < 1 or n_kept < 1 or hidden < 1:
        raise FormatError(f"{p}: implausible geometry ({n_layers} layers, {n_kept} kept rows, hidden {hidden})")

    n_rows = headroom(n_kept)
    kept, buffers = [], ([], [])
    for _ in range(n_layers):
        pos = r.view("<u4", n_kept).astype(np.int64)
        if np.any(np.diff(pos) <= 0) or pos[-1] >= n_context:
            raise FormatError(f"{p}: kept positions not strictly increasing within context")
        kept.append(pos)
        for bufs in buffers:
            bufs.append(r.view("<f4", n_rows * hidden).reshape(n_rows, hidden))
    r.expect_end()

    keys, values = ([buf[:n_kept] for buf in bufs] for bufs in buffers)
    for rows in (*keys, *values):
        rows.flags.writeable = False
    meta = CacheMeta(*fingerprints, n_context, k, s, METHOD_CODES[code])
    loaded = CompressedCache(keys, values, kept, meta)
    loaded._mapped = buffers
    if model is not None and model.fingerprint != meta.model_fingerprint:
        raise StaleCacheError(f"{p}: cache was built by a different model than the one supplied")
    return loaded
