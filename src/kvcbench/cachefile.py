"""Binary container for compressed caches.

Layout of version 2 (little-endian): magic ``KVCC``, version u32, then the
three 32-byte fingerprints (model, guidance, corpus), n_context u64, k u32,
s u32, schedule code u8, n_layers u32, n_kept u64, hidden u32, a rotated
flag u8, and per layer the kept original positions as u32 followed by the
K and V rows as row-major f32 and, when the flag is 1, the K rows rotated
to positions 0..n_kept-1 (``CompressedCache.rotated``, which a rotary
model's compression carries, so its file is half as large again) as
row-major f32. Version 1 lacks the flag and the rotated rows, and still
loads, with ``rotated`` None. Loading validates structure always and
fingerprint compatibility when a model is supplied, so a cache can never
be silently replayed against the wrong model. A loaded cache's float rows
are read-only views of the file's bytes, which ``to_kv_cache`` copies once.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ._binio import read_container, write_container
from .compress import BUDGET_SCHEDULES, CacheMeta, CompressedCache
from .errors import FormatError, StaleCacheError
from .modelcore import Model

MAGIC = b"KVCC"
VERSION = 2
# the versions load_cache reads
VERSIONS = (1, 2)

# a schedule's code byte is its index here: append new schedules, never reorder
SCHEDULE_CODES = (*BUDGET_SCHEDULES, "oracle", "streaming", "snapkv", "expattn")


def save_cache(compressed: CompressedCache, path) -> None:
    meta = compressed.meta
    if meta.schedule not in SCHEDULE_CODES:
        raise FormatError(f"unknown schedule {meta.schedule!r}")
    n_layers = len(compressed.keys)
    n_kept = compressed.n_kept
    hidden = compressed.keys[0].shape[1]
    rotated = compressed.rotated
    parts = [
        meta.model_fingerprint,
        meta.guidance_fingerprint,
        meta.corpus_fingerprint,
        struct.pack(
            "<QIIBIQIB",
            meta.n_context,
            meta.k,
            meta.s,
            SCHEDULE_CODES.index(meta.schedule),
            n_layers,
            n_kept,
            hidden,
            rotated is not None,
        ),
    ]
    for layer in range(n_layers):
        parts.append(np.ascontiguousarray(compressed.kept_positions[layer], dtype="<u4"))
        parts.append(np.ascontiguousarray(compressed.keys[layer], dtype="<f4"))
        parts.append(np.ascontiguousarray(compressed.values[layer], dtype="<f4"))
        if rotated is not None:
            parts.append(np.ascontiguousarray(rotated[layer], dtype="<f4"))
    write_container(path, MAGIC, VERSION, parts)


def load_cache(path, model: Model | None = None) -> CompressedCache:
    """Read a KVCC container of either version. When `model` is given, a
    fingerprint mismatch raises StaleCacheError; structural damage raises
    FormatError."""
    p = Path(path)
    r, version = read_container(p, MAGIC, VERSIONS)
    model_fp = r.take(32)
    guidance_fp = r.take(32)
    corpus_fp = r.take(32)
    n_context = r.u64()
    k = r.u32()
    s = r.u32()
    code = r.u8()
    if code >= len(SCHEDULE_CODES):
        raise FormatError(f"{p}: unknown schedule code {code}")
    n_layers = r.u32()
    n_kept = r.u64()
    hidden = r.u32()
    if n_layers < 1 or hidden < 1:
        raise FormatError(f"{p}: implausible geometry ({n_layers} layers, hidden {hidden})")
    flag = r.u8() if version >= 2 else 0
    if flag > 1:
        raise FormatError(f"{p}: rotated flag is {flag}, expected 0 or 1")

    keys, values, kept, rotated = [], [], [], []
    for _ in range(n_layers):
        pos = r.array("<u4", n_kept).astype(np.int64)
        if n_kept and (np.any(np.diff(pos) <= 0) or pos[-1] >= n_context):
            raise FormatError(f"{p}: kept positions not strictly increasing within context")
        kept.append(pos)
        for rows in (keys, values, rotated)[: 2 + flag]:
            rows.append(r.view("<f4", n_kept * hidden).reshape(n_kept, hidden))
    r.expect_end()

    meta = CacheMeta(
        model_fingerprint=model_fp,
        guidance_fingerprint=guidance_fp,
        corpus_fingerprint=corpus_fp,
        n_context=n_context,
        k=k,
        s=s,
        schedule=SCHEDULE_CODES[code],
    )
    loaded = CompressedCache(keys, values, kept, meta, rotated if flag else None)
    if model is not None and model.fingerprint != model_fp:
        raise StaleCacheError(f"{p}: cache was built by a different model than the one supplied")
    return loaded
