"""Minimal deterministic decoder-only transformer with an explicit KV cache.

The runtime is CPU-only float32 numpy. Architecture: token embedding,
pre-norm blocks (RMSNorm, multi-head attention with optional rotary
positions, GELU MLP), final RMSNorm, linear head.

Three properties of the design matter to everything downstream:

* Row i of every layer holds position i, and keys are stored **unrotated**,
  so survivors of a compression pass can be gathered, renumbered to
  contiguous positions and re-rotated exactly. Attention reads keys from a
  per-layer rotated shadow that rotates each row once. Every forward pass
  leaves every layer's shadow complete. A compressed cache keeps only its
  survivors' keys rotated to positions 0..r-1, which the cache it answers
  on (``KvCache.adopt``) uses as its shadow; only the segment walk's
  gathered survivors start with an empty shadow, filled on first read.
  Rows are always rotated in runs of consecutive positions, so ``rotate``
  takes the first position and reads one slice of a float32 cos/sin table
  with a column per (head, pair), cached per (n_heads, head_dim,
  rotary_base). Every cache buffer carries an eighth of headroom from
  construction on, and a cache answering from a mapped KVCC file runs on
  the file's arrays, which carry that headroom too.
* One layer loop, ``_forward``, serves prefill, capture and decode, and
  numbers new rows itself after the cache's last position. Each layer
  attends over one range of rows. ``prefill`` never produces logits (the
  first answer token comes from ``decode_step``), so its last layer's
  range is just the observer rows, which roughly halves prefill cost on a
  two-layer model. That layer projects queries only for the observer and
  query rows. Keys and values are written straight into the cache's
  buffers, RMSNorm and GELU work in place, and each layer's MLP runs over
  ``max(1, S // MLP_BLOCK)`` equal row blocks of at least ``MLP_BLOCK``
  rows (no block is small enough for a gemv), so its (rows, 4 x width)
  temporaries stay cache-sized. The last layer's prologue runs over the
  same blocks, so a pass holds few (tokens, width) arrays at once: an
  8,192-token prefill of a one-layer, 256-wide model with rotary off and
  its observer rows in one tile peaks at 2.54 such float32 arrays
  (``tracemalloc``), where a whole normed copy took it to 3.29.
* Attention is one blocked kernel. The range is cut into tiles of
  ``ATTENTION_BLOCK`` rows starting at its first row; a tile of rows
  [r0, r1) scores columns [0, base + r1) with queries pre-multiplied by
  log2(e)/sqrt(d_k), so scores are in base-2 units and ``exp2`` takes the
  place of ``exp``. Only its diagonal columns [base + r0, base + r1) can
  hold a future position, so only they are masked, from one constant
  triangle. The usual row-max shift is skipped when the model's weights
  bound every score by ``SHIFT_FREE_BOUND`` (``Model.score_bound``, see
  ``score_bound``), and kept otherwise. Softmax normalisation is deferred
  to the output: ``exp2(s) @ V`` is divided by the row sums, one GEMV
  against a vector of ones, touching (rows, d_k) values instead of
  (rows, columns). A range of more than one tile transposes its rotated
  keys once, in blocks of ``PANEL_COPY_ROWS`` rows, so each head reads a
  contiguous (d_k, columns) key panel, and scores every multi-row tile into
  a buffer kept for the pass: no tile allocates its score matrix or
  repacks strided keys. A tile of ``end`` columns uses one contiguous
  (rows, wt) block of it, wt being ``end`` rounded up to an odd multiple
  of 16 floats. The product writes the block's first ``end`` columns, the
  rest hold -inf, so the shift and ``exp2`` run over contiguous memory
  while row sums, PV and the capture read the first ``end`` columns. Panels
  and buffers are freed before the MLP. A one-row tile keeps the plain
  product (numpy sends it to gemv, whose sums a panel would round
  differently), and so does a one-tile range (a decode step, a question
  over a compressed cache), which reads each key once. Every multi-row
  product from a panel is bitwise the plain product. A plain-product tile
  that captures nothing scores all heads in one batched product of
  (heads, rows, columns), then masks, runs ``exp2``, sums rows, multiplies
  by V and divides once for all heads; numpy makes each head's BLAS call
  on the same operands as a loop over heads would, so the bits are the
  loop's. Tiles that capture or score from panels loop over heads, so no
  score block grows. A pass's fixed costs are resolved once: each layer's
  weights and the query scale at ``Model`` construction, the ones vector
  kept and grown like the rotary table.
* A tile reads only the keys and values and writes only its own rows, so
  a range of several tiles that scores at least ``SPLIT_MIN_SCORES``
  elements deals them round-robin to ``TILE_WORKERS`` shares: the calling
  thread runs the first, a pool made for the split the rest, and the first
  failing share in that order raises. Importing this module pins numpy's
  bundled OpenBLAS to one thread for the whole process (``_pin_blas``), so
  parallelism comes only from the tile workers, one per usable core; where
  numpy links another BLAS, BLAS is left alone and one worker runs. Any
  other range calls the kernel directly, with no thread set-up. The caller
  builds the panels and one score buffer per share before the pool starts,
  and runs the tiles holding observer rows itself, in tile order, so their
  capture contributions add in tile-then-head order as on one thread. Each
  tile makes the same one-thread BLAS calls on any thread, so no output
  depends on the core count or on the BLAS environment variables.

A prefill can capture how a designated observer span (guidance tokens)
attends: per layer, one vector over columns holding the mean over heads and
observer rows of their attention probabilities, which is all compression
ranks context tokens by. The kernel builds it from the tiles it already
holds, one GEMV per tile and head that weighs each observer row's ``exp2``
scores by 1 / (n_heads * n_obs * row sum), so no per-head, per-row
probability matrix is ever stored.
"""

from __future__ import annotations

import contextvars
import ctypes
import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import ClassVar

import numpy as np

from .errors import PositionOverflowError, UsageError
from .vocab import SEP, TokenSequence, Vocabulary

F32 = np.float32

ATTENTION_BLOCK = 64
# the causal mask of one diagonal tile: entry (i, j) is True when j > i
_FUTURE = np.triu(np.ones((ATTENTION_BLOCK, ATTENTION_BLOCK), dtype=bool), k=1)
# models whose score_bound is at most this attend without the row-max shift
SHIFT_FREE_BOUND = 64.0
# key rows per block when a pass transposes its keys into panels
PANEL_COPY_ROWS = 256
# a layer's MLP runs over max(1, S // MLP_BLOCK) row blocks of equal size
MLP_BLOCK = 1024
# a range splits its tiles over threads only when it scores at least this
# many elements (heads x rows x columns): a thread's start costs about
# 0.1-0.2 ms, and a 512-row eval-model prefill ran slower on two workers
SPLIT_MIN_SCORES = 1 << 22


def _pin_blas() -> int:
    """Set numpy's bundled OpenBLAS to one thread and return the tile worker
    count, the cores this process may run on. Where numpy links another
    BLAS (no handle, or no ``scipy_openblas_set_num_threads64_`` in it),
    BLAS is left as it is and one worker runs. The extension module's handle
    resolves the symbol, as dlsym searches its dependencies too."""
    try:
        set_threads = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return 1
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


TILE_WORKERS = _pin_blas()

# init_diagnostic_model needs room for one sink channel plus near-orthogonal
# random codes; below this width the code construction cannot separate tokens.
DIAGNOSTIC_MIN_WIDTH = 64
_DIAGNOSTIC_SEED = 0xD1A6
_DIAGNOSTIC_GAIN = 24.0
_DIAGNOSTIC_SINK_DOT = 0.5
_DIAGNOSTIC_CROSS_LIMIT = 0.25


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    hidden_size: int
    head_dim: int
    vocab_size: int
    max_position: int
    rotary_enabled: bool = True
    rotary_base: float = 10000.0

    def __post_init__(self):
        if self.hidden_size != self.n_heads * self.head_dim:
            raise UsageError(
                f"hidden_size {self.hidden_size} != n_heads {self.n_heads} x head_dim {self.head_dim}"
            )
        if min(self.n_layers, self.n_heads, self.head_dim) < 1:
            raise UsageError("n_layers, n_heads and head_dim must be >= 1")
        if self.vocab_size < 2:
            raise UsageError("vocab_size must be >= 2")
        if self.max_position < 1:
            raise UsageError("max_position must be >= 1")
        if self.rotary_enabled and self.head_dim % 2 != 0:
            raise UsageError("head_dim must be even when rotary positions are enabled")


@dataclass(frozen=True)
class GenerationParams:
    max_new_tokens: int = 24
    stop_tokens: ClassVar[tuple[int, ...]] = (SEP,)

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise UsageError("max_new_tokens must be >= 1")


class KvCache:
    """Per-layer key/value rows; row i of every layer holds position i.

    Keys are stored unrotated, as compressors gather them. ``rotated_keys``
    serves them rotated from a per-layer shadow that rotates only the rows
    added since it was last read. The constructor takes each layer's keys
    rotated to positions 0..r-1 as ``rotated`` when it has them (a fork its
    source's), so only a cache built without them (the segment walk's
    survivors) fills the shadow on first read. With rotary off the keys are
    their own shadow, and so are the rotated keys a compressed cache
    ``adopt``s. Every buffer carries headroom: the constructor copies its n
    rows into buffers of ``headroom(n)`` rows, shadow included, and outgrowing
    one reallocates it to ``headroom(need)`` rows, so neither an appended
    token nor a short question copies the cache. ``adopt`` takes over
    buffers that already have their headroom. A cache writes no row below
    the rows it was built with, so adopted rows never change.
    ``keys``, ``values`` and ``positions`` are exact-length views. A cache
    is owned by exactly one in-flight inference; callers that must not
    disturb a cache fork it.
    """

    __slots__ = ("_keys", "_values", "_rows", "_rot", "_done")

    def __init__(self, keys, values, rotated=None):
        self._rows = [k.shape[0] for k in keys]
        self._keys, self._values = [with_headroom(k) for k in keys], [with_headroom(v) for v in values]
        self._rot = [np.empty_like(b) for b in self._keys]
        self._done = [0] * len(keys) if rotated is None else [r.shape[0] for r in rotated]
        for r, rb in zip(rotated or (), self._rot):
            rb[: r.shape[0]] = r

    @classmethod
    def adopt(cls, n: int, keys, values) -> "KvCache":
        """A cache of the first `n` rows of each layer's `keys` and `values`
        buffers, the keys rotated to positions 0..n-1, that takes the
        buffers over instead of copying them; their rows past `n` are its
        headroom. The keys and the shadow share one list of buffers, so
        ``rotated_keys`` rotates appended key rows in place, and ``keys``
        and ``fork``, which need unrotated keys, raise UsageError."""
        cache = cls.__new__(cls)
        cache._keys = cache._rot = list(keys)
        cache._values, cache._rows, cache._done = list(values), [n] * len(keys), [n] * len(keys)
        return cache

    @classmethod
    def empty(cls, config: ModelConfig) -> "KvCache":
        d = config.hidden_size
        return cls(
            [np.empty((0, d), F32) for _ in range(config.n_layers)],
            [np.empty((0, d), F32) for _ in range(config.n_layers)],
        )

    @property
    def length(self) -> int:
        return self._rows[0]

    @property
    def keys(self) -> list[np.ndarray]:
        if self._keys is self._rot:
            raise UsageError("an adopted cache holds rotated keys: read rotated_keys")
        return [k[:n] for k, n in zip(self._keys, self._rows)]

    @property
    def values(self) -> list[np.ndarray]:
        return [v[:n] for v, n in zip(self._values, self._rows)]

    @property
    def positions(self) -> list[np.ndarray]:
        return [np.arange(n, dtype=np.int64) for n in self._rows]

    def fork(self, rows: int | None = None) -> "KvCache":
        """An independent copy of the first `rows` rows (all by default),
        rotated-key shadow included. Row i holds position i and attention
        is causal, so a head fork of a plain prefill of ``ids`` holds a
        plain prefill of ``ids[:rows]``; bitwise so when `rows` is a
        multiple of ATTENTION_BLOCK, since every row then sat in a tile of
        the same columns. Compressors start from a head fork of one shared
        context prefill. Like every cache it gets the constructor's
        headroom, so appending up to an eighth of `rows` reallocates nothing."""
        n = self.length if rows is None else rows
        return KvCache([k[:n] for k in self.keys], [v[:n] for v in self.values],
                       [r[: min(d, n)] for r, d in zip(self._rot, self._done)])

    def extend(self, layer: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Commit `m` more rows to `layer`, growing its buffers if needed, and
        return writable (keys, values) views of those rows; the caller fills
        them before anything reads the layer. ``_forward`` writes its key and
        value projections straight into them."""
        n = self._rows[layer]
        if n + m > self._keys[layer].shape[0]:
            self._keys[layer] = _grown(self._keys[layer], n, n + m)
            self._values[layer] = _grown(self._values[layer], n, n + m)
        self._rows[layer] = n + m
        return self._keys[layer][n : n + m], self._values[layer][n : n + m]

    def append(self, layer: int, k: np.ndarray, v: np.ndarray, positions: np.ndarray) -> None:
        """Add rows to `layer`; `positions` are their row indices."""
        kb, vb = self.extend(layer, k.shape[0])
        kb[...], vb[...] = k, v

    def rotated_keys(self, layer: int, config: ModelConfig) -> np.ndarray:
        """The keys of `layer` rotated to their positions, rotating only the
        rows [done, n) that no earlier call rotated."""
        n = self._rows[layer]
        if not config.rotary_enabled:
            return self._keys[layer][:n]
        done = self._done[layer]
        if done < n:
            fresh = rotate(self._keys[layer][done:n], done, config)
            if n > self._rot[layer].shape[0]:
                self._rot[layer] = _grown(self._rot[layer], done, n)
            self._rot[layer][done:n] = fresh
            self._done[layer] = n
        return self._rot[layer][:n]


def headroom(n: int) -> int:
    """The rows a buffer for `n` rows gets: n and an eighth more, so up to
    that many appended rows reallocate nothing."""
    return n + n // 8


def with_headroom(rows: np.ndarray, need: int | None = None) -> np.ndarray:
    """A copy of `rows` in a buffer with headroom for `need` rows, by
    default as many as `rows` has."""
    out = np.empty((headroom(len(rows) if need is None else need),) + rows.shape[1:], rows.dtype)
    out[: len(rows)] = rows
    return out


def _grown(buf: np.ndarray, used: int, need: int) -> np.ndarray:
    """A reallocation: `buf`'s first `used` rows in a buffer with headroom
    for `need` rows."""
    return with_headroom(buf[:used], need)


@dataclass
class AttentionCapture:
    """Per-layer tensors recorded during one prefill.

    ``layers[l]`` holds the observer span's post-softmax attention averaged
    over heads and observer rows, shape (total_tokens,) where total_tokens
    counts all cached plus current tokens after the prefill. It sums to 1,
    and columns past the last observer row are zero. Empty list when no
    observer span was requested.

    ``queries[l]`` holds the rotated query rows of the query span, shape
    (span_len, hidden_size); None when no query span was requested.
    """

    layers: list[np.ndarray]
    queries: list[np.ndarray] | None = None

    @property
    def total_tokens(self) -> int:
        return self.layers[0].shape[0]


@dataclass
class Model:
    """Weights plus what a forward pass reads of them, resolved once:
    ``layers[l]`` holds layer l's weights in ``LAYER_TENSORS`` order and
    ``scale`` is the base-2 query scale log2(e)/sqrt(d_k)."""

    config: ModelConfig
    weights: dict[str, np.ndarray]
    fingerprint: bytes = field(default=b"", repr=False)
    score_bound: float = field(default=np.inf, init=False, repr=False)
    layers: list[tuple[np.ndarray, ...]] = field(default_factory=list, init=False, repr=False, compare=False)
    scale: np.float32 = field(default=F32(1), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.fingerprint:
            self.fingerprint = fingerprint_weights(self.config, self.weights)
        self.score_bound = score_bound(self.config, self.weights)
        self.layers = [tuple(self.weights[f"layers.{i}.{name}"] for name in LAYER_TENSORS)
                       for i in range(self.config.n_layers)]
        self.scale = F32(np.log2(np.e) / np.sqrt(self.config.head_dim))


LAYER_TENSORS = ("attn_norm", "q_proj", "k_proj", "v_proj", "o_proj", "mlp_norm", "mlp_fc1", "mlp_fc2")


def tensor_names(config: ModelConfig) -> list[str]:
    """Canonical tensor set of the flat weight container, in storage order."""
    names = ["embedding"]
    for i in range(config.n_layers):
        names += [f"layers.{i}.{name}" for name in LAYER_TENSORS]
    names += ["final_norm", "lm_head"]
    return names


def tensor_shape(name: str, config: ModelConfig) -> tuple[int, ...]:
    d, v = config.hidden_size, config.vocab_size
    if name == "embedding":
        return (v, d)
    if name == "lm_head":
        return (d, v)
    if name.endswith("_norm"):
        return (d,)
    if name.endswith("mlp_fc1"):
        return (d, 4 * d)
    if name.endswith("mlp_fc2"):
        return (4 * d, d)
    return (d, d)


def fingerprint_weights(config: ModelConfig, weights: dict[str, np.ndarray]) -> bytes:
    h = hashlib.sha256()
    h.update(repr(config).encode())
    for name in tensor_names(config):
        h.update(name.encode())
        h.update(np.ascontiguousarray(weights[name]).tobytes())
    return h.digest()


def score_bound(config: ModelConfig, weights: dict[str, np.ndarray]) -> float:
    """A bound c on |score| in base-2 units over every layer and head, for
    keys and queries this model computes; inf when a weight is not finite.

    RMSNorm scales a row to root-mean-square at most 1, so after the gain
    g the normed row ``hn`` has norm at most sqrt(d) * max|g|. A head's
    query is ``hn @ Wq[:, h]``, of norm at most ||hn|| * sigma(Wq[:, h])
    with sigma the spectral norm, and likewise its key; rotary rotation
    preserves both norms. sigma(W)**2, the largest eigenvalue of W^T W, is
    at most that matrix's largest absolute row sum, whose square root
    sigma^(W) takes one small product instead of an SVD; it equals sigma
    for a scaled identity. So, by Cauchy-Schwarz, the kernel's scores
    ``q . k * log2(e) / sqrt(d_k)`` satisfy, in float64,

        |s| <= c = max over (l, h) of
                   d * max|g_l|^2 * sigma^(Wq_l[:, h]) * sigma^(Wk_l[:, h])
                   * log2(e) / sqrt(d_k).

    With c <= SHIFT_FREE_BOUND = 64, every term ``2**s`` lies in
    [2**-64, 2**64]: a row's largest term, and so its sum, is a normal
    float32 far above 0, and a sum over ``max_position`` terms stays far
    below float32's 2**128. The kernel then needs no row-max shift.
    Finiteness is checked first, as a NaN c would compare false.
    """
    if not all(np.isfinite(w).all() for w in weights.values()):
        return float(np.inf)
    d, dk = config.hidden_size, config.head_dim
    c = 0.0
    for layer in range(config.n_layers):
        gain = float(np.abs(weights[f"layers.{layer}.attn_norm"].astype(np.float64)).max())
        wq, wk = (weights[f"layers.{layer}.{n}"].astype(np.float64) for n in ("q_proj", "k_proj"))
        for h in range(config.n_heads):
            cols = slice(h * dk, (h + 1) * dk)
            sq, sk = (np.abs(w[:, cols].T @ w[:, cols]).sum(axis=1).max() for w in (wq, wk))
            c = max(c, d * gain * gain * float(np.sqrt(sq * sk)) * np.log2(np.e) / np.sqrt(dk))
    return c


def init_random_model(config: ModelConfig, seed: int) -> Model:
    """Deterministic random model: projections uniform in [-1/sqrt(d), 1/sqrt(d)],
    norm gains fixed at 1."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(config.hidden_size)
    weights = {}
    for name in tensor_names(config):
        shape = tensor_shape(name, config)
        if name.endswith("_norm"):
            weights[name] = np.ones(shape, F32)
        else:
            weights[name] = rng.uniform(-bound, bound, size=shape).astype(F32)
    return Model(config, weights)


def init_diagnostic_model(config: ModelConfig, vocab: Vocabulary) -> Model:
    """Attention oracle: near-orthogonal token codes and identity-scaled q/k.

    Construction (all deterministic, independent of `config` randomness):

    * every token code is unit-norm ``[a, b * r]`` with ``a = 0.5`` and ``r``
      random signs on the remaining dims, rejection-sampled so any two codes'
      random parts correlate at most 0.25;
    * the separator token is the pure sink direction ``[1, 0, ...]``.

    Dot products are then 1.0 for an id match, 0.5 against the sink, and at
    most 0.4375 between distinct ids, so attention from a token strictly
    peaks on same-id columns and falls back to the sink when no match
    exists. v is identity, o and the MLP are zero (hidden states stay equal
    to the embeddings at every layer), the head is zero (all logits tie).
    Rotary is disabled so equal ids score equally regardless of distance.
    """
    d = config.hidden_size
    if d < DIAGNOSTIC_MIN_WIDTH:
        raise UsageError(f"diagnostic model needs hidden_size >= {DIAGNOSTIC_MIN_WIDTH}, got {d}")
    if config.vocab_size < len(vocab):
        raise UsageError(
            f"config.vocab_size {config.vocab_size} smaller than vocabulary {len(vocab)}"
        )
    cfg = replace(config, rotary_enabled=False)

    rng = np.random.default_rng(_DIAGNOSTIC_SEED)
    a = _DIAGNOSTIC_SINK_DOT
    b = float(np.sqrt(1.0 - a * a))
    emb = np.zeros((cfg.vocab_size, d), F32)
    codes = np.zeros((cfg.vocab_size, d - 1))
    for t in range(cfg.vocab_size):
        if t == SEP:
            emb[t, 0] = 1.0
            continue
        while True:
            r = (rng.integers(0, 2, size=d - 1) * 2 - 1) / np.sqrt(d - 1)
            if t == 0 or np.abs(codes[:t] @ r).max() <= _DIAGNOSTIC_CROSS_LIMIT:
                break
        codes[t] = r
        emb[t, 0] = a
        emb[t, 1:] = b * r

    d_k = cfg.head_dim
    gamma = _DIAGNOSTIC_GAIN * np.sqrt(d_k) / d
    weights = {}
    for name in tensor_names(cfg):
        shape = tensor_shape(name, cfg)
        if name == "embedding":
            weights[name] = emb
        elif name.endswith("_norm"):
            weights[name] = np.ones(shape, F32)
        elif name.endswith("q_proj"):
            weights[name] = (gamma * np.eye(d)).astype(F32)
        elif name.endswith(("k_proj", "v_proj")):
            weights[name] = np.eye(d, dtype=F32)
        else:
            weights[name] = np.zeros(shape, F32)
    return Model(cfg, weights)


_EPS = F32(1e-6)
# the tanh-GELU's constants: sqrt(2/pi), the cubic's coefficient, 1 and 1/2
_GELU_C, _GELU_A, _ONE, _HALF = F32(np.sqrt(2.0 / np.pi)), F32(0.044715), F32(1.0), F32(0.5)


def _rmsnorm(x: np.ndarray, gain: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """``x * inv * gain`` with ``inv`` the reciprocal root mean square of each
    row; the squares' buffer becomes the result, so one (rows, d) array is
    allocated, or none when `squares` holds them and `x` is normed in place.
    The mean is a sum divided by d, bitwise what ``np.mean`` gives for
    float32 rows, without its overhead."""
    out = np.square(x, out=squares)
    mean = np.add.reduce(out, axis=-1, keepdims=True) / x.shape[-1]
    inv = 1.0 / np.sqrt(mean + _EPS)
    out = out if squares is None else x
    np.multiply(x, inv, out=out)
    out *= gain
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximate GELU, overwriting and returning `x`:
    ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x)))`` evaluated in
    that order (float addition and multiplication commute bitwise), with one
    temporary the size of `x`. Exactness is irrelevant, determinism is not."""
    t = _GELU_A * x
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    t += _ONE
    x *= _HALF
    x *= t
    return x


_ROTARY_TABLES: dict[tuple[int, int, float], tuple[np.ndarray, np.ndarray]] = {}


def _rotary_table(config: ModelConfig, size: int) -> tuple[np.ndarray, np.ndarray]:
    """float32 cos and sin of ``position * inv_freq`` for positions [0, >= size),
    one column per (head, pair), kept per (n_heads, head_dim, rotary_base)
    and regrown past the largest position asked for."""
    key = (config.n_heads, config.head_dim, config.rotary_base)
    tables = _ROTARY_TABLES.get(key)
    if tables is None or tables[0].shape[0] < size:
        half = config.head_dim // 2
        inv_freq = config.rotary_base ** (-np.arange(half, dtype=np.float64) / half)
        angles = np.arange(headroom(size), dtype=np.float64)[:, None] * inv_freq[None, :]
        tables = _ROTARY_TABLES[key] = tuple(
            np.tile(f(angles).astype(F32), config.n_heads) for f in (np.cos, np.sin)
        )
    return tables


_ONES = np.ones(0, F32)


def _ones(size: int) -> np.ndarray:
    """A float32 vector of at least `size` ones, kept and regrown past the
    largest size asked for, like the rotary table."""
    global _ONES
    if _ONES.shape[0] < size:
        _ONES = np.ones(headroom(size), F32)
    return _ONES


def rotate(mat: np.ndarray, start: int, config: ModelConfig) -> np.ndarray:
    """Rotary-rotate per-head key/query rows that sit at the consecutive
    positions ``start, start + 1, ...``.

    Angles are accumulated in float64 so large positions stay well
    conditioned, and read as one slice of the float32 table, whose columns
    line up with the rows' (even, odd) pairs; the result is float32.
    Identity when rotary is disabled.
    """
    if not config.rotary_enabled or mat.shape[0] == 0:
        return mat
    if start < 0:
        raise UsageError("rotary positions must be >= 0")
    n, d = mat.shape
    cos_t, sin_t = _rotary_table(config, start + n)
    cos, sin = cos_t[start : start + n], sin_t[start : start + n]
    x = mat.reshape(n, d // 2, 2)
    x1, x2 = x[..., 0], x[..., 1]
    out = np.empty_like(x)
    out[..., 0] = x1 * cos - x2 * sin
    out[..., 1] = x1 * sin + x2 * cos
    return out.reshape(n, d)


def prefill(model, cache: KvCache, ids, observer_span=None, query_span=None):
    """Run the prompt-processing phase over `ids`, growing `cache` in place.

    New rows are numbered by `_forward`, contiguously after the cache.
    observer_span: optional (start, end) local index range into `ids`; when
        nonempty, the capture holds those rows' attention at every layer,
        averaged over heads and rows into one vector over all columns.
    query_span: optional (start, end) local range; when nonempty, the
        capture holds those rows' rotated query vectors at every layer.

    Returns an AttentionCapture when either span was requested, else None.
    Logits are never computed here; follow with decode_step.
    """
    cfg = model.config
    token_ids = np.asarray(getattr(ids, "ids", ids), dtype=np.int64)
    S = token_ids.shape[0]
    if S == 0:
        return None
    if token_ids.min() < 0 or token_ids.max() >= cfg.vocab_size:
        raise UsageError("token id outside model vocabulary")
    for name, span in (("observer", observer_span), ("query", query_span)):
        if span is not None and span[1] > span[0] and not (0 <= span[0] and span[1] <= S):
            raise UsageError(f"{name} span {span} outside sequence of length {S}")
    return _forward(model, cache, token_ids, False, observer_span, query_span)[1]


def _forward(model, cache: KvCache, token_ids, logits, observer_span=None, query_span=None):
    """The layer loop of prefill and decode_step; grows `cache` in place and
    returns (logits or None, capture or None). New rows take the positions
    after the cache's last one; spans arrive checked. Each layer projects its
    keys and values straight into the cache's buffers (``KvCache.extend``)
    and attends over one row range, all rows when its output feeds on, else
    (last layer, no logits) the observer rows; it leaves every rotated-key
    shadow complete. A layer whose output nothing reads norms its rows in
    place and projects them per MLP row block, gathering a first layer's
    per block, and projects queries only for the normed rows covering both
    spans. The range runs in ATTENTION_BLOCK-row
    tiles from its first row: queries scaled to base-2 scores against all
    columns a tile's last row sees, the causal mask on the diagonal tile
    only, the row-max shift only when the model's score bound exceeds
    SHIFT_FREE_BOUND, exp2, row sums as one GEMV, and the softmax divide
    applied to the (rows, d_k) output. A range of more than one tile scores
    its multi-row tiles from per-head (d_k, columns) key panels, transposed
    once, into one contiguous -inf-padded block per tile of a score buffer
    for the pass; one-row tiles and one-tile ranges use the plain product.
    Such a range of at least SPLIT_MIN_SCORES scores splits its tiles
    without observer rows over up to TILE_WORKERS threads, a worker per
    core while BLAS runs on one thread (``_pin_blas``), each with its own
    score buffer (``_attend`` runs one share, ``_run_shares`` them all);
    any other range calls ``_attend`` once. Captured observer rows
    add their probabilities, each divided by H * n_obs, into the layer's
    capture vector with one GEMV per tile and head, in tile then head
    order, on the calling thread. The MLP runs over max(1, S // MLP_BLOCK)
    equal row blocks."""
    cfg = model.config
    S = token_ids.shape[0]
    base = cache.length
    if base + S > cfg.max_position:
        raise PositionOverflowError(f"position {base + S - 1} exceeds max_position {cfg.max_position}")
    # grow the long-lived rotary table and ones vector before this pass's
    # temporaries, so that they cannot pin them in the heap once freed
    if cfg.rotary_enabled:
        _rotary_table(cfg, base + S)
    ones = _ones(base + S)
    obs_lo, obs_hi = (observer_span if observer_span is not None and observer_span[1] > observer_span[0]
                      else (0, 0))
    q_lo, q_hi = query_span if query_span is not None and query_span[1] > query_span[0] else (0, 0)

    H, d = cfg.n_heads, cfg.hidden_size
    shift = model.score_bound > SHIFT_FREE_BOUND
    embedding = model.weights["embedding"]
    x = None  # the embedding rows, gathered whole by a layer whose output feeds on
    n_obs = obs_hi - obs_lo
    captures = [np.zeros(base + S, F32) for _ in range(cfg.n_layers)] if n_obs else []
    query_rows: list[np.ndarray] = []

    for layer, (gain, wq, wk, wv, wo, mlp_gain, fc1, fc2) in enumerate(model.layers):
        need_out = logits or layer < cfg.n_layers - 1
        if need_out and x is None:
            x = embedding[token_ids]
        lo, hi = (0, S) if need_out else (obs_lo, obs_hi)
        # queries for rows [a, b) only, which cover both spans; at least
        # ATTENTION_BLOCK of them, as a product of a few rows can take another
        # BLAS path (numpy sends one row to gemv) whose sums round differently
        a = b = S
        if hi > lo or q_hi > q_lo:
            a = min(lo if hi > lo else S, q_lo if q_hi > q_lo else S)
            b = min(S, max(hi, q_hi, a + ATTENTION_BLOCK))
            a = max(0, min(a, b - ATTENTION_BLOCK))
        k_new, v_new = cache.extend(layer, S)
        if need_out:
            hn = _rmsnorm(x, gain)
            np.matmul(hn, wk, out=k_new)
            np.matmul(hn, wv, out=v_new)
        else:
            # per MLP row block: gather (x is None), norm in place with the
            # squares in its value rows, project; hn keeps the normed rows [a, b)
            hn = np.empty((b - a, d), F32)
            n = max(1, S // MLP_BLOCK)
            for i in range(n):
                r0, r1 = i * S // n, (i + 1) * S // n
                xb = embedding[token_ids[r0:r1]] if x is None else x[r0:r1]
                _rmsnorm(xb, gain, squares=v_new[r0:r1])
                np.matmul(xb, wk, out=k_new[r0:r1])
                np.matmul(xb, wv, out=v_new[r0:r1])
                if max(a, r0) < min(b, r1):
                    hn[max(a, r0) - a : min(b, r1) - a] = xb[max(a, r0) - r0 : min(b, r1) - r0]
            x = xb = None
        k_rot = cache.rotated_keys(layer, cfg)
        if a == b:
            continue
        q = rotate(hn @ wq, base + a, cfg)
        del hn
        if q_hi > q_lo:
            query_rows.append(q[q_lo - a : q_hi - a].copy())
        q *= model.scale
        v_all = cache._values[layer]  # tiles read its rows [0, end)
        out = np.empty((S, d), F32) if need_out else None
        tiles = range(lo, hi, ATTENTION_BLOCK)
        # a range of several tiles reads each key once per tile: transpose the
        # keys once into per-head (d_k, columns) panels, head h's in rows cols,
        # and split its tiles over workers, each with one score buffer for its
        # multi-row tiles
        panels, shares, bufs = None, [tiles], [None]
        if len(tiles) > 1:
            n_cols = base + hi
            panels = np.empty((d, n_cols), F32)
            for j in range(0, n_cols, PANEL_COPY_ROWS):  # blocks of keys stay in cache while transposed
                panels[:, j : j + PANEL_COPY_ROWS] = k_rot[j : min(j + PANEL_COPY_ROWS, n_cols)].T
            if H * (hi - lo) * (base + hi) >= SPLIT_MIN_SCORES:
                # tiles holding observer rows add into the capture on this
                # thread, in tile order; the rest are dealt round-robin from
                # the last one, so the caller takes the costliest share and
                # seldom sleeps in the join: a thread that sleeps can wake on
                # the other core, away from its cached data
                observed = tiles[(obs_lo - lo) // ATTENTION_BLOCK : (obs_hi - lo - 1) // ATTENTION_BLOCK + 1]
                rest = [r0 for r0 in tiles[::-1] if r0 not in observed]
                workers = max(1, min(TILE_WORKERS, len(rest)))
                shares = [[*observed, *rest[::workers]], *(rest[i::workers] for i in range(1, workers))]
            # room for any tile's padded block; allocated on this thread, as a
            # worker's own heap arena would keep its pages past the pass
            bufs = [np.empty((ATTENTION_BLOCK * (n_cols + 32),), F32) for _ in shares]
        kernel = (captures[layer] if n_obs else None, hi, base, q, a, k_rot, panels, v_all, ones, out, shift,
                  (obs_lo, obs_hi), H)
        if len(shares) == 1:
            _attend(tiles, bufs[0], *kernel)
        else:
            _run_shares([partial(_attend, share, buf, *kernel) for share, buf in zip(shares, bufs)])

        if need_out:
            x += out @ wo
            del q, out, panels, bufs, kernel  # freed before the MLP
            # the MLP in blocks of at least MLP_BLOCK rows: its (rows, 4d)
            # temporaries stay cache-sized, and no product becomes a gemv
            n = max(1, S // MLP_BLOCK)
            for i in range(n):
                xb = x[i * S // n : (i + 1) * S // n]
                up = _rmsnorm(xb, mlp_gain) @ fc1
                xb += _gelu(up) @ fc2
                del up

    if logits:
        return _rmsnorm(x, model.weights["final_norm"]) @ model.weights["lm_head"], None
    if n_obs or q_hi > q_lo:
        return None, AttentionCapture(captures, query_rows if q_hi > q_lo else None)
    return None, None


def _attend(share, buf, capture, hi, base, q, a, k_rot, panels, v_all, ones, out, shift, obs, H):
    """Attend the tiles of a range ending at row `hi` that start at the rows
    in `share`: each tile's rows of `out` (when not None) and, for its
    observer rows (`obs`, a local (start, end)), one contribution per head
    added into the capture vector `capture`. `q` holds the scaled queries of
    rows from `a` on; with `panels`, multi-row tiles score into a block of
    `buf`. A plain-product tile without observer rows scores all heads at
    once, as (H, rows, columns), and makes per head the BLAS calls a loop
    over heads makes; other tiles loop over heads. Tiles read only the keys
    and values and write only their own rows, so ranges can split their
    tiles over threads; the tiles holding observer rows stay on one thread,
    in tile order, as they add into `capture`."""
    dk = q.shape[1] // H
    obs_lo, obs_hi = obs
    for r0 in share:
        r1 = min(r0 + ATTENTION_BLOCK, hi)
        end = base + r1
        # row r sees columns [0, base + r]: only the diagonal tile is masked
        future = _FUTURE[: r1 - r0, : r1 - r0]
        c0, c1 = max(r0, obs_lo), min(r1, obs_hi)
        if c0 >= c1 and (panels is None or r1 == r0 + 1):
            # a plain-product tile that captures nothing, all heads at once:
            # (H, rows, end) scores, each head's the per-head loop's product
            # and so its bits (numpy makes the same BLAS call per head)
            n = r1 - r0
            scores = (q[r0 - a : r1 - a].reshape(n, H, dk).transpose(1, 0, 2)
                      @ k_rot[:end].reshape(end, H, dk).transpose(1, 2, 0))
            if n > 1:
                scores[:, :, base + r0 :][:, future] = -np.inf
            if shift:
                scores -= scores.max(axis=2, keepdims=True)
            np.exp2(scores, out=scores)
            rowsum = (scores @ ones[:end])[..., None]
            np.divide(scores @ v_all[:end].reshape(end, H, dk).transpose(1, 0, 2), rowsum,
                      out=out[r0:r1].reshape(n, H, dk).transpose(1, 0, 2))
            continue
        block = None
        if panels is not None and r1 > r0 + 1:
            # one contiguous (rows, wt) block of the buffer, wt = end padded
            # to an odd number of 16-float (64-byte) lines, as rows a power
            # of two apart share cache sets; its padding columns hold -inf
            wt = ((end + 15) // 16 | 1) * 16
            block = buf[: (r1 - r0) * wt].reshape(r1 - r0, wt)
        for h in range(H):
            cols = slice(h * dk, (h + 1) * dk)
            if block is not None:
                block[:, end:] = -np.inf
                scores = np.matmul(q[r0 - a : r1 - a, cols], panels[cols, :end], out=block[:, :end])
                tile = block
            else:  # numpy sends one row to gemv, which a panel would round differently
                scores = tile = q[r0 - a : r1 - a, cols] @ k_rot[:end, cols].T
            if r1 > r0 + 1:  # a one-row tile has no future column
                scores[:, base + r0 :][future] = -np.inf
            if shift:
                tile -= tile.max(axis=1, keepdims=True)
            np.exp2(tile, out=tile)
            rowsum = (scores @ ones[:end])[:, None]
            if out is not None:
                out[r0:r1, cols] = (scores @ v_all[:end, cols]) / rowsum
            if c0 < c1:
                rows = slice(c0 - r0, c1 - r0)
                capture[:end] += (F32(1 / (H * (obs_hi - obs_lo))) / rowsum[rows, 0]) @ scores[rows]
            scores = tile = None  # a plain product is freed before the next head's


def _run_shares(calls) -> None:
    """Call each of `calls`, the first on this thread and the others on a
    pool, submitted first, each in a copy of this context (numpy 2 keeps
    ``np.errstate`` there). The pool is joined even when the first call
    raises; of several exceptions the earliest in call order is raised."""
    with ThreadPoolExecutor(len(calls) - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, c) for c in calls[1:]]
        calls[0]()
    for f in futures:
        f.result()


def decode_step(model, cache: KvCache, token_id: int):
    """Process one token, append its K/V to every layer, return the logits."""
    if not (0 <= token_id < model.config.vocab_size):
        raise UsageError(f"token id {token_id} outside model vocabulary")
    logits, _ = _forward(model, cache, np.array([token_id]), True)
    return logits[0], cache


def generate_greedy(model, cache: KvCache, prompt, params: GenerationParams):
    """Greedy decode after prefilling the prompt; mutates `cache`.

    Argmax ties resolve to the lowest token id. Stops on a stop token
    (excluded from the output) or after max_new_tokens.
    """
    ids = list(getattr(prompt, "ids", prompt))
    if not ids:
        raise UsageError("prompt must be nonempty")
    if len(ids) > 1:
        prefill(model, cache, ids[:-1])
    current = ids[-1]
    out: list[int] = []
    for _ in range(params.max_new_tokens):
        logits, _ = decode_step(model, cache, current)
        nxt = int(np.argmax(logits))
        if nxt in params.stop_tokens:
            break
        out.append(nxt)
        current = nxt
    return TokenSequence(ids=out)
