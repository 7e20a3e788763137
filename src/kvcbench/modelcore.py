"""Minimal deterministic decoder-only transformer with an explicit KV cache.

The runtime is CPU-only float32 numpy. Architecture: token embedding,
pre-norm blocks (RMSNorm, multi-head attention with optional rotary
positions, GELU MLP), final RMSNorm, linear head.

Three properties of the design matter to everything downstream:

* Row i of every layer holds position i, and keys are stored **unrotated**,
  so survivors of a compression pass can be gathered, renumbered to
  contiguous positions and re-rotated exactly. Attention reads keys from a
  per-layer rotated shadow that rotates each row once. Every forward pass
  leaves every layer's shadow complete; only a cache built from gathered
  rows starts with an empty one, filled on first read. Rows are always
  rotated in runs of consecutive positions, so ``rotate`` takes the first
  position and reads one slice of a float32 cos/sin table with a column
  per (head, pair), cached per (n_heads, head_dim, rotary_base). Every
  cache buffer carries an eighth of headroom from construction on.
* One layer loop, ``_forward``, serves prefill, capture and decode, and
  numbers new rows itself after the cache's last position. Each layer
  attends over one range of rows. ``prefill`` never produces logits (the
  first answer token comes from ``decode_step``), so its last layer's
  range is just the observer rows, which roughly halves prefill cost on a
  two-layer model.
* Attention is one blocked kernel. The range is cut into tiles of
  ``ATTENTION_BLOCK`` rows starting at its first row; a tile of rows
  [r0, r1) scores columns [0, base + r1) with queries pre-multiplied by
  1/sqrt(d_k). Only its diagonal columns [base + r0, base + r1) can hold a
  future position, so only they are masked, from one constant triangle.
  Softmax normalisation is deferred to the output: ``exp(s - max) @ V`` is
  divided by the row sums, touching (rows, d_k) values instead of
  (rows, columns). Captured observer rows are divided in full, so they
  remain probabilities.

Attention weights for a designated observer span (guidance tokens) can be
captured per layer and head during prefill; compression ranks context
tokens with those rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PositionOverflowError, UsageError
from .vocab import SEP, TokenSequence, Vocabulary

F32 = np.float32

ATTENTION_BLOCK = 64
# the causal mask of one diagonal tile: entry (i, j) is True when j > i
_FUTURE = np.triu(np.ones((ATTENTION_BLOCK, ATTENTION_BLOCK), dtype=bool), k=1)

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
        if self.n_layers < 1:
            raise UsageError("n_layers must be >= 1")
        if self.vocab_size < 2:
            raise UsageError("vocab_size must be >= 2")
        if self.max_position < 1:
            raise UsageError("max_position must be >= 1")
        if self.rotary_enabled and self.head_dim % 2 != 0:
            raise UsageError("head_dim must be even when rotary positions are enabled")


@dataclass(frozen=True)
class GenerationParams:
    max_new_tokens: int = 24
    stop_tokens: tuple[int, ...] = (SEP,)

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise UsageError("max_new_tokens must be >= 1")


class KvCache:
    """Per-layer key/value rows; row i of every layer holds position i.

    Keys are stored unrotated, as KVCC files store them and compressors
    gather them. ``rotated_keys`` serves them rotated from a per-layer
    shadow that rotates only the rows added since it was last read; every
    forward pass reads it, so only a cache built from given rows fills it
    on first read. With rotary off the keys are their own shadow. Every
    buffer carries headroom: the constructor copies its n rows into buffers
    of n + n // 8 rows, shadow included, and outgrowing one reallocates it
    to ``need + need // 8`` rows, so neither an appended token nor a short
    question copies the cache. ``keys``, ``values`` and ``positions`` are
    exact-length views. A cache is owned by exactly one in-flight
    inference; callers that must not disturb a cache fork it.
    """

    __slots__ = ("_keys", "_values", "_rows", "_rot", "_done")

    def __init__(self, keys, values):
        self._rows = [k.shape[0] for k in keys]
        self._keys = [np.empty((n + n // 8,) + k.shape[1:], k.dtype) for n, k in zip(self._rows, keys)]
        self._values = [np.empty_like(b, dtype=v.dtype) for b, v in zip(self._keys, values)]
        self._rot = [np.empty_like(b) for b in self._keys]
        self._done = [0] * len(keys)
        for n, k, v, kb, vb in zip(self._rows, keys, values, self._keys, self._values):
            kb[:n], vb[:n] = k, v

    @classmethod
    def empty(cls, config: ModelConfig) -> "KvCache":
        d = config.hidden_size
        return cls(
            [np.empty((0, d), F32) for _ in range(config.n_layers)],
            [np.empty((0, d), F32) for _ in range(config.n_layers)],
        )

    @property
    def n_layers(self) -> int:
        return len(self._keys)

    @property
    def length(self) -> int:
        return self._rows[0]

    @property
    def keys(self) -> list[np.ndarray]:
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
        twin = KvCache([k[:n] for k in self._keys], [v[:n] for v in self._values])
        twin._done = [min(d, n) for d in self._done]
        for src, dst, d in zip(self._rot, twin._rot, twin._done):
            dst[:d] = src[:d]
        return twin

    def append(self, layer: int, k: np.ndarray, v: np.ndarray, positions: np.ndarray) -> None:
        """Add rows to `layer`; `positions` are their row indices."""
        n, m = self._rows[layer], self._rows[layer] + k.shape[0]
        if m > self._keys[layer].shape[0]:
            self._keys[layer] = _grown(self._keys[layer], n, m)
            self._values[layer] = _grown(self._values[layer], n, m)
        self._keys[layer][n:m] = k
        self._values[layer][n:m] = v
        self._rows[layer] = m

    def rotated_keys(self, layer: int, config: ModelConfig) -> np.ndarray:
        """The keys of `layer` rotated to their positions, rotating only the
        rows [done, n) that no earlier call rotated."""
        done, n = self._done[layer], self._rows[layer]
        keys = self._keys[layer]
        fresh = rotate(keys[done:n], done, config)
        if not config.rotary_enabled:
            return keys[:n]
        if n > self._rot[layer].shape[0]:
            self._rot[layer] = _grown(self._rot[layer], done, n)
        self._rot[layer][done:n] = fresh
        self._done[layer] = n
        return self._rot[layer][:n]


def _grown(buf: np.ndarray, used: int, need: int) -> np.ndarray:
    """A buffer of need + need // 8 rows holding `buf`'s first `used` rows."""
    out = np.empty((need + need // 8,) + buf.shape[1:], buf.dtype)
    out[:used] = buf[:used]
    return out


@dataclass
class AttentionCapture:
    """Per-layer tensors recorded during one prefill.

    ``layers[l]`` holds post-softmax attention of the observer span, shape
    (n_heads, n_observers, total_tokens) where total_tokens counts all
    cached plus current tokens after the prefill. Columns a row could not
    causally see are zero; visible columns sum to 1. Empty list when no
    observer span was requested.

    ``queries[l]`` holds the rotated query rows of the query span, shape
    (span_len, hidden_size); None when no query span was requested.
    """

    layers: list[np.ndarray]
    queries: list[np.ndarray] | None = None

    @property
    def n_observers(self) -> int:
        return self.layers[0].shape[1]

    @property
    def total_tokens(self) -> int:
        return self.layers[0].shape[2]


@dataclass
class Model:
    config: ModelConfig
    weights: dict[str, np.ndarray]
    fingerprint: bytes = field(default=b"", repr=False)

    def __post_init__(self):
        if not self.fingerprint:
            self.fingerprint = fingerprint_weights(self.config, self.weights)


def tensor_names(config: ModelConfig) -> list[str]:
    """Canonical tensor set of the flat weight container, in storage order."""
    names = ["embedding"]
    for i in range(config.n_layers):
        names += [
            f"layers.{i}.attn_norm",
            f"layers.{i}.q_proj",
            f"layers.{i}.k_proj",
            f"layers.{i}.v_proj",
            f"layers.{i}.o_proj",
            f"layers.{i}.mlp_norm",
            f"layers.{i}.mlp_fc1",
            f"layers.{i}.mlp_fc2",
        ]
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


def _rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    inv = 1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + F32(1e-6))
    return (x * inv * gain).astype(F32, copy=False)


def _gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation; exactness is irrelevant, determinism is not
    c = F32(np.sqrt(2.0 / np.pi))
    return F32(0.5) * x * (F32(1.0) + np.tanh(c * (x + F32(0.044715) * x * x * x)))


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
        angles = np.arange(size + size // 8, dtype=np.float64)[:, None] * inv_freq[None, :]
        tables = _ROTARY_TABLES[key] = tuple(
            np.tile(f(angles).astype(F32), config.n_heads) for f in (np.cos, np.sin)
        )
    return tables


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
        nonempty, the capture holds those rows' attention at every layer.
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
    if np.any(token_ids >= cfg.vocab_size) or np.any(token_ids < 0):
        raise UsageError("token id outside model vocabulary")
    for name, span in (("observer", observer_span), ("query", query_span)):
        if span is not None and span[1] > span[0] and not (0 <= span[0] and span[1] <= S):
            raise UsageError(f"{name} span {span} outside sequence of length {S}")
    return _forward(model, cache, token_ids, False, observer_span, query_span)[1]


def _forward(model, cache: KvCache, token_ids, logits, observer_span=None, query_span=None):
    """The layer loop of prefill and decode_step; grows `cache` in place and
    returns (logits or None, capture or None). New rows take the positions
    after the cache's last one; spans arrive checked. Each layer attends
    over one row range, all rows when its output feeds on, else (last layer,
    no logits) the observer rows; it leaves every rotated-key shadow complete.
    The range runs in ATTENTION_BLOCK-row tiles from its first row: scaled
    queries against all columns a tile's last row sees, the causal mask on
    the diagonal tile only, the softmax divide applied to the (rows, d_k)
    output and, for captured observer rows, to their full score rows."""
    cfg = model.config
    S = token_ids.shape[0]
    base = cache.length
    positions = np.arange(base, base + S, dtype=np.int64)
    if positions[-1] >= cfg.max_position:
        raise PositionOverflowError(f"position {positions[-1]} exceeds max_position {cfg.max_position}")
    if cfg.rotary_enabled:
        # grow the long-lived rotary table before this pass's temporaries,
        # so that it cannot pin them in the heap once they are freed
        _rotary_table(cfg, base + S)
    (obs_lo, obs_hi), (q_lo, q_hi) = (
        tuple(span) if span is not None and span[1] > span[0] else (0, 0)
        for span in (observer_span, query_span)
    )

    H, dk, d = cfg.n_heads, cfg.head_dim, cfg.hidden_size
    scale = F32(1.0 / np.sqrt(dk))
    w = model.weights
    x = w["embedding"][token_ids]
    n_obs = obs_hi - obs_lo
    captures = [np.zeros((H, n_obs, base + S), F32) for _ in range(cfg.n_layers)] if n_obs else []
    query_rows: list[np.ndarray] = []

    for layer in range(cfg.n_layers):
        hn = _rmsnorm(x, w[f"layers.{layer}.attn_norm"])
        q = hn @ w[f"layers.{layer}.q_proj"]
        k = hn @ w[f"layers.{layer}.k_proj"]
        v = hn @ w[f"layers.{layer}.v_proj"]
        cache.append(layer, k, v, positions)
        k_rot = cache.rotated_keys(layer, cfg)

        need_out = logits or layer < cfg.n_layers - 1
        lo, hi = (0, S) if need_out else (obs_lo, obs_hi)
        if lo == hi and q_lo == q_hi:
            continue
        q_rot = rotate(q, base, cfg)
        if q_hi > q_lo:
            query_rows.append(q_rot[q_lo:q_hi].copy())
        q_rot *= scale
        v_all = cache.values[layer]
        out = np.empty((S, d), F32) if need_out else None

        for r0 in range(lo, hi, ATTENTION_BLOCK):
            r1 = min(r0 + ATTENTION_BLOCK, hi)
            end = base + r1
            # row r sees columns [0, base + r]: only the diagonal tile is masked
            future = _FUTURE[: r1 - r0, : r1 - r0]
            c0, c1 = max(r0, obs_lo), min(r1, obs_hi)
            for h in range(H):
                cols = slice(h * dk, (h + 1) * dk)
                scores = q_rot[r0:r1, cols] @ k_rot[:end, cols].T
                scores[:, base + r0 :][future] = -np.inf
                scores -= scores.max(axis=1, keepdims=True)
                np.exp(scores, out=scores)
                rowsum = scores.sum(axis=1, keepdims=True)
                if need_out:
                    out[r0:r1, cols] = (scores @ v_all[:end, cols]) / rowsum
                if c0 < c1:
                    obs = slice(c0 - r0, c1 - r0)
                    captures[layer][h, c0 - obs_lo : c1 - obs_lo, :end] = scores[obs] / rowsum[obs]

        if need_out:
            x = x + out @ w[f"layers.{layer}.o_proj"]
            mn = _rmsnorm(x, w[f"layers.{layer}.mlp_norm"])
            x = x + _gelu(mn @ w[f"layers.{layer}.mlp_fc1"]) @ w[f"layers.{layer}.mlp_fc2"]

    out_logits = _rmsnorm(x, w["final_norm"]) @ w["lm_head"] if logits else None
    capture = AttentionCapture(captures, query_rows if q_hi > q_lo else None)
    return out_logits, (capture if n_obs or q_hi > q_lo else None)


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
