"""Span tracing from outside the library.

The tracer replaces selected public functions and methods of ``kvcbench``
with wrappers at every module that bound them by name (``compress``,
``baselines`` and ``evalharness`` import ``prefill`` directly), records one
span per call and restores the originals on exit. Nothing inside ``src/`` is
changed. Spans stay in memory until the run ends.

Counts attached to spans are computed from array shapes and arguments, not
measured: attention score elements per prefill, rows rotated and KV bytes
copied. They repeat exactly across runs of the same inputs.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time

from kvcbench import baselines, cachefile, compress, corpusgen, evalharness, modelcore, retrieval

PERF = time.perf_counter


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "request", "counts")

    def __init__(self, name, t0, t1, parent, request, counts):
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.parent = parent
        self.request = request
        self.counts = counts

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """In-memory span recorder. ``request`` tags every span opened while it
    is set; ``parent`` is the index of the innermost open span, or -1."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.request = None

    @contextlib.contextmanager
    def span(self, name, request):
        """Root span of one request; spans opened inside carry its id."""
        self.request = request
        idx = self._open()
        t0 = PERF()
        try:
            yield
        finally:
            self._close(idx, name, t0, None)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx, name, t0, counts):
        t1 = PERF()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = Span(name, t0, t1, parent, self.request, counts)

    def wrap(self, name, fn, count=None):
        """Wrapper that records a span around ``fn``. ``count(args, kwargs)``
        runs before the call and returns the span's counts, or a callable
        that finishes them from the result."""

        def traced(*args, **kwargs):
            counts = count(args, kwargs) if count is not None else None
            idx = self._open()
            t0 = PERF()
            try:
                out = fn(*args, **kwargs)
            finally:
                if callable(counts):
                    counts = counts(args, kwargs)
                self._close(idx, name, t0, counts)
            return out

        return traced


# --- counts computed from shapes ---------------------------------------------


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _seq_len(ids) -> int:
    return len(getattr(ids, "ids", ids))


def _causal_cols(base: int, lo: int, hi: int) -> int:
    """Visible columns summed over local rows [lo, hi) when row i sees
    cached rows plus current rows 0..i."""
    n = hi - lo
    return n * base + (lo + 1 + hi) * n // 2


def count_prefill(args, kwargs):
    model, cache, ids = args[0], args[1], args[2]
    cfg = model.config
    S = _seq_len(ids)
    base = cache.length
    obs = _arg(args, kwargs, 4, "observer_span")
    elems = (cfg.n_layers - 1) * cfg.n_heads * _causal_cols(base, 0, S)
    if obs is not None and obs[1] > obs[0]:
        elems += cfg.n_heads * _causal_cols(base, obs[0], obs[1])
    return {"tokens": S, "score_elems": elems}


def count_decode(args, kwargs):
    return {"cache_rows": args[1].length + 1}


def count_rotate(args, kwargs):
    mat, config = args[0], _arg(args, kwargs, 2, "config")
    return {"rows": mat.shape[0] if config.rotary_enabled else 0}


def count_fork(args, kwargs):
    c = args[0]
    return {"bytes": sum(a.nbytes for a in (*c.keys, *c.values, *c.positions))}


def count_append(args, kwargs):
    cache, layer, k, v, pos = args[0], args[1], args[2], args[3], args[4]
    old = cache.keys[layer].nbytes + cache.values[layer].nbytes + cache.positions[layer].nbytes
    return {"bytes": old + k.nbytes + v.nbytes + pos.nbytes}


def count_to_kv(args, kwargs):
    c = args[0]
    return {"bytes": sum(a.nbytes for a in (*c.keys, *c.values))}


def count_context(args, kwargs):
    return {"ctx_tokens": _seq_len(args[1])}


def count_save(args, kwargs):
    def finish(args, kwargs):
        path = _arg(args, kwargs, 1, "path")
        return {"bytes": os.path.getsize(path)}

    return finish


def count_load(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, the self-time figure its spans are charged to, counts)
FUNCTIONS = (
    (modelcore, "prefill", "modelcore.prefill.self_s", count_prefill),
    (modelcore, "decode_step", "modelcore.decode_step.self_s", count_decode),
    (modelcore, "rotate", "modelcore.rotate.self_s", count_rotate),
    (compress, "compress_iterative", "compress.self_s", count_context),
    (compress, "score_tokens", "compress.score.self_s", None),
    (compress, "select_top", "compress.select.self_s", None),
    (baselines, "compress_streaming_llm", "baselines.self_s", count_context),
    (baselines, "compress_snapkv_agnostic", "baselines.self_s", count_context),
    (baselines, "compress_expected_attention", "baselines.self_s", count_context),
    (evalharness, "run_suite", "evalharness.self_s", None),
    (retrieval, "index_chunks", "retrieval.index.self_s", None),
    (retrieval, "retrieve", "retrieval.retrieve.self_s", None),
    (retrieval, "assemble_context", "retrieval.assemble.self_s", None),
    (cachefile, "save_cache", "cachefile.save.self_s", count_save),
    (cachefile, "load_cache", "cachefile.load.self_s", count_load),
    (corpusgen, "generate_corpus", "corpusgen.generate.self_s", None),
)

# (class, method, span name, self-time figure, counts)
METHODS = (
    (modelcore.KvCache, "fork", "modelcore.kv.fork", "modelcore.kv.self_s", count_fork),
    (modelcore.KvCache, "append", "modelcore.kv.append", "modelcore.kv.self_s", count_append),
    (compress.CompressedCache, "to_kv_cache", "modelcore.kv.to_kv_cache", "modelcore.kv.self_s", count_to_kv),
)


def span_name(module, fname) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"


# Span name → self-time figure. Each traced span is charged to exactly one
# figure, so these figures and the root spans' own time partition the
# traced wall time.
SELF_S = {span_name(m, f): key for m, f, key, _ in FUNCTIONS}
SELF_S.update({name: key for _, _, name, key, _ in METHODS})


@contextlib.contextmanager
def installed(tracer: Tracer, extra_modules=()):
    """Patch every traced function at each module that holds it by name,
    plus each method on its class; restore all of them on exit."""
    sites = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "kvcbench" or name.startswith("kvcbench."))
    ]
    sites += list(extra_modules)
    undo = []
    try:
        for module, fname, _, count in FUNCTIONS:
            orig = getattr(module, fname)
            wrapper = tracer.wrap(span_name(module, fname), orig, count)
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is orig:
                        undo.append((site, attr, orig))
                        setattr(site, attr, wrapper)
        for cls, mname, name, _, count in METHODS:
            orig = cls.__dict__[mname]
            undo.append((cls, mname, orig))
            setattr(cls, mname, tracer.wrap(name, orig, count))
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# --- per-layer summary -------------------------------------------------------

BUILDS = {
    "compress": ("compress.compress_iterative",),
    "baselines": (
        "baselines.compress_streaming_llm",
        "baselines.compress_snapkv_agnostic",
        "baselines.compress_expected_attention",
    ),
}


# figures besides the self times, each 0 where no span feeds it
FIGURES = (
    "wall_s", "unattributed_s", "compress.prefill_s", "baselines.prefill_s",
    "modelcore.prefill.calls", "modelcore.prefill.tokens", "modelcore.prefill.score_elems",
    "modelcore.decode_step.calls", "modelcore.decode_step.cache_rows",
    "modelcore.rotate.calls", "modelcore.rotate.rows", "modelcore.kv.bytes_copied",
    "compress.builds", "baselines.builds", "cachefile.save.bytes", "cachefile.load.bytes",
)


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]


def roots(spans) -> list[int]:
    """Index of each span's outermost ancestor (itself for a root)."""
    out = []
    for i, s in enumerate(spans):
        # parents close after their children but always have lower indices
        out.append(i if s.parent < 0 else out[s.parent])
    return out


def _has_ancestor(spans, s, names) -> bool:
    p = s.parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans, include, cells=None, methods=()) -> dict[str, float]:
    """Per-layer figures over the spans whose indices ``include`` lists,
    whole trees under their root spans. Every ``*.self_s`` figure is a sum
    of self times; ``wall_s`` is the root spans' total duration and
    ``unattributed_s`` their own self time, the benchmark's code between
    library calls. ``compress.prefill_s`` and ``baselines.prefill_s`` are
    durations of prefills already counted in ``modelcore.prefill.self_s``.
    ``cells`` carries the eval records and registry size of a run that
    called ``run_suite``, else None; ``methods`` names the eval methods
    that get a ``cell_s`` figure. A span with no figure of its own is left
    out of every ``*.self_s`` figure."""
    selfs = self_times(spans)
    m = dict.fromkeys((*SELF_S.values(), *FIGURES), 0)

    def add(key, value):
        m[key] += value

    compress_prefill_tokens = compress_ctx_tokens = suite_prefill_tokens = 0

    for i in include:
        s, own = spans[i], selfs[i]
        name, c = s.name, s.counts
        if s.parent < 0:
            add("wall_s", s.dur)
            add("unattributed_s", own)
        elif name in SELF_S:
            add(SELF_S[name], own)
        if name == "modelcore.prefill":
            add("modelcore.prefill.calls", 1)
            add("modelcore.prefill.tokens", c["tokens"])
            add("modelcore.prefill.score_elems", c["score_elems"])
            parent = spans[s.parent].name if s.parent >= 0 else ""
            if parent in BUILDS["compress"]:
                add("compress.prefill_s", s.dur)
                compress_prefill_tokens += c["tokens"]
            elif parent in BUILDS["baselines"]:
                add("baselines.prefill_s", s.dur)
            if _has_ancestor(spans, s, ("evalharness.run_suite",)):
                suite_prefill_tokens += c["tokens"]
        elif name == "modelcore.decode_step":
            add("modelcore.decode_step.calls", 1)
            add("modelcore.decode_step.cache_rows", c["cache_rows"])
        elif name == "modelcore.rotate":
            add("modelcore.rotate.calls", 1)
            add("modelcore.rotate.rows", c["rows"])
        elif name.startswith("modelcore.kv."):
            add("modelcore.kv.bytes_copied", c["bytes"])
        elif name in BUILDS["compress"]:
            add("compress.builds", 1)
            compress_ctx_tokens += c["ctx_tokens"]
        elif name in BUILDS["baselines"]:
            add("baselines.builds", 1)
        elif name == "cachefile.save_cache":
            add("cachefile.save.bytes", c["bytes"])
        elif name == "cachefile.load_cache":
            add("cachefile.load.bytes", c["bytes"])

    m["compress.prefill_tokens_per_ctx_token"] = (
        compress_prefill_tokens / compress_ctx_tokens if compress_ctx_tokens else 0.0
    )
    records = cells["records"] if cells else []
    m["evalharness.cells"] = len(records)
    m["evalharness.cells_failed"] = sum(1 for r in records if r.error)
    m["evalharness.registry_builds"] = cells["registry_builds"] if cells else 0
    m["evalharness.prefill_tokens_per_cell"] = suite_prefill_tokens / len(records) if records else 0.0
    for method in methods:
        m[f"evalharness.cell_s.{method}"] = sum(r.elapsed_s for r in records if r.method == method)
    return m


def adds_up(m, wall: float, slack: float) -> bool:
    """Whether the ``*.self_s`` figures of ``layer_metrics`` plus the
    unattributed time come to ``wall`` within ``slack`` seconds."""
    total = m["unattributed_s"] + sum(v for k, v in m.items() if k.endswith(".self_s"))
    return abs(total - wall) <= abs(slack) + 1e-6 * wall
