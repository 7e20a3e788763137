"""The three benchmark workloads: serve, build and grid.

Each workload is a closed loop with one client and no think time. The
workload seed picks the corpus and the model weights; the library sees only
the inputs generated from it. A workload provides:

* ``setup(workdir)``: everything done before the first timed op; returns
  the state the ops use. A run sets up ``setup_reps`` times and reports
  the median. Cheap set-ups repeat for a few seconds, because the speed
  of a shared host can swing in spells of seconds;
* ``ops(state)``: one pass of ops, each a zero-argument callable returning
  an ``OpResult``;
* ``enough(results)``: whether a run may stop once its time is up;
* ``checks(state, results)``: output checks, as ``(name, ok)`` pairs;
* ``summary(st, setups, results, wall_s)``: end-to-end figures plus the
  named figures for the report. ``st`` is the last set-up's state and
  ``setups`` holds each set-up's digest and, on serve, its build time.

Sizes live in each workload's ``Sizes``; the defaults are the benchmark,
the benchmark's own test uses smaller ones.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import kvcbench.compress as compress_mod
from kvcbench.baselines import compress_expected_attention, compress_snapkv_agnostic
from kvcbench.cachefile import load_cache, save_cache
from kvcbench.compress import CompressionBudget, answer_with_cache, compress_iterative, retention
from kvcbench.corpusgen import CorpusSpec, entity_token_positions, generate_corpus
from kvcbench.evalharness import (
    default_eval_config,
    load_records,
    make_guidance,
    question_prompt,
    run_suite,
    select_fewshot,
)
from kvcbench.modelcore import (
    GenerationParams,
    KvCache,
    ModelConfig,
    decode_step,
    generate_greedy,
    init_diagnostic_model,
    init_random_model,
    prefill,
)
from kvcbench.retrieval import assemble_context, index_chunks, retrieve
from kvcbench.vocab import tokenize

PERF = time.perf_counter
N_FEWSHOT = 3
S = 2  # compression segments of the eval-model kvc builds
MAX_NEW = 12  # new tokens per answer
# a serve run answers at least this many questions, so each p90 has ten
# samples beyond it
MIN_QUESTIONS = 100
# on its first pass, serve also answers every CHECK_EVERY-th question from
# the in-memory cache, to compare with the answer from disk
CHECK_EVERY = 4


@dataclass
class OpResult:
    """One closed-loop op: its wall time, the requests it sent and a digest
    of its outputs (answers or cache arrays) for bitwise comparisons."""

    kind: str
    wall_s: float
    digest: str
    requests: int = 1
    failed: int = 0
    info: dict = field(default_factory=dict)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def cache_digest(c) -> str:
    return digest(*c.keys, *c.values, *c.kept_positions, c.meta)


def cache_shape_ok(c, k: int, n: int) -> bool:
    """Exactly min(k, n) rows per layer, kept positions strictly increasing
    and below n."""
    r = min(k, n)
    for keys, values, kept in zip(c.keys, c.values, c.kept_positions):
        if keys.shape[0] != r or values.shape[0] != r or kept.shape[0] != r:
            return False
        if r and (np.any(np.diff(kept) <= 0) or kept[0] < 0 or kept[-1] >= n):
            return False
    return True


def round_trip_ok(c, path, model) -> bool:
    """A saved cache loads back bitwise equal, metadata included."""
    back = load_cache(path, model)
    return cache_digest(back) == cache_digest(c)


def pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def non_reserved(bundle):
    reserved = {q.qid for q in select_fewshot(bundle, N_FEWSHOT)}
    return [q for q in bundle.questions if q.qid not in reserved]


def greedy_answer(model, cache, ids, max_new: int):
    """Prefill the prompt body, decode the first token, then the rest.
    Returns (answer ids, seconds to first token, seconds for the rest)."""
    t0 = PERF()
    if len(ids) > 1:
        prefill(model, cache, ids[:-1])
    logits, _ = decode_step(model, cache, int(ids[-1]))
    tok0 = int(np.argmax(logits))
    t1 = PERF()
    out = []
    if tok0 not in GenerationParams().stop_tokens:
        out = [tok0]
        if max_new > 1:
            out += generate_greedy(model, cache, [tok0], GenerationParams(max_new_tokens=max_new - 1)).ids
    return out, t1 - t0, PERF() - t1


# --- serve -------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSizes:
    corpus: dict = field(default_factory=dict)
    k: int = 4096
    rag_budget: int = 4096


class Serve:
    """Query-time answering: a kvc request then a rag request per question."""

    name = "serve"
    setup_reps = 3

    def __init__(self, seed: int, sizes: ServeSizes = ServeSizes()):
        self.seed = seed
        self.sizes = sizes

    def setup(self, workdir: Path):
        z = self.sizes
        bundle = generate_corpus(CorpusSpec(self.seed, connectivity=2, **z.corpus))
        model = init_random_model(default_eval_config(len(bundle.vocab.id_to_token)), self.seed)
        guidance = make_guidance("fs", select_fewshot(bundle, N_FEWSHOT))
        path = workdir / "serve.kvcc"
        t0 = PERF()
        cache = compress_iterative(
            model, bundle.corpus_tokens(), guidance, bundle.vocab, CompressionBudget(z.k), s=S
        )
        save_cache(cache, path)
        build_s = PERF() - t0
        index = index_chunks(bundle)
        return {
            "bundle": bundle, "model": model, "cache": cache, "path": path, "index": index,
            "questions": non_reserved(bundle), "build_s": build_s,
            "n": bundle.spec.n_tokens, "first_answers": {}, "disk_vs_memory": [],
            "digest": cache_digest(cache),
        }

    def ops(self, st):
        for i, q in enumerate(st["questions"]):
            yield lambda q=q, i=i: self._question(st, q, i)

    def _kvc(self, st, ids):
        model = st["model"]
        t0 = PERF()
        cache = load_cache(st["path"], model).to_kv_cache()
        t_load = PERF() - t0
        out, first_s, rest_s = greedy_answer(model, cache, ids, MAX_NEW)
        return out, t_load + first_s, rest_s

    def _rag(self, st, q, ids):
        model, bundle = st["model"], st["bundle"]
        t0 = PERF()
        result = retrieve(st["index"], tokenize(q.text, bundle.vocab), len(bundle.chunks))
        ctx = assemble_context(bundle, result, self.sizes.rag_budget)
        cache = KvCache.empty(model.config)
        prefill(model, cache, ctx)
        t_ctx = PERF() - t0
        out, first_s, rest_s = greedy_answer(model, cache, ids, MAX_NEW)
        return out, t_ctx + first_s, rest_s

    def _question(self, st, q, i):
        ids = question_prompt(q.text, st["bundle"].vocab).ids
        t0 = PERF()
        kvc, kvc_ttft, kvc_rest = self._kvc(st, ids)
        rag, rag_ttft, rag_rest = self._rag(st, q, ids)
        wall = PERF() - t0
        first = st["first_answers"].setdefault(q.qid, kvc)
        if first is kvc and i % CHECK_EVERY == 0:
            mem = answer_with_cache(
                st["model"], st["cache"], ids, GenerationParams(max_new_tokens=MAX_NEW)
            ).ids
            st["disk_vs_memory"].append(mem == kvc)
        return OpResult(
            "question", wall, digest(q.qid, kvc, rag), requests=2,
            failed=int(first != kvc),
            info={
                "kvc_ttft": kvc_ttft, "rag_ttft": rag_ttft,
                "decode_s": kvc_rest + rag_rest,
                "decode_tokens": max(len(kvc) - 1, 0) + max(len(rag) - 1, 0),
            },
        )

    def enough(self, results) -> bool:
        return len(results) >= MIN_QUESTIONS

    def checks(self, st, results):
        return [
            ("serve cache rows and kept positions", cache_shape_ok(st["cache"], self.sizes.k, st["n"])),
            ("serve KVCC round trip bitwise", round_trip_ok(st["cache"], st["path"], st["model"])),
            ("kvc answer from disk equals in-memory answer",
             bool(st["disk_vs_memory"]) and all(st["disk_vs_memory"])),
            ("kvc p50 ttft below rag p50 ttft",
             statistics.median(r.info["kvc_ttft"] for r in results)
             < statistics.median(r.info["rag_ttft"] for r in results)),
        ]

    def summary(self, st, setups, results, wall_s):
        kvc = [r.info["kvc_ttft"] * 1e3 for r in results]
        rag = [r.info["rag_ttft"] * 1e3 for r in results]
        answers = 2 * len(results)
        decode_s = sum(r.info["decode_s"] for r in results)
        decode_tokens = sum(r.info["decode_tokens"] for r in results)
        e2e = {
            "ttft_ms": statistics.median(kvc),
            "ttft_baseline_ms": statistics.median(rag),
            "ops_per_s": answers / wall_s,
            "compress_tok_per_s": st["n"] / statistics.median(s["build_s"] for s in setups),
        }
        named = {
            "ttft_kvc_p50_ms": (statistics.median(kvc), "ms"),
            "ttft_kvc_p90_ms": (pct(kvc, 90), "ms"),
            "ttft_rag_p50_ms": (statistics.median(rag), "ms"),
            "ttft_rag_p90_ms": (pct(rag, 90), "ms"),
            "decode_tok_per_s": (decode_tokens / decode_s, "tok/s"),
            "answers_per_s": (answers / wall_s, "1/s"),
        }
        return e2e, named, {"ttft_samples_per_path": len(results)}


# --- build -------------------------------------------------------------------


@dataclass(frozen=True)
class BuildSizes:
    corpus: dict = field(default_factory=dict)
    fs_ks: tuple = (1024, 4096)
    baseline_k: int = 1024
    diag_k: int = 4096
    diag_questions: int = 5
    diag_hidden: int = 256


class Build:
    """Offline cache construction plus one plain full-context TTFT."""

    name = "build"
    setup_reps = 25

    def __init__(self, seed: int, sizes: BuildSizes = BuildSizes()):
        self.seed = seed
        self.sizes = sizes

    def setup(self, workdir: Path):
        z = self.sizes
        bundle = generate_corpus(CorpusSpec(self.seed, connectivity=2, **z.corpus))
        vocab_size = len(bundle.vocab.id_to_token)
        model = init_random_model(default_eval_config(vocab_size), self.seed)
        diag_cfg = ModelConfig(
            n_layers=1, n_heads=1, hidden_size=z.diag_hidden, head_dim=z.diag_hidden,
            vocab_size=vocab_size, max_position=default_eval_config(vocab_size).max_position,
            rotary_enabled=False,
        )
        diag = init_diagnostic_model(diag_cfg, bundle.vocab)
        examples = select_fewshot(bundle, N_FEWSHOT)
        questions = non_reserved(bundle)
        step = max(1, len(questions) // z.diag_questions)
        return {
            "bundle": bundle, "model": model, "diag": diag, "workdir": workdir,
            "examples": examples, "questions": questions,
            "diag_questions": questions[::step][: z.diag_questions],
            "corpus": bundle.corpus_tokens(), "n": bundle.spec.n_tokens,
            "cache_ok": [], "retention_fs": [],
            "digest": digest(bundle.corpus_tokens().ids, *model.weights.values(), *diag.weights.values()),
        }

    def ops(self, st):
        z = self.sizes
        guidance = make_guidance("fs", st["examples"])
        for k in z.fs_ks:
            yield lambda k=k: self._build(
                st, f"kvc_fs_k{k}", k,
                lambda: compress_iterative(
                    st["model"], st["corpus"], guidance, st["bundle"].vocab, CompressionBudget(k), s=S
                ),
            )
        yield lambda: self._build(
            st, "snapkv", z.baseline_k,
            lambda: compress_snapkv_agnostic(st["model"], st["corpus"], z.baseline_k),
        )
        yield lambda: self._build(
            st, "expattn", z.baseline_k,
            lambda: compress_expected_attention(st["model"], st["corpus"], z.baseline_k),
        )
        yield lambda: self._full(st)
        for q in st["diag_questions"]:
            yield lambda q=q: self._diag(st, q)

    def _build(self, st, kind, k, build):
        path = st["workdir"] / f"{kind}.kvcc"
        t0 = PERF()
        c = build()
        save_cache(c, path)
        wall = PERF() - t0
        st["cache_ok"].append(cache_shape_ok(c, k, st["n"]) and round_trip_ok(c, path, st["model"]))
        if kind == f"kvc_fs_k{self.sizes.fs_ks[0]}":
            st["retention_fs"].append(statistics.fmean(
                retention(c, q.gold_positions) for q in st["questions"] if q.gold_positions
            ))
        return OpResult("build", wall, cache_digest(c), info={"tokens": st["n"]})

    def _full(self, st):
        model = st["model"]
        ids = np.concatenate([st["corpus"].ids, question_prompt(st["questions"][0].text, st["bundle"].vocab).ids])
        t0 = PERF()
        cache = KvCache.empty(model.config)
        prefill(model, cache, ids[:-1])
        logits, _ = decode_step(model, cache, int(ids[-1]))
        tok0 = int(np.argmax(logits))
        wall = PERF() - t0
        return OpResult("full", wall, digest(tok0, logits))

    def _diag(self, st, q):
        bundle = st["bundle"]
        guidance = make_guidance("fsq", st["examples"], query=q.text)
        t0 = PERF()
        c = compress_iterative(st["diag"], st["corpus"], guidance, bundle.vocab, CompressionBudget(self.sizes.diag_k), s=1)
        wall = PERF() - t0
        st["cache_ok"].append(cache_shape_ok(c, self.sizes.diag_k, st["n"]))
        ret = retention(c, entity_token_positions(bundle, q.entities))
        return OpResult("diag", wall, cache_digest(c), info={"retention": ret})

    def _per_pass(self) -> int:
        return len(self.sizes.fs_ks) + 3 + self.sizes.diag_questions

    def enough(self, results) -> bool:
        return len(results) % self._per_pass() == 0

    def checks(self, st, results):
        return [
            ("build caches: rows, kept positions, KVCC round trip", bool(st["cache_ok"]) and all(st["cache_ok"])),
            ("diagnostic fsq retention is 1.0",
             all(r.info["retention"] == 1.0 for r in results if r.kind == "diag")),
        ]

    def summary(self, st, setups, results, wall_s):
        builds = [r for r in results if r.kind == "build"]
        full_s = statistics.median(r.wall_s for r in results if r.kind == "full")
        tok_per_s = sum(r.info["tokens"] for r in builds) / sum(r.wall_s for r in builds)
        # build's one TTFT path, full, is both its headline and its baseline
        e2e = {
            "ttft_ms": full_s * 1e3,
            "ttft_baseline_ms": full_s * 1e3,
            "ops_per_s": len(results) / wall_s,
            "compress_tok_per_s": tok_per_s,
        }
        named = {
            "ttft_full_s": (full_s, "s"),
            "compress_tok_per_s": (tok_per_s, "tok/s"),
            "retention_diag_fsq": (statistics.fmean(r.info["retention"] for r in results if r.kind == "diag"), "1"),
            "retention_kvc_fs": (statistics.fmean(st["retention_fs"]), "1"),
        }
        return e2e, named, {"passes": len(results) // self._per_pass()}


# --- grid --------------------------------------------------------------------

GRID_METHODS = ("full", "rag", "kvc_fs", "kvc_fsq", "snapkv")


@dataclass(frozen=True)
class GridSizes:
    corpus: dict = field(default_factory=lambda: {
        "n_people": 16, "n_projects": 16, "n_filler": 16, "questions_per_kind": 16,
    })
    budgets: tuple = (512, 2048)
    n_questions: int = 6


class Grid:
    """``run_suite`` as ``kvc eval`` runs it, on a fresh runs file each time."""

    name = "grid"
    setup_reps = 61

    def __init__(self, seed: int, sizes: GridSizes = GridSizes()):
        self.seed = seed
        self.sizes = sizes

    def setup(self, workdir: Path):
        bundle = generate_corpus(CorpusSpec(self.seed, connectivity=2, **self.sizes.corpus))
        model = init_random_model(default_eval_config(len(bundle.vocab.id_to_token)), self.seed)
        return {
            "bundle": bundle, "model": model, "path": workdir / "runs.jsonl",
            "questions": non_reserved(bundle)[: self.sizes.n_questions], "suites": [],
            "digest": digest(bundle.corpus_tokens().ids, *model.weights.values()),
        }

    def n_cells(self) -> int:
        z = self.sizes
        return z.n_questions * (1 + (len(GRID_METHODS) - 1) * len(z.budgets))

    def ops(self, st):
        yield lambda: self._suite(st)

    def _suite(self, st):
        z = self.sizes
        st["path"].unlink(missing_ok=True)
        registry: dict = {}
        calls0 = compress_mod.COMPRESSION_CALLS
        t0 = PERF()
        records = run_suite(
            st["model"], st["bundle"], GRID_METHODS, z.budgets, st["path"],
            questions=st["questions"], s=S, n_fewshot=N_FEWSHOT,
            params=GenerationParams(max_new_tokens=MAX_NEW), registry=registry,
        )
        wall = PERF() - t0
        calls = compress_mod.COMPRESSION_CALLS - calls0
        st["suites"].append({
            "records": records, "registry_builds": len(registry), "calls": calls,
            "lines": len(load_records(st["path"])),
        })
        answers = [(r.qid, r.method, r.budget, r.answer, r.overlap, r.retention, r.evidence_recall) for r in records]
        return OpResult(
            "suite", wall, digest(answers), requests=len(records),
            failed=sum(1 for r in records if r.error), info={"records": records},
        )

    def enough(self, results) -> bool:
        return True

    def checks(self, st, results):
        z = self.sizes
        nq, nb = len(st["questions"]), len(z.budgets)
        # kvc_fs and snapkv build once per budget, kvc_fsq once per question and budget
        want_calls = nb * (2 + nq)
        ok_cells = ok_lines = ok_calls = True
        for suite in st["suites"]:
            recs = suite["records"]
            ok_cells &= len(recs) == self.n_cells() and not any(r.error for r in recs)
            ok_lines &= suite["lines"] == len(recs)
            fs_builds = sum(1 for r in recs if r.method == "kvc_fs" and r.compress_s > 0)
            ok_calls &= suite["calls"] == want_calls and fs_builds == nb
        return [
            ("grid: every cell present, zero cells_failed", ok_cells),
            ("grid: one JSONL line per cell", ok_lines),
            ("grid: kvc_fs compresses once per (method, budget)", ok_calls),
        ]

    def summary(self, st, setups, results, wall_s):
        records = [rec for r in results for rec in r.info["records"]]
        groups: dict[tuple, list[float]] = {}
        for r in records:
            groups.setdefault((r.method, r.budget), []).append(
                (r.retrieve_s + r.prefill_s + r.first_token_s) * 1e3
            )
        ttft = {g: statistics.median(v) for g, v in groups.items()}
        built = [r for r in records if r.compress_s > 0]
        n = st["bundle"].spec.n_tokens
        cells_per_s = len(records) / wall_s
        # Means over every cell of the cached paths and of the re-prefill
        # paths. run_suite runs a group's cells back to back, so a group's
        # median rides on one spell of machine speed; a mean over all of a
        # path's groups spans several. The re-prefill cells carry the
        # shared corpus prefill and index build that the registry charges
        # to the first full and the first rag cell.
        def path_cells(methods):
            return [t for (m, _), v in groups.items() if m in methods for t in v]

        e2e = {
            "ttft_ms": statistics.fmean(path_cells(("kvc_fs", "kvc_fsq", "snapkv"))),
            "ttft_baseline_ms": statistics.fmean(path_cells(("full", "rag"))),
            "ops_per_s": cells_per_s,
            "compress_tok_per_s": n * len(built) / sum(r.compress_s for r in built),
        }
        named = {"grid_cells_per_s": (cells_per_s, "1/s")}
        named.update({f"grid_ttft_{m}_{b}_p50_ms": (v, "ms") for (m, b), v in ttft.items()})
        return e2e, named, {"suites": len(results)}


WORKLOADS = {"serve": Serve, "build": Build, "grid": Grid}
