"""Evaluation protocol: answer scoring, suite runs, latency, and reports.

Scoring is set recall of normalized words (lowercase, punctuation stripped)
against the question's gold answers, so answer order and filler words do
not matter. A suite run walks methods x budgets x questions, appends one
JSON line per completed cell so an interrupted run resumes where it
stopped, and keeps every compressed cache in an in-process registry keyed
by (method, model, corpus, guidance, budget, segments) so a cache is built
once and reused across questions. One table names each compressed method's
guidance kind and offline build, and every compressed cache is built
through it: the suite's, ``kvc compress``'s and the TTFT sweep's.

The registry also holds one plain prefill of the corpus per (model,
corpus), the shared prefix. ``full`` cells answer on a fork of it, and
every compressed build except the oracle's starts its first segment from a
head fork of it, prefilling only the rows it observes or samples. A build
claims the prefix only when it runs, so a cell whose cache is already built
never prefills the corpus; the prefill is charged to whichever cell claims
it first, the first ``full`` cell's prefill_s or a build's compress_s.

Few-shot guidance examples are drawn from the generated questions and
reserved out of the eval set for every method, task-aware or not. A failing
cell is recorded with its error text and the suite moves on.

Each record decomposes wall time into compress (cache build, charged to the
record that triggered it), retrieve, prefill, and first decoded token.

Time-to-first-token, one call per corpus timing full, rag and kvc, follows
the query-time accounting: the index and the kvc cache are offline builds
outside the timed region (compression seconds are logged instead), while
retrieval, cache forking, question prefill, and the first decode step are
inside. A scenario whose context rows plus question tokens exceed the
model's positions is reported as NaN, never raised.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import random
import statistics
import string
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._binio import atomic_write, json_record, read_artifact, writing
from .baselines import (
    compress_expected_attention,
    compress_snapkv_agnostic,
    compress_streaming_llm,
)
from .compress import (
    CompressionBudget,
    GuidancePrompt,
    compress_iterative,
    compress_oracle,
    guidance_fingerprint,
    plan_chunks,
    prefill_context,
    retention,
)
from .corpusgen import DEFAULT_TASK_DESCRIPTION, CorpusBundle, Question
from .errors import FormatError, MissingArtifactError, StaleCacheError, UsageError
from .modelcore import (
    GenerationParams,
    KvCache,
    Model,
    ModelConfig,
    generate_greedy,
    prefill,
)
from .retrieval import assemble_context, coverage_bound, evidence_recall, index_chunks, rag_retention, retrieve
from .vocab import TokenSequence, Vocabulary, detokenize, tokenize

log = logging.getLogger(__name__)

RUNS_SCHEMA_VERSION = 2

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def default_eval_config(vocab_size: int) -> ModelConfig:
    """Small random model sized so the full benchmark corpus plus guidance
    and a question fit in positions."""
    return ModelConfig(
        n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
        vocab_size=vocab_size, max_position=40960,
    )


def ttft_reference_config(vocab_size: int) -> ModelConfig:
    """Latency reference model with position room for long-context sweeps."""
    return ModelConfig(
        n_layers=2, n_heads=1, hidden_size=32, head_dim=32,
        vocab_size=vocab_size, max_position=131072,
    )


def normalize(text: str) -> list[str]:
    """Lowercase, strip all punctuation characters, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


def word_overlap(prediction: str, gold_words) -> float:
    """Set recall: fraction of normalized gold words present in the
    normalized prediction."""
    gold = set()
    for w in gold_words:
        gold.update(normalize(w))
    if not gold:
        raise UsageError("gold word set is empty after normalization")
    pred = set(normalize(prediction))
    return len(gold & pred) / len(gold)


def question_prompt(text: str, vocab: Vocabulary) -> TokenSequence:
    """Query-time prompt: the question bracketed by the same cue words the
    guidance stream uses."""
    return tokenize(f"question {text} answer", vocab)


def select_fewshot(bundle: CorpusBundle, n: int) -> list[Question]:
    """Deterministically reserve n questions as guidance examples."""
    if n < 0:
        raise UsageError(f"few-shot example count must be >= 0, got {n}")
    if n == 0:
        return []
    if n >= len(bundle.questions):
        raise UsageError(f"cannot reserve {n} few-shot examples from {len(bundle.questions)} questions")
    rng = random.Random(int.from_bytes(bundle.corpus_fingerprint()[:4], "little"))
    return rng.sample(bundle.questions, n)


def make_guidance(kind: str, examples: list[Question], query: str | None = None) -> GuidancePrompt:
    """Guidance of one kind; only fsq uses the query."""
    pairs = tuple((q.text, " ".join(q.answers)) for q in examples)
    if kind == "zs":
        return GuidancePrompt("zs", DEFAULT_TASK_DESCRIPTION)
    if kind == "fs":
        return GuidancePrompt("fs", DEFAULT_TASK_DESCRIPTION, pairs)
    if kind == "fsq":
        return GuidancePrompt("fsq", DEFAULT_TASK_DESCRIPTION, pairs, query=query)
    raise UsageError(f"unknown guidance kind {kind!r}")


def _kvc(model, corpus, guidance, vocab, k, s, shared):
    return compress_iterative(model, corpus, guidance, vocab, CompressionBudget(k), s=s, prefix=shared())


# The only builder of compressed caches: method -> (guidance kind or None,
# offline build taking (model, corpus, guidance, vocab, k, s, shared)).
# shared() returns a ContextPrefill of the corpus (the suite's one, or
# None), which the oracle never asks for. Each build records its key as
# the cache's method, the name a KVCC file carries (cachefile.METHOD_CODES).
COMPRESSED_METHODS = {
    "kvc_zs": ("zs", _kvc),
    "kvc_fs": ("fs", _kvc),
    "kvc_fsq": ("fsq", _kvc),
    "streaming": (None, lambda m, c, g, v, k, s, p: compress_streaming_llm(m, c, k, prefix=p())),
    "snapkv": (None, lambda m, c, g, v, k, s, p: compress_snapkv_agnostic(m, c, k, prefix=p())),
    "expattn": (None, lambda m, c, g, v, k, s, p: compress_expected_attention(m, c, k, prefix=p())),
    "oracle": ("fs", lambda m, c, g, v, k, s, p: compress_oracle(m, c, g, v, k)),
}
METHODS = ("full", "rag", *COMPRESSED_METHODS)


@dataclass(frozen=True)
class RunRecord:
    qid: str
    kind: str
    method: str
    budget: int
    connectivity: int
    corpus_fp: str
    answer: str
    overlap: float
    retention: float | None
    evidence_recall: float | None
    compress_s: float
    retrieve_s: float
    prefill_s: float
    first_token_s: float
    elapsed_s: float
    # the rest of the settings a cell ran under
    chunk_tokens: int
    model_fp: str
    segments: int
    fewshot: int
    max_new: int
    error: str = ""
    schema_version: int = RUNS_SCHEMA_VERSION

    def __post_init__(self):
        if self.chunk_tokens < 1:
            raise ValueError(f"chunk_tokens is {self.chunk_tokens}, expected >= 1")


def load_records(path) -> list[RunRecord]:
    """Read a runs JSONL file. A record counts once its newline is written:
    a last line without one is an interrupted append and is dropped with a
    warning. Any other line that is not a run record of this schema version,
    with every field of its JSON type, raises FormatError."""
    return _records(read_artifact(path, "runs file"), path)


def _records(data: bytes, p) -> list[RunRecord]:
    """The run records in `data`, the bytes of the runs file `p`."""
    lines = data.splitlines()
    if not data.endswith(b"\n") and lines:
        log.warning("%s: dropping torn last line %d", p, len(lines))
        lines.pop()
    records = []
    for i, line in enumerate(lines, 1):
        if line.strip():
            try:
                rec = json_record(RunRecord, json.loads(line))
                if rec.schema_version != RUNS_SCHEMA_VERSION:
                    raise ValueError(f"schema_version {rec.schema_version} is not {RUNS_SCHEMA_VERSION}")
                records.append(rec)
            except (ValueError, TypeError) as exc:
                raise FormatError(f"{p}: line {i} is not a run record: {exc}") from None
    return records


def _record_key(rec: RunRecord) -> tuple:
    return (rec.qid, rec.method, rec.budget)


def run_suite(
    model: Model,
    bundle: CorpusBundle,
    methods,
    budgets,
    out_path,
    questions=None,
    s: int = 2,
    n_fewshot: int = 3,
    params: GenerationParams = GenerationParams(max_new_tokens=12),
    registry: dict | None = None,
) -> list[RunRecord]:
    """Evaluate every (method, budget, question) cell, appending finished
    cells to `out_path` as JSON lines. Existing cells are skipped, so
    rerunning after an interruption (or on a warm registry) does no
    compression work twice. A runs file holding a record of another corpus,
    connectivity, chunk width, model, segment count, few-shot count or
    ``max_new`` raises StaleCacheError before any cell runs. A cell that
    raises is recorded with its error and the suite continues."""
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r} (choose from {METHODS})")
    # the compressors' own checks, before the runs file is opened
    plan_chunks(1, s)
    for b in budgets:
        CompressionBudget(b)
    if registry is None:
        registry = {}
    vocab = bundle.vocab
    corpus = bundle.corpus_tokens()
    corpus_fp = bundle.corpus_fingerprint().hex()
    settings = dict(corpus_fp=corpus_fp, connectivity=bundle.spec.connectivity, chunk_tokens=bundle.spec.chunk_tokens,
                    model_fp=model.fingerprint.hex(), segments=s, fewshot=n_fewshot, max_new=params.max_new_tokens)

    examples = select_fewshot(bundle, n_fewshot)
    reserved = {q.qid for q in examples}
    if questions is None:
        questions = [q for q in bundle.questions if q.qid not in reserved]
    else:
        clash = [q.qid for q in questions if q.qid in reserved]
        if clash:
            raise UsageError(f"questions {clash} are reserved as few-shot examples")

    out = Path(out_path)
    try:
        data = read_artifact(out, "runs file")
    except MissingArtifactError as exc:
        if not isinstance(exc.__cause__, FileNotFoundError):
            raise
        data = b""  # no runs file yet: a new suite
    existing = _records(data, out)
    for r in existing:
        for name, want in settings.items():
            if getattr(r, name) != want:
                raise StaleCacheError(f"{out}: runs file holds records of another corpus or setting "
                                      f"({name} {getattr(r, name)!r}, not {want!r}); start a new runs file")
    done = {_record_key(r): r for r in existing}
    records: list[RunRecord] = []
    with writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        fh = open(out, "a")
    with fh:
        fh.truncate(data.rfind(b"\n") + 1)  # cut the torn last line _records dropped
        for method in methods:
            for budget in [0] if method == "full" else list(budgets):
                for q in questions:
                    key = (q.qid, method, budget)
                    if key in done:
                        records.append(done[key])
                        continue
                    rec = _run_cell(
                        model, bundle, corpus, corpus_fp, settings, method, budget,
                        q, examples, s, params, registry, vocab,
                    )
                    if rec.error:
                        log.warning("cell %s failed: %s", key, rec.error)
                    fh.write(json.dumps(dataclasses.asdict(rec)) + "\n")
                    fh.flush()
                    done[key] = rec
                    records.append(rec)
    return records


def _claim(registry: dict, key: tuple, build) -> tuple:
    """Build-once registry lookup returning (value, build seconds); the
    build time is charged to the first caller only."""
    if key not in registry:
        t0 = time.perf_counter()
        value = build()
        registry[key] = {"value": value, "build_s": time.perf_counter() - t0, "charged": False}
    entry = registry[key]
    build_s = 0.0 if entry["charged"] else entry["build_s"]
    entry["charged"] = True
    return entry["value"], build_s


def _prefilled(model, ids) -> KvCache:
    cache = KvCache.empty(model.config)
    prefill(model, cache, ids)
    return cache


def _timed_answer(model, cache, prompt, params) -> tuple[TokenSequence, float, float]:
    """Greedy answer with (prefill seconds, first-token seconds) split out.

    Prefills the prompt body, then decodes through generate_greedy: its
    first token, timed (the decode step and the argmax that picks the
    token), then the rest.
    """
    ids = list(getattr(prompt, "ids", prompt))
    first = dataclasses.replace(params, max_new_tokens=1)
    t0 = time.perf_counter()
    if len(ids) > 1:
        prefill(model, cache, ids[:-1])
    t1 = time.perf_counter()
    out = generate_greedy(model, cache, ids[-1:], first).ids
    first_s = time.perf_counter() - t1
    if out and params.max_new_tokens > 1:
        rest = dataclasses.replace(params, max_new_tokens=params.max_new_tokens - 1)
        out += generate_greedy(model, cache, out, rest).ids
    return TokenSequence(ids=out), t1 - t0, first_s


def _run_cell(model, bundle, corpus, corpus_fp, settings, method, budget, q, examples, s, params, registry, vocab):
    prompt = question_prompt(q.text, vocab)
    recall = None
    ret = None
    compress_s = retrieve_s = prefill_s = first_s = 0.0
    text = ""
    overlap = 0.0
    error = ""
    t_start = time.perf_counter()

    def shared():
        return _claim(registry, ("full", model.fingerprint, corpus_fp), lambda: prefill_context(model, corpus))

    try:
        if method == "full":
            base, build_s = shared()
            answer, prefill_s, first_s = _timed_answer(model, base.cache.fork(), prompt, params)
            prefill_s += build_s
            ret = 1.0
        elif method == "rag":
            index, build_s = _claim(registry, ("rag_index", corpus_fp), lambda: index_chunks(bundle))
            t0 = time.perf_counter()
            result = retrieve(index, tokenize(q.text, vocab), len(bundle.chunks))
            ctx = assemble_context(bundle, result, budget)
            retrieve_s = time.perf_counter() - t0 + build_s
            recall = evidence_recall(result, budget, bundle.spec.chunk_tokens, q.evidence)
            ret = rag_retention(result, budget, bundle.spec.chunk_tokens, q.gold_positions)
            t0 = time.perf_counter()
            cache = _prefilled(model, ctx)
            ctx_prefill = time.perf_counter() - t0
            answer, prefill_s, first_s = _timed_answer(model, cache, prompt, params)
            prefill_s += ctx_prefill
        else:
            kind, build = COMPRESSED_METHODS[method]
            guidance = make_guidance(kind, examples, query=q.text) if kind else None
            gfp = guidance_fingerprint(guidance, vocab).hex() if kind else None
            compressed, compress_s = _claim(
                registry, (method, model.fingerprint, corpus_fp, gfp, budget, s),
                lambda: build(model, corpus, guidance, vocab, budget, s, lambda: shared()[0]),
            )
            ret = retention(compressed, q.gold_positions) if q.gold_positions else None
            answer, prefill_s, first_s = _timed_answer(model, compressed.to_kv_cache(), prompt, params)

        text = detokenize(answer, vocab)
        overlap = word_overlap(text, q.answers)
    except Exception as exc:  # per-question failures must not abort the suite
        error = f"{type(exc).__name__}: {exc}"

    return RunRecord(
        **settings,
        qid=q.qid,
        kind=q.kind,
        method=method,
        budget=budget,
        answer=text,
        overlap=overlap,
        retention=ret,
        evidence_recall=recall,
        compress_s=compress_s,
        retrieve_s=retrieve_s,
        prefill_s=prefill_s,
        first_token_s=first_s,
        elapsed_s=time.perf_counter() - t_start,
        error=error,
    )


def answer_with_context(model: Model, context, prompt, params: GenerationParams = GenerationParams()) -> TokenSequence:
    """Prefill a fresh cache with `context` and greedy-decode from `prompt`."""
    return generate_greedy(model, _prefilled(model, context), prompt, params)


@dataclass(frozen=True)
class TimingRecord:
    scenario: str
    corpus_tokens: int
    budget: int
    question_tokens: int
    median_s: float
    min_s: float
    reps: int
    feasible: bool


def measure_ttft(model: Model, bundle: CorpusBundle, question, budget: int, reps: int = 5) -> list[TimingRecord]:
    """Wall-clock time to the first generated token of full, rag and kvc.

    full: prefill the corpus, then the question, one decode step.
    rag:  retrieve + assemble + prefill selection + question, one decode.
    kvc:  fork the compressed cache + prefill question, one decode.

    Offline work stays outside the timed region and comes first: the chunk
    index, one assembly of the rag context to count its rows, and the kvc
    cache, the ``kvc_zs`` method with two segments and `budget` rows, whose
    build seconds are logged. Each scenario discards one warm-up repetition
    and keeps the median and min of `reps` timed ones. Context rows plus
    question tokens beyond the model's positions yield feasible=False with
    NaN times, not an error.
    """
    if reps < 1:
        raise UsageError("reps must be >= 1")
    q_ids = np.asarray(getattr(question, "ids", question), dtype=np.int64)
    if q_ids.size == 0:
        raise UsageError("question must be nonempty")
    corpus = bundle.corpus_tokens()
    index = index_chunks(bundle)

    def rag_context():
        return assemble_context(bundle, retrieve(index, q_ids, len(bundle.chunks)), budget)

    rag_rows = len(rag_context().ids)
    t0 = time.perf_counter()
    _, build = COMPRESSED_METHODS["kvc_zs"]
    compressed = build(model, corpus, make_guidance("zs", []), bundle.vocab, budget, 2, lambda: None)
    log.info("budget=%d offline compression excluded from timing: %.3fs", budget, time.perf_counter() - t0)

    first_token = GenerationParams(max_new_tokens=1)
    records = []
    for scenario, k, rows, context in (
        ("full", 0, len(corpus.ids), lambda: _prefilled(model, corpus)),
        ("rag", budget, rag_rows, lambda: _prefilled(model, rag_context())),
        ("kvc", budget, compressed.n_kept, compressed.to_kv_cache),
    ):
        def timed():
            t0 = time.perf_counter()
            _timed_answer(model, context(), q_ids, first_token)
            return time.perf_counter() - t0

        feasible = rows + q_ids.size <= model.config.max_position
        times = [float("nan")]
        if feasible:
            timed()  # warm-up, discarded
            times = [timed() for _ in range(reps)]
        else:
            log.warning("scenario=%s infeasible at %d context rows for max_position=%d",
                        scenario, rows, model.config.max_position)
        records.append(TimingRecord(
            scenario, bundle.spec.n_tokens, k, int(q_ids.size),
            float(statistics.median(times)), float(min(times)), reps, feasible,
        ))
    return records


TTFT_CSV_COLUMNS = ("scenario", "corpus_tokens", "budget", "question_tokens", "median_s", "min_s")


def write_ttft_csv(records, path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TTFT_CSV_COLUMNS)
        for r in records:
            writer.writerow([r.scenario, r.corpus_tokens, r.budget, r.question_tokens, r.median_s, r.min_s])


REPORT_CSV_COLUMNS = ("method", "budget", "connectivity", "n", "mean_overlap", "mean_retention", "mean_evidence_recall", "schema_version")


def emit_report(records, out_path) -> list[dict]:
    """Aggregate run records into per (method, budget, connectivity) means.

    For every (budget, connectivity) that has retrieval rows, one extra
    ``rag_bound`` row carries the evidence-coverage ceiling for join
    questions, ``retrieval.coverage_bound`` at the records' ``chunk_tokens``.
    Records that share a connectivity but come from different corpora are
    refused. Failed cells count toward n but score zero overlap, so
    partial runs stay visible.
    """
    records = list(records)
    if not records:
        raise UsageError("no records to report on")
    fps: dict[int, set[str]] = {}
    for r in records:
        fps.setdefault(r.connectivity, set()).add(r.corpus_fp)
    for conn, seen in sorted(fps.items()):
        if len(seen) > 1:
            raise UsageError(
                f"records at connectivity {conn} mix {len(seen)} different corpus fingerprints"
            )

    groups: dict[tuple, list[RunRecord]] = {}
    for r in records:
        groups.setdefault((r.method, r.budget, r.connectivity), []).append(r)

    rows = []
    for (method, budget, conn), group in sorted(groups.items()):
        recalls = [g.evidence_recall for g in group if g.evidence_recall is not None]
        retentions = [g.retention for g in group if g.retention is not None]
        rows.append(
            {
                "method": method,
                "budget": budget,
                "connectivity": conn,
                "n": len(group),
                "mean_overlap": float(np.mean([g.overlap for g in group])),
                "mean_retention": float(np.mean(retentions)) if retentions else "",
                "mean_evidence_recall": float(np.mean(recalls)) if recalls else "",
                "schema_version": RUNS_SCHEMA_VERSION,
            }
        )
        if method == "rag":
            n_join = sum(1 for g in group if g.kind == "join")
            if n_join:
                bound = coverage_bound(budget, group[0].chunk_tokens, conn)
                rows.append(
                    {
                        "method": "rag_bound",
                        "budget": budget,
                        "connectivity": conn,
                        "n": n_join,
                        "mean_overlap": "",
                        "mean_retention": "",
                        "mean_evidence_recall": bound,
                        "schema_version": RUNS_SCHEMA_VERSION,
                    }
                )

    with atomic_write(out_path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return rows
