"""Command-line entry point wiring the workbench into reproducible runs.

Seven subcommands cover the full loop: ``corpusgen`` writes a bundle,
``compress`` builds a reusable cache, ``ask`` answers from it, ``rag``
retrieves (and optionally answers), ``eval`` drives the method x budget x
connectivity grid from an INI config, ``ttft`` sweeps first-token latency,
and ``report`` aggregates run records.

Paths are resolved against ``--out`` where a command has one, and every
relative path is anchored at the ``KVC_OUT`` environment variable when set
(current directory otherwise). Exit codes: 0 success, 2 usage or config
error or unwritable output, 3 missing or unreadable artifact, 4 stale or
structurally incompatible artifact.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._binio import read_artifact, writing
from .cachefile import check_header_fits, load_cache, save_cache
from .compress import answer_with_cache
from .corpusgen import (
    MAX_CONNECTIVITY,
    NAME_STYLES,
    CorpusSpec,
    generate_corpus,
    load_bundle,
    save_bundle,
)
from .errors import (
    FormatError,
    KvcError,
    MalformedSequenceError,
    MissingArtifactError,
    PositionOverflowError,
    StaleCacheError,
    UsageError,
)
from .evalharness import (
    COMPRESSED_METHODS,
    METHODS,
    GenerationParams,
    answer_with_context,
    default_eval_config,
    emit_report,
    load_records,
    make_guidance,
    measure_ttft,
    question_prompt,
    run_suite,
    select_fewshot,
    ttft_reference_config,
    write_ttft_csv,
)
from .modelcore import Model, ModelConfig, init_random_model
from .retrieval import admitted, assemble_context, index_chunks, retrieve
from .vocab import detokenize, tokenize
from .weights import load_weights

log = logging.getLogger(__name__)

TTFT_DEFAULT_SIZES = "16384,32768,65536,131072"


def _out_root() -> Path:
    return Path(os.environ.get("KVC_OUT", "."))


def _resolve(path) -> Path:
    p = Path(path)
    return p if p.is_absolute() else _out_root() / p


def _csv_ints(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} must not be empty")
    return values


def _model(weights, seed: int, config: ModelConfig) -> Model:
    """The model of KVCW file `weights`, under the config it stores, when
    given, else the random model of `config` drawn from `seed`."""
    return load_weights(_resolve(weights)) if weights else init_random_model(config, seed)


def _add_model_args(sub) -> None:
    sub.add_argument("--model-seed", type=int, default=0,
                     help="seed for the deterministic random model (default %(default)s)")
    sub.add_argument("--weights", default=None,
                     help="KVCW weight file, which stores its own config (overrides --model-seed)")


# --- corpusgen ----------------------------------------------------------------

# corpusgen flag and [corpus] INI key -> (CorpusSpec field, help text); the
# defaults are CorpusSpec's own
_CORPUS_KEYS = {
    "people": ("n_people", "number of people"),
    "projects": ("n_projects", "number of projects"),
    "filler": ("n_filler", "number of filler chunks"),
    "chunk_tokens": ("chunk_tokens", "tokens per chunk"),
    "questions_per_kind": ("questions_per_kind", "direct and join questions each"),
    "name_style": ("name_style", "person name style"),
}


def cmd_corpusgen(args) -> int:
    fields = {name: getattr(args, key) for key, (name, _) in _CORPUS_KEYS.items()}
    spec = CorpusSpec(seed=args.seed, connectivity=args.connectivity, **fields)
    bundle = generate_corpus(spec)
    out = _resolve(args.out)
    save_bundle(bundle, out)
    direct = sum(1 for q in bundle.questions if q.kind == "direct")
    join = len(bundle.questions) - direct
    print(f"wrote {spec.n_chunks} chunks x {spec.chunk_tokens} tokens = {spec.n_tokens} tokens")
    print(f"questions: {direct} direct + {join} join (connectivity {spec.connectivity})")
    print(f"bundle: {out}")
    return 0


# --- compress -----------------------------------------------------------------

def cmd_compress(args) -> int:
    check_header_fits(args.budget, args.segments)  # refused before anything is compressed
    bundle = load_bundle(_resolve(args.bundle))
    model = _model(args.weights, args.model_seed, default_eval_config(len(bundle.vocab)))
    kind, build = COMPRESSED_METHODS[args.method]
    if kind == "fsq" and not (args.query and args.query.strip()):
        raise UsageError("--method kvc_fsq requires --query")
    guidance = None
    if kind:
        examples = [] if kind == "zs" else select_fewshot(bundle, args.examples)
        guidance = make_guidance(kind, examples, query=args.query)
    t0 = time.perf_counter()
    compressed = build(model, bundle.corpus_tokens(), guidance, bundle.vocab, args.budget, args.segments, lambda: None)
    dt = time.perf_counter() - t0
    out = _resolve(args.out)
    save_cache(compressed, out)
    n = compressed.meta.n_context
    print(f"compressed {n} -> {compressed.n_kept} rows/layer "
          f"({n / compressed.n_kept:.1f}x) in {dt:.2f}s ({compressed.meta.method}, s={compressed.meta.s})")
    print(f"cache: {out}")
    return 0


# --- ask ----------------------------------------------------------------------

def cmd_ask(args) -> int:
    if not args.question.strip():
        raise UsageError("question must be nonempty")
    bundle = load_bundle(_resolve(args.bundle))
    model = _model(args.weights, args.model_seed, default_eval_config(len(bundle.vocab)))
    cache_path = _resolve(args.cache)
    # the corpus before the model, which answer_with_cache checks: the default
    # model's config follows the bundle's vocabulary, so another corpus
    # usually means another model too
    compressed = load_cache(cache_path)
    if compressed.meta.corpus_fingerprint != bundle.corpus_fingerprint():
        raise StaleCacheError(f"{cache_path}: cache was built over a different corpus than bundle {args.bundle}")
    prompt = question_prompt(args.question, bundle.vocab)
    t0 = time.perf_counter()
    answer = answer_with_cache(
        model, compressed, prompt, GenerationParams(max_new_tokens=args.max_new)
    )
    dt = time.perf_counter() - t0
    print(f"answer: {detokenize(answer, bundle.vocab)}")
    print(f"timing: compress 0.000s (cache loaded), answer {dt:.3f}s")
    return 0


# --- rag ----------------------------------------------------------------------

def cmd_rag(args) -> int:
    if not args.question.strip():
        raise UsageError("question must be nonempty")
    if args.top < 0:
        raise UsageError(f"--top must be >= 0, got {args.top}")
    bundle = load_bundle(_resolve(args.bundle))
    query = tokenize(args.question, bundle.vocab)
    result = retrieve(index_chunks(bundle), query, top_b=len(bundle.chunks))
    # assemble before printing, so a budget below one chunk fails before the ranking
    context = assemble_context(bundle, result, args.budget) if args.answer else None
    if args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")
    if result.no_known_terms:
        print("note: query shares no terms with the corpus; ranking is chunk-id order")
    n_fit = len(admitted(result, args.budget, bundle.spec.chunk_tokens))
    for rank, cid in enumerate(result.ranking[: max(args.top, n_fit)]):
        marker = "*" if rank < n_fit else " "
        print(f"{marker} rank {rank:2d}  chunk {cid:4d}  score {result.scores[rank]:.4f}  {bundle.chunks[cid].kind}")
    if args.answer:
        model = _model(args.weights, args.model_seed, default_eval_config(len(bundle.vocab)))
        answer = answer_with_context(
            model, context, question_prompt(args.question, bundle.vocab),
            GenerationParams(max_new_tokens=args.max_new),
        )
        print(f"answer: {detokenize(answer, bundle.vocab)}")
    return 0


# --- eval ---------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    model_seed: int
    weights: str | None
    corpus_seeds: tuple[int, ...]
    connectivity: tuple[int, ...]
    corpus: dict  # CorpusSpec field -> value, one per _CORPUS_KEYS entry
    methods: tuple[str, ...]
    budgets: tuple[int, ...]
    fewshot: int
    segments: int
    max_new: int
    out_dir: str


_CONFIG_SCHEMA = {
    "model": {"seed", "weights"},
    "corpus": {"seeds", "connectivity", *_CORPUS_KEYS},
    "eval": {"methods", "budgets", "fewshot", "segments", "max_new"},
    "out": {"dir"},
}


# a section header line is the header alone: configparser's own pattern
# reads "[corpus]seeds=3" as "[corpus]" and drops the rest
_SECTION_LINE = re.compile(r"\[(?P<header>[^]]+)\]$")


def parse_eval_config(path: Path) -> RunConfig:
    parser = configparser.ConfigParser()
    parser.SECTCRE = _SECTION_LINE
    try:
        parser.read_string(read_artifact(path, "eval config").decode(), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise UsageError(f"{path}: unknown config section [{section}]")
        for key in parser[section]:
            if key not in _CONFIG_SCHEMA[section]:
                raise UsageError(f"{path}: unknown key {key!r} in [{section}]")

    def get(section, key, fallback=None):
        return parser.get(section, key, fallback=fallback) if parser.has_section(section) else fallback

    try:
        methods = tuple(m.strip() for m in get("eval", "methods", "rag,kvc_fs").split(",") if m.strip())
        for m in methods:
            if m not in METHODS:
                raise UsageError(f"{path}: unknown method {m!r} (choose from {METHODS})")
        corpus = {}
        for key, (name, _) in _CORPUS_KEYS.items():
            default = getattr(CorpusSpec, name)
            corpus[name] = type(default)(get("corpus", key, default))
        config = RunConfig(
            model_seed=int(get("model", "seed", "0")),
            weights=get("model", "weights"),
            corpus_seeds=tuple(_csv_ints(get("corpus", "seeds", "1"), "corpus.seeds")),
            connectivity=tuple(_csv_ints(get("corpus", "connectivity", "2"), "corpus.connectivity")),
            corpus=corpus,
            methods=methods,
            budgets=tuple(_csv_ints(get("eval", "budgets", "512,1024,2048,4096"), "eval.budgets")),
            fewshot=int(get("eval", "fewshot", "3")),
            segments=int(get("eval", "segments", "2")),
            max_new=int(get("eval", "max_new", "12")),
            out_dir=get("out", "dir", "results"),
        )
    except (ValueError, configparser.Error) as exc:  # configparser: a stray "%"
        raise UsageError(f"{path}: bad value: {exc}") from None
    return config


def cmd_eval(args) -> int:
    config = parse_eval_config(_resolve(args.config))
    # a key lost to damage (say, commented out) shows here as its default
    print(f"config: {config}")
    out_dir = _resolve(config.out_dir)
    runs_dir = out_dir / "runs"
    report_dir = out_dir / "report"
    for folder in (runs_dir, report_dir):
        with writing(folder):
            folder.mkdir(parents=True, exist_ok=True)

    n_failed = 0
    for seed in config.corpus_seeds:
        seed_records = []
        for conn in config.connectivity:
            bundle = generate_corpus(CorpusSpec(seed=seed, connectivity=conn, **config.corpus))
            model = _model(config.weights, config.model_seed, default_eval_config(len(bundle.vocab)))
            runs_path = runs_dir / f"s{seed}c{conn}.jsonl"
            if not args.resume:
                with writing(runs_path):
                    runs_path.unlink(missing_ok=True)
            records = run_suite(
                model, bundle,
                methods=config.methods,
                budgets=config.budgets,
                out_path=runs_path,
                s=config.segments,
                n_fewshot=config.fewshot,
                params=GenerationParams(max_new_tokens=config.max_new),
            )
            n_failed += sum(1 for r in records if r.error)
            seed_records.extend(records)
            print(f"seed {seed} connectivity {conn}: {len(records)} records -> {runs_path}")
        report_path = report_dir / f"report-s{seed}.csv"
        emit_report(seed_records, report_path)
        print(f"report: {report_path}")
    if n_failed:
        print(f"warning: {n_failed} cells failed (recorded with error text)", file=sys.stderr)
    return 0


# --- ttft ---------------------------------------------------------------------

def _ttft_bundle(n_tokens: int, seed: int):
    """A real bundle sized to exactly n_tokens by scaling people and filler."""
    n_chunks, rem = divmod(n_tokens, CorpusSpec.chunk_tokens)
    if rem:
        raise UsageError(f"corpus size {n_tokens} is not a multiple of {CorpusSpec.chunk_tokens}")
    n_people = min(CorpusSpec.n_people, n_chunks // 4)
    n_projects = min(CorpusSpec.n_projects, n_chunks // 4)
    n_filler = n_chunks - 2 * n_people - n_projects
    connectivity = 2
    if n_projects < connectivity:  # else n_chunks // 4 >= 2: two people or more, filler >= 0
        raise UsageError(f"corpus size {n_tokens} too small for a bundle")
    spec = CorpusSpec(
        seed=seed, connectivity=connectivity, n_people=n_people, n_projects=n_projects,
        n_filler=n_filler, questions_per_kind=min(CorpusSpec.questions_per_kind, n_people),
    )
    return generate_corpus(spec)


def cmd_ttft(args) -> int:
    sizes = _csv_ints(args.sizes, "--sizes")
    if args.question_tokens < 1:
        raise UsageError(f"--question-tokens must be >= 1, got {args.question_tokens}")
    records = []
    for size in sizes:
        bundle = _ttft_bundle(size, args.seed)
        vocab_size = len(bundle.vocab)
        model = _model(args.weights, args.model_seed, ttft_reference_config(vocab_size))
        rng = np.random.default_rng(args.seed)
        question = rng.integers(4, vocab_size, size=args.question_tokens).tolist()
        records += measure_ttft(model, bundle, question, args.budget, args.reps)
        for rec in records[-3:]:
            status = f"{rec.median_s:.4f}s median" if rec.feasible else "infeasible"
            print(f"corpus {size:7d}  {rec.scenario:4s}  {status}")
    out = _resolve(args.out)
    write_ttft_csv(records, out)
    print(f"ttft table: {out}")
    return 0


# --- report -------------------------------------------------------------------

def cmd_report(args) -> int:
    records = []
    for path in args.runs:
        records.extend(load_records(_resolve(path)))
    out = _resolve(args.out)
    rows = emit_report(records, out)
    print(f"{len(rows)} report rows from {len(records)} records -> {out}")
    return 0


# --- parser / dispatch ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvc",
        description="Task-aware KV-cache compression workbench: corpus generation, "
                    "compression, retrieval, evaluation, and latency measurement.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress details")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = subs.add_parser("corpusgen", help="generate a synthetic corpus bundle")
    p.add_argument("--connectivity", type=int, required=True,
                   help=f"projects per person, 1..{MAX_CONNECTIVITY}")
    p.add_argument("--seed", type=int, default=0, help="corpus seed (default %(default)s)")
    p.add_argument("--out", required=True, help="bundle directory to write")
    for key, (name, text) in _CORPUS_KEYS.items():
        default = getattr(CorpusSpec, name)
        p.add_argument("--" + key.replace("_", "-"), type=type(default), default=default,
                       choices=NAME_STYLES if key == "name_style" else None,
                       help=f"{text} (default %(default)s)")
    p.set_defaults(func=cmd_corpusgen)

    p = subs.add_parser("compress", help="compress a bundle's corpus into a reusable cache")
    p.add_argument("--bundle", required=True, help="bundle directory from corpusgen")
    p.add_argument("--budget", type=int, required=True, help="kept rows per layer (k)")
    p.add_argument("--method", choices=COMPRESSED_METHODS, default="kvc_fs",
                   help="compression method (default %(default)s)")
    p.add_argument("--examples", type=int, default=3,
                   help="few-shot examples for kvc_fs, kvc_fsq and oracle (default %(default)s)")
    p.add_argument("--query", default=None, help="live query text (kvc_fsq only)")
    p.add_argument("--segments", type=int, default=2,
                   help="iterative segment count s, kvc methods only (default %(default)s)")
    p.add_argument("--out", required=True, help="cache file to write (KVCC)")
    _add_model_args(p)
    p.set_defaults(func=cmd_compress)

    p = subs.add_parser("ask", help="answer a question from a compressed cache")
    p.add_argument("--cache", required=True, help="KVCC cache file from compress")
    p.add_argument("--bundle", required=True, help="bundle directory (vocabulary source)")
    p.add_argument("--question", required=True, help="question text")
    p.add_argument("--max-new", type=int, default=12,
                   help="maximum generated tokens (default %(default)s)")
    _add_model_args(p)
    p.set_defaults(func=cmd_ask)

    p = subs.add_parser("rag", help="retrieve chunks for a question, optionally answer")
    p.add_argument("--bundle", required=True, help="bundle directory from corpusgen")
    p.add_argument("--question", required=True, help="query text")
    p.add_argument("--budget", type=int, default=1024,
                   help="context token budget (default %(default)s)")
    p.add_argument("--top", type=int, default=8, help="ranks to display (default %(default)s)")
    p.add_argument("--answer", action="store_true", help="also answer over the retrieved context")
    p.add_argument("--max-new", type=int, default=12,
                   help="maximum generated tokens (default %(default)s)")
    _add_model_args(p)
    p.set_defaults(func=cmd_rag)

    p = subs.add_parser("eval", help="run the method x budget x connectivity grid from a config")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--resume", action="store_true",
                   help="keep existing run records and fill in missing cells")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("ttft", help="sweep time-to-first-token across corpus sizes")
    p.add_argument("--sizes", default=TTFT_DEFAULT_SIZES,
                   help="comma-separated corpus sizes (default %(default)s)")
    p.add_argument("--budget", type=int, default=8192,
                   help="rag/kvc context budget (default %(default)s)")
    p.add_argument("--question-tokens", type=int, default=512,
                   help="question length (default %(default)s)")
    p.add_argument("--reps", type=int, default=5,
                   help="timed repetitions after one warm-up (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="corpus/question seed (default %(default)s)")
    p.add_argument("--out", default="ttft.csv", help="output CSV (default %(default)s)")
    _add_model_args(p)
    p.set_defaults(func=cmd_ttft)

    p = subs.add_parser("report", help="aggregate run records into a summary CSV")
    p.add_argument("--runs", nargs="+", required=True, help="run JSONL files")
    p.add_argument("--out", default="report.csv", help="output CSV (default %(default)s)")
    p.set_defaults(func=cmd_report)

    return parser


def _exit_code(exc: KvcError) -> int:
    if isinstance(exc, (UsageError, MalformedSequenceError, PositionOverflowError)):
        return 2
    if isinstance(exc, MissingArtifactError):
        return 3
    if isinstance(exc, (FormatError, StaleCacheError)):
        return 4
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except KvcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
