"""End-to-end CLI coverage: every subcommand exercised in process through
main(argv), exit-code mapping, artifact interop between commands, and
golden --help output."""

import csv
import dataclasses
import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest

import kvcbench.evalharness as evalharness
from kvcbench.cachefile import load_cache
from kvcbench.cli import TTFT_DEFAULT_SIZES, _exit_code, main
from kvcbench.corpusgen import BUNDLE_DATA_FILES, load_bundle
from kvcbench.errors import (
    FormatError,
    KvcError,
    MalformedSequenceError,
    MissingArtifactError,
    PositionOverflowError,
    StaleCacheError,
    UsageError,
)
from kvcbench.evalharness import (
    COMPRESSED_METHODS,
    GenerationParams,
    RunRecord,
    default_eval_config,
    load_records,
    run_suite,
    select_fewshot,
)
from kvcbench.modelcore import init_random_model
from kvcbench.weights import CONFIG as WEIGHTS_HEADER
from kvcbench.weights import save_weights

DATA_DIR = Path(__file__).parent / "data"

BUNDLE_ARGS = [
    "corpusgen", "--connectivity", "2", "--seed", "7", "--out", "bundle",
    "--people", "6", "--projects", "6", "--filler", "2",
    "--chunk-tokens", "80", "--questions-per-kind", "4",
]


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("KVC_OUT", str(tmp_path))
    return tmp_path


@pytest.fixture()
def bundle_dir(workdir, capsys):
    assert main(BUNDLE_ARGS) == 0
    capsys.readouterr()
    return workdir / "bundle"


def read_question(bundle_dir):
    line = (bundle_dir / "questions.jsonl").read_text().splitlines()[0]
    return json.loads(line)["text"]


def test_corpusgen_writes_bundle_and_reruns_identically(workdir, capsys):
    assert main(BUNDLE_ARGS) == 0
    out = capsys.readouterr().out
    assert "wrote 20 chunks x 80 tokens = 1600 tokens" in out
    assert "questions: 4 direct + 4 join (connectivity 2)" in out
    for part in ("corpus.jsonl", "questions.jsonl", "spec.json", "vocab.txt"):
        assert (workdir / "bundle" / part).exists()

    args2 = list(BUNDLE_ARGS)
    args2[args2.index("bundle")] = "bundle2"
    assert main(args2) == 0
    for part in ("corpus.jsonl", "questions.jsonl", "spec.json", "vocab.txt"):
        a = (workdir / "bundle" / part).read_bytes()
        b = (workdir / "bundle2" / part).read_bytes()
        assert a == b


def test_corpusgen_rejects_bad_spec(workdir, capsys):
    assert main(["corpusgen", "--connectivity", "0", "--out", "b"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compress_and_ask_round_trip(bundle_dir, workdir, capsys):
    assert main(["compress", "--bundle", "bundle", "--budget", "64",
                 "--method", "kvc_zs", "--out", "ctx.kvcc"]) == 0
    out = capsys.readouterr().out
    assert "compressed 1600 -> 64 rows/layer (25.0x)" in out
    assert (workdir / "ctx.kvcc").exists()

    question = read_question(bundle_dir)
    assert main(["ask", "--cache", "ctx.kvcc", "--bundle", "bundle",
                 "--question", question, "--max-new", "4"]) == 0
    out = capsys.readouterr().out
    assert "answer:" in out
    assert "timing: compress 0.000s (cache loaded)" in out


def test_compress_fsq_needs_query(bundle_dir, capsys):
    args = ["compress", "--bundle", "bundle", "--budget", "32",
            "--method", "kvc_fsq", "--out", "q.kvcc"]
    assert main(args) == 2
    assert "requires --query" in capsys.readouterr().err
    assert main(args + ["--query", "who works where"]) == 0


@pytest.fixture(scope="module")
def suite_builds(tmp_path_factory):
    """The bundle directory, the question asked and every compressed
    method's cache as run_suite builds it at budget 160, s=2, 3 examples."""
    root = tmp_path_factory.mktemp("methods")
    args = list(BUNDLE_ARGS)
    args[args.index("bundle")] = str(root / "bundle")
    assert main(args) == 0
    bundle = load_bundle(root / "bundle")
    model = init_random_model(default_eval_config(len(bundle.vocab)), seed=0)
    examples = select_fewshot(bundle, 3)
    question = next(q for q in bundle.questions if q not in examples)
    registry = {}
    records = run_suite(model, bundle, tuple(COMPRESSED_METHODS), (160,), root / "runs.jsonl",
                        questions=[question], params=GenerationParams(max_new_tokens=2), registry=registry)
    assert [r.error for r in records] == [""] * len(COMPRESSED_METHODS)
    built = {key[0]: entry["value"] for key, entry in registry.items() if key[0] in COMPRESSED_METHODS}
    return root / "bundle", question.text, built


@pytest.mark.parametrize("method", list(COMPRESSED_METHODS))
def test_compress_method_writes_the_suites_cache(suite_builds, tmp_path, capsys, method):
    bundle, question, built = suite_builds
    out = tmp_path / f"{method}.kvcc"
    assert main(["compress", "--bundle", str(bundle), "--budget", "160", "--method", method,
                 "--query", question, "--out", str(out)]) == 0
    loaded, expected = load_cache(out), built[method]
    assert loaded.meta == expected.meta
    if COMPRESSED_METHODS[method][0] is None:
        assert loaded.meta.schedule == method
    for field in ("keys", "values", "kept_positions"):
        got, want = getattr(loaded, field), getattr(expected, field)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    capsys.readouterr()
    assert main(["ask", "--cache", str(out), "--bundle", str(bundle),
                 "--question", question, "--max-new", "2"]) == 0
    assert "answer:" in capsys.readouterr().out


def test_ask_error_paths(bundle_dir, workdir, capsys):
    assert main(["ask", "--cache", "x.kvcc", "--bundle", "bundle",
                 "--question", "  "]) == 2
    assert main(["ask", "--cache", "missing.kvcc", "--bundle", "bundle",
                 "--question", "anything"]) == 3

    assert main(["compress", "--bundle", "bundle", "--budget", "32",
                 "--method", "kvc_zs", "--out", "ok.kvcc"]) == 0
    # truncated container is structural damage, not a missing artifact
    cache = workdir / "ok.kvcc"
    cache.write_bytes(cache.read_bytes()[:-9])
    assert main(["ask", "--cache", "ok.kvcc", "--bundle", "bundle",
                 "--question", "anything"]) == 4
    # a cache of a version load_cache no longer reads is refused, not parsed
    assert main(["compress", "--bundle", "bundle", "--budget", "32",
                 "--method", "kvc_zs", "--out", "v3.kvcc"]) == 0
    raw = bytearray((workdir / "v3.kvcc").read_bytes())
    raw[4:8] = struct.pack("<I", 3)
    (workdir / "v3.kvcc").write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["ask", "--cache", "v3.kvcc", "--bundle", "bundle",
                 "--question", "anything"]) == 4
    assert "unsupported KVCC version 3 (expected 4)" in capsys.readouterr().err


def test_ask_on_an_empty_cache_exits_4(bundle_dir, workdir, capsys):
    """mmap refuses an empty file; an empty KVCC is damage, not unreadable."""
    (workdir / "empty.kvcc").write_bytes(b"")
    assert main(["ask", "--cache", "empty.kvcc", "--bundle", "bundle",
                 "--question", "anything"]) == 4
    assert "unexpected end of container at byte 0" in capsys.readouterr().err


def test_ask_refuses_cache_from_other_model(bundle_dir, workdir, capsys):
    assert main(["compress", "--bundle", "bundle", "--budget", "32",
                 "--method", "kvc_zs", "--model-seed", "0", "--out", "m0.kvcc"]) == 0
    assert main(["ask", "--cache", "m0.kvcc", "--bundle", "bundle",
                 "--question", "anything", "--model-seed", "1"]) == 4
    assert "different model" in capsys.readouterr().err


def test_ask_refuses_cache_from_other_corpus(bundle_dir, workdir, capsys):
    other = list(BUNDLE_ARGS)
    other[other.index("7")], other[other.index("bundle")] = "8", "other"
    assert main(other) == 0
    # one KVCW for both bundles, so only the corpus differs
    vocab_size = max(len((workdir / b / "vocab.txt").read_text().splitlines()) for b in ("bundle", "other"))
    save_weights(init_random_model(default_eval_config(vocab_size), seed=5), workdir / "m.kvcw")
    assert main(["compress", "--bundle", "bundle", "--budget", "32", "--method", "kvc_zs",
                 "--weights", "m.kvcw", "--out", "b.kvcc"]) == 0
    capsys.readouterr()
    assert main(["ask", "--cache", "b.kvcc", "--bundle", "other",
                 "--question", "anything", "--weights", "m.kvcw"]) == 4
    assert "different corpus" in capsys.readouterr().err
    assert main(["ask", "--cache", "b.kvcc", "--bundle", "bundle",
                 "--question", "anything", "--weights", "m.kvcw"]) == 0


def saved_model(bundle_dir, workdir):
    """The seed-5 eval model for the bundle, written with save_weights alone
    to m.kvcw."""
    vocab_size = len((bundle_dir / "vocab.txt").read_text().splitlines())
    model = init_random_model(default_eval_config(vocab_size), seed=5)
    save_weights(model, workdir / "m.kvcw")
    return model


def test_weights_file_flow(bundle_dir, workdir, capsys):
    """A KVCW is all `--weights` needs: no other file names its config."""
    model = saved_model(bundle_dir, workdir)
    assert [p.name for p in workdir.glob("m.kvcw*")] == ["m.kvcw"]

    assert main(["compress", "--bundle", "bundle", "--budget", "32", "--method", "kvc_zs",
                 "--weights", "m.kvcw", "--out", "w.kvcc"]) == 0
    load_cache(workdir / "w.kvcc", model=model)  # same fingerprint as the model in process
    assert main(["ask", "--cache", "w.kvcc", "--bundle", "bundle",
                 "--question", "anything", "--weights", "m.kvcw"]) == 0
    assert main([*RAG_WITH_WEIGHTS, "--question", read_question(bundle_dir)]) == 0
    assert "answer:" in capsys.readouterr().out
    # seed-0 default model did not build this cache
    assert main(["ask", "--cache", "w.kvcc", "--bundle", "bundle",
                 "--question", "anything"]) == 4


def test_rag_ranking_markers_and_answer(bundle_dir, capsys):
    question = read_question(bundle_dir)
    assert main(["rag", "--bundle", "bundle", "--question", question,
                 "--budget", "160", "--top", "4"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "rank" in l]
    assert len(lines) == 4
    assert all(l.startswith("*") for l in lines[:2])  # 160 // 80 = 2 chunks fit
    assert all(l.startswith(" ") for l in lines[2:])

    assert main(["rag", "--bundle", "bundle", "--question", question,
                 "--budget", "160", "--answer", "--max-new", "4"]) == 0
    assert "answer:" in capsys.readouterr().out


def test_rag_answer_below_one_chunk_exits_2_before_ranking(bundle_dir, capsys):
    assert main(["rag", "--bundle", "bundle", "--question", read_question(bundle_dir),
                 "--budget", "-5", "--answer"]) == 2
    out, err = capsys.readouterr()
    assert "rank" not in out
    assert "budget -5 below chunk width 80" in err


@pytest.mark.parametrize("flags, message", [
    (["--top", "-3"], "--top must be >= 0, got -3"),
    (["--budget", "0"], "--budget must be >= 1, got 0"),
    (["--budget", "-5"], "--budget must be >= 1, got -5"),
    (["--budget", "-5", "--top", "-3"], "--top must be >= 0, got -3"),
])
def test_rag_negative_counts_exit_2_before_ranking(bundle_dir, capsys, flags, message):
    assert main(["rag", "--bundle", "bundle", "--question", read_question(bundle_dir), *flags]) == 2
    out, err = capsys.readouterr()
    assert "rank" not in out
    assert message in err


@pytest.mark.parametrize("budget", ["1", "79"])
def test_rag_budget_below_one_chunk_ranks_without_marks(bundle_dir, capsys, budget):
    assert main(["rag", "--bundle", "bundle", "--question", read_question(bundle_dir),
                 "--budget", budget, "--top", "3"]) == 0
    ranks = [line for line in capsys.readouterr().out.splitlines() if "rank" in line]
    assert len(ranks) == 3 and not any(line.startswith("*") for line in ranks)


def spec_with(**changes):
    return lambda raw: json.dumps({**json.loads(raw), **changes}).encode()


def first_row_with(**changes):
    def damage(raw):
        first, rest = raw.split(b"\n", 1)
        return json.dumps({**json.loads(first), **changes}).encode() + b"\n" + rest
    return damage


@pytest.mark.parametrize("part, damage", [
    ("spec.json", lambda raw: b"{not json" + raw),
    ("corpus.jsonl", lambda raw: raw[: raw.index(b"\n") // 2] + raw[raw.index(b"\n"):]),
    ("questions.jsonl", lambda raw: raw.replace(b'"template_id"', b'"template"', 1)),
    ("vocab.txt", lambda raw: raw[raw.index(b"\n") + 1:]),
    ("spec.json", spec_with(connectivity=9)),
    ("spec.json", spec_with(n_people=0)),
    ("spec.json", spec_with(name_style="x")),
    ("corpus.jsonl", first_row_with(text=5)),
    ("corpus.jsonl", first_row_with(kind=7)),
    ("corpus.jsonl", first_row_with(page=1)),
    ("questions.jsonl", first_row_with(gold_positions="ab")),
    ("questions.jsonl", first_row_with(text=5)),
    ("corpus.jsonl", first_row_with(kind="bogus")),
    ("questions.jsonl", first_row_with(kind="bogus")),
    ("spec.json", spec_with(seed=8)),
    ("spec.json", spec_with(connectivity=3)),
    ("questions.jsonl", first_row_with(answers=["nobody"])),
    ("spec.json", lambda raw: json.dumps(
        {k: v for k, v in json.loads(raw).items() if k != "bundle_sha256"}).encode()),
], ids=["spec_not_json", "corpus_torn_line", "question_missing_key", "vocab_no_specials",
        "spec_connectivity_9", "spec_no_people", "spec_bad_name_style", "chunk_text_int",
        "chunk_kind_int", "chunk_unknown_key", "question_positions_str", "question_text_int",
        "chunk_kind_unknown", "question_kind_unknown", "spec_seed_edit", "spec_connectivity_edit",
        "question_answer_edit", "spec_no_fingerprint"])
def test_damaged_bundle_exits_4(bundle_dir, capsys, part, damage):
    path = bundle_dir / part
    path.write_bytes(damage(path.read_bytes()))
    assert main(["compress", "--bundle", "bundle", "--budget", "32", "--method", "kvc_zs",
                 "--out", "x.kvcc"]) == 4
    assert part in capsys.readouterr().err


EVAL_INI = """\
[model]
seed = 0

[corpus]
seeds = 3
connectivity = 1
people = 4
projects = 4
filler = 1
chunk_tokens = 80
questions_per_kind = 2

[eval]
methods = full,streaming
budgets = 48
fewshot = 1
max_new = 4

[out]
dir = results
"""


def test_eval_grid_and_resume(workdir, capsys):
    (workdir / "eval.ini").write_text(EVAL_INI)
    assert main(["eval", "--config", "eval.ini"]) == 0
    out = capsys.readouterr().out
    assert "seed 3 connectivity 1: 6 records" in out
    runs = workdir / "results" / "runs" / "s3c1.jsonl"
    report = workdir / "results" / "report" / "report-s3.csv"
    assert len(runs.read_text().splitlines()) == 6
    with report.open() as fh:
        methods = {row["method"] for row in csv.DictReader(fh)}
    assert methods == {"full", "streaming"}

    # resume keeps finished cells; a fresh run replaces them; both end at 6
    assert main(["eval", "--config", "eval.ini", "--resume"]) == 0
    assert len(runs.read_text().splitlines()) == 6
    assert main(["eval", "--config", "eval.ini"]) == 0
    assert len(runs.read_text().splitlines()) == 6
    capsys.readouterr()


def test_eval_resume_refuses_runs_of_another_corpus(workdir, monkeypatch, capsys):
    (workdir / "eval.ini").write_text(EVAL_INI)
    assert main(["eval", "--config", "eval.ini"]) == 0
    runs = workdir / "results" / "runs" / "s3c1.jsonl"
    before = runs.read_bytes()
    # one more filler chunk: another corpus under the same runs file name
    (workdir / "eval.ini").write_text(EVAL_INI.replace("filler = 1", "filler = 2"))
    monkeypatch.setattr(evalharness, "_run_cell", lambda *args: pytest.fail("a cell ran"))
    assert main(["eval", "--config", "eval.ini", "--resume"]) == 4
    assert "another corpus" in capsys.readouterr().err
    assert runs.read_bytes() == before


@pytest.mark.parametrize("edit", [
    ("seed = 0", "seed = 1"),  # another model
    ("[eval]\n", "[eval]\nsegments = 1\n"),
    ("fewshot = 1", "fewshot = 2"),
    ("max_new = 4", "max_new = 5"),
    None,  # the same settings over version 1 records, which carried no chunk width
], ids=["model", "segments", "fewshot", "max_new", "old_schema"])
def test_eval_resume_refuses_runs_of_other_settings(workdir, monkeypatch, capsys, edit):
    (workdir / "eval.ini").write_text(EVAL_INI)
    assert main(["eval", "--config", "eval.ini"]) == 0
    runs = workdir / "results" / "runs" / "s3c1.jsonl"
    if edit is None:
        rows = [json.loads(line) for line in runs.read_text().splitlines()]
        runs.write_text("".join(json.dumps({**{k: v for k, v in row.items() if k != "chunk_tokens"},
                                            "schema_version": 1}) + "\n"
                                for row in rows))
    else:
        assert edit[0] in EVAL_INI
        (workdir / "eval.ini").write_text(EVAL_INI.replace(*edit))
    before = runs.read_bytes()
    monkeypatch.setattr(evalharness, "_run_cell", lambda *args: pytest.fail("a cell ran"))
    assert main(["eval", "--config", "eval.ini", "--resume"]) == 4
    reason = "line 1 is not a run record" if edit is None else "another corpus or setting"
    assert reason in capsys.readouterr().err
    assert runs.read_bytes() == before


class Killed(BaseException):
    """Stands in for a kill: no per-cell ``except Exception`` catches it."""


def test_eval_resume_after_a_kill(workdir, monkeypatch, capsys):
    (workdir / "eval.ini").write_text(EVAL_INI)
    runs = workdir / "results" / "runs" / "s3c1.jsonl"
    assert main(["eval", "--config", "eval.ini"]) == 0
    uninterrupted = load_records(runs)

    run_cell = evalharness._run_cell
    computed = []

    def cell(*args):  # args[5:8] are the method, budget and question
        computed.append((args[7].qid, args[5], args[6]))
        if len(computed) == 4:
            raise Killed
        return run_cell(*args)

    monkeypatch.setattr(evalharness, "_run_cell", cell)
    with pytest.raises(Killed):
        main(["eval", "--config", "eval.ini"])
    first_three = runs.read_bytes()
    assert len(first_three.splitlines()) == 3

    computed.clear()
    assert main(["eval", "--config", "eval.ini", "--resume"]) == 0
    resumed = load_records(runs)
    keys = [(r.qid, r.method, r.budget) for r in resumed]
    assert len(set(keys)) == len(keys)
    assert runs.read_bytes().startswith(first_three)
    assert computed == keys[3:]
    assert [(r.qid, r.method, r.budget, r.answer, r.overlap, r.retention) for r in resumed] == [
        (r.qid, r.method, r.budget, r.answer, r.overlap, r.retention) for r in uninterrupted
    ]
    capsys.readouterr()


def test_eval_prints_its_resolved_config_before_the_first_cell(workdir, monkeypatch, capsys):
    """A key lost to a comment runs at its default, and the config line
    shows that default before any cell runs."""
    (workdir / "eval.ini").write_text(EVAL_INI.replace("fewshot = 1", "# fewshot = 5"))
    def cell(*args):
        raise Killed

    monkeypatch.setattr(evalharness, "_run_cell", cell)
    with pytest.raises(Killed):
        main(["eval", "--config", "eval.ini"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config: RunConfig(")
    assert "fewshot=3" in lines[0] and "max_new=4" in lines[0]


@pytest.mark.parametrize("mutate, code", [
    (lambda t: t.replace("full,streaming", "full,warp"), 2),
    (lambda t: t.replace("[eval]", "[extras]"), 2),
    (lambda t: t.replace("fewshot = 1", "speed = 9"), 2),
    (lambda t: t.replace("people = 4", "people = x"), 2),
    (lambda t: t.replace("full,streaming", "full%streaming"), 2),  # a broken interpolation
    (lambda t: t.replace("seed = 0", "seed = 0\udcff"), 2),  # a byte that is not UTF-8
    (lambda t: t.replace("seed = 0", "seed = 0\nweights = m\x00.kvcw"), 3),  # no such path
    (lambda t: t.replace("[corpus]\nseeds = 3", "[corpus]seeds=3"), 2),  # text after a header
    (lambda t: t.replace("fewshot = 1", "fewshot = -2"), 2),
    (lambda t: t.replace("fewshot = 1", "fewshot = 1\nsegments = 0"), 2),
    (lambda t: t.replace("budgets = 48", "budgets = 0"), 2),
    (lambda t: t.replace("budgets = 48", "budgets = 48,-5"), 2),
])
def test_eval_config_validation(workdir, capsys, mutate, code):
    (workdir / "bad.ini").write_text(mutate(EVAL_INI), errors="surrogateescape")
    assert main(["eval", "--config", "bad.ini"]) == code
    assert "error:" in capsys.readouterr().err


def test_unwritable_outputs_exit_2(bundle_dir, workdir, capsys):
    (workdir / "afile").write_text("")
    (workdir / "eval.ini").write_text(EVAL_INI.replace("dir = results", "dir = afile"))
    assert main(["eval", "--config", "eval.ini"]) == 2
    assert "afile" in capsys.readouterr().err

    (workdir / "adir").mkdir()
    assert main(["compress", "--bundle", "bundle", "--budget", "32", "--method", "kvc_zs",
                 "--out", "adir"]) == 2
    assert "adir" in capsys.readouterr().err
    assert not list(workdir.glob(".adir.*"))  # no temporary file left behind

    # a runs file that is a directory, which a run without --resume deletes first
    (workdir / "eval.ini").write_text(EVAL_INI)
    (workdir / "results" / "runs" / "s3c1.jsonl").mkdir(parents=True)
    assert main(["eval", "--config", "eval.ini"]) == 2
    err = capsys.readouterr().err
    assert "s3c1.jsonl" in err and "Traceback" not in err


def test_compress_creates_its_output_directory(bundle_dir, workdir, capsys):
    assert main(["compress", "--bundle", "bundle", "--budget", "32", "--method", "kvc_zs",
                 "--out", "new/sub/c.kvcc"]) == 0
    assert load_cache(workdir / "new/sub/c.kvcc").n_kept == 32
    capsys.readouterr()


RECORD = RunRecord(
    qid="q0", kind="join", method="rag", budget=160, connectivity=2, corpus_fp="aa",
    answer="x", overlap=1.0, retention=None, evidence_recall=0.5, compress_s=0.0,
    retrieve_s=0.0, prefill_s=0.0, first_token_s=0.0, elapsed_s=0.0,
    chunk_tokens=80, model_fp="bb", segments=2, fewshot=3, max_new=12,
)


@pytest.mark.parametrize("argv", [
    ["compress", "--bundle", "bundle", "--budget", "32", "--method", "kvc_fs",
     "--examples", "-1", "--out", "c.kvcc"],
    ["ttft", "--sizes", "2048", "--reps", "1", "--question-tokens", "-3", "--budget", "256"],
    ["ttft", "--sizes", "2048", "--reps", "1", "--question-tokens", "0", "--budget", "256"],
], ids=["compress_examples", "ttft_question_tokens", "ttft_no_question_tokens"])
def test_bad_counts_exit_2(bundle_dir, workdir, capsys, argv):
    (workdir / "runs.jsonl").write_text(json.dumps(dataclasses.asdict(RECORD)) + "\n")
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_missing_config(workdir, capsys):
    assert main(["eval", "--config", "nowhere.ini"]) == 3
    capsys.readouterr()


def test_ttft_sweep(workdir, capsys):
    assert main(["ttft", "--sizes", "2048", "--reps", "1",
                 "--question-tokens", "8", "--budget", "256",
                 "--out", "ttft.csv"]) == 0
    out = capsys.readouterr().out
    assert "ttft table:" in out
    with (workdir / "ttft.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert [r[:4] for r in rows[1:]] == [  # every column but the timings
        ["full", "2048", "0", "8"], ["rag", "2048", "256", "8"], ["kvc", "2048", "256", "8"]]


@pytest.mark.parametrize("sizes", ["12,x", "100", "256"])
def test_ttft_rejects_bad_sizes(workdir, capsys, sizes):
    assert main(["ttft", "--sizes", sizes, "--reps", "1",
                 "--question-tokens", "4", "--budget", "64"]) == 2
    capsys.readouterr()


def test_ttft_default_sizes_pinned():
    assert TTFT_DEFAULT_SIZES == "16384,32768,65536,131072"


def test_report_merges_runs(workdir, capsys):
    (workdir / "eval.ini").write_text(EVAL_INI)
    assert main(["eval", "--config", "eval.ini"]) == 0
    capsys.readouterr()
    assert main(["report", "--runs", "results/runs/s3c1.jsonl", "--out", "merged.csv"]) == 0
    assert "report rows from 6 records" in capsys.readouterr().out
    assert (workdir / "merged.csv").exists()


def test_report_takes_the_chunk_width_from_the_records(workdir, capsys):
    """80-token chunks at budget 240 fit 3 chunks, the 1 + 2 a join question
    at connectivity 2 needs: `kvc report` finds the bound `kvc eval` does."""
    ini = EVAL_INI.replace("connectivity = 1", "connectivity = 2").replace(
        "full,streaming", "rag").replace("budgets = 48", "budgets = 240")
    (workdir / "eval.ini").write_text(ini)
    assert main(["eval", "--config", "eval.ini"]) == 0
    assert main(["report", "--runs", "results/runs/s3c2.jsonl", "--out", "r.csv"]) == 0
    capsys.readouterr()
    for path in ("results/report/report-s3.csv", "r.csv"):
        with (workdir / path).open() as fh:
            bounds = [row for row in csv.DictReader(fh) if row["method"] == "rag_bound"]
        assert [row["mean_evidence_recall"] for row in bounds] == ["1.0"], path


def test_report_on_a_corrupt_runs_line_exits_4(workdir, capsys):
    (workdir / "eval.ini").write_text(EVAL_INI)
    assert main(["eval", "--config", "eval.ini"]) == 0
    runs = workdir / "results" / "runs" / "s3c1.jsonl"
    lines = runs.read_text().splitlines()
    runs.write_text("\n".join([lines[0][:-5], *lines[1:]]) + "\n")
    capsys.readouterr()
    assert main(["report", "--runs", "results/runs/s3c1.jsonl", "--out", "m.csv"]) == 4
    assert "line 1" in capsys.readouterr().err


def test_report_on_a_wrongly_typed_record_of_another_schema_exits_4(workdir, capsys):
    row = dataclasses.asdict(RECORD)
    row.update(schema_version=99, overlap="high")
    (workdir / "runs.jsonl").write_text(json.dumps(row) + "\n")
    assert main(["report", "--runs", "runs.jsonl", "--out", "m.csv"]) == 4
    assert "line 1" in capsys.readouterr().err


def test_report_missing_runs_file(workdir, capsys):
    assert main(["report", "--runs", "ghost.jsonl", "--out", "m.csv"]) == 3
    capsys.readouterr()


RAG = ["rag", "--bundle", "bundle", "--question", "anything", "--budget", "160"]
RAG_WITH_WEIGHTS = [*RAG, "--answer", "--max-new", "2", "--weights", "m.kvcw"]

# artifact path -> a command that reads it
READERS = {
    "c.kvcc": ["ask", "--cache", "c.kvcc", "--bundle", "bundle", "--question", "anything"],
    **{f"bundle/{part}": RAG for part in ("spec.json", *BUNDLE_DATA_FILES)},
    "m.kvcw": RAG_WITH_WEIGHTS,
    "runs.jsonl": ["report", "--runs", "runs.jsonl", "--out", "m.csv"],
    "eval.ini": ["eval", "--config", "eval.ini"],
}


@pytest.mark.parametrize("artifact", sorted(READERS))
def test_unreadable_artifact_exits_3(bundle_dir, workdir, capsys, artifact):
    """A directory in place of an artifact is an unreadable artifact: exit 3
    with one error line, whatever the command and the file format."""
    saved_model(bundle_dir, workdir)
    target = workdir / artifact
    target.unlink(missing_ok=True)
    target.mkdir()
    assert main(READERS[artifact]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert err[0].startswith("error: cannot read ") and err[0].endswith(f"{target}: Is a directory")


def test_version_3_weights_exit_4(bundle_dir, workdir, capsys):
    """Version 3, whose config sat in a JSON file beside it, is refused, not
    parsed: save the weights again."""
    saved_model(bundle_dir, workdir)
    raw = bytearray((workdir / "m.kvcw").read_bytes())
    raw[4:8] = struct.pack("<I", 3)
    (workdir / "m.kvcw").write_bytes(bytes(raw))
    assert main(RAG_WITH_WEIGHTS) == 4
    assert "unsupported KVCW version 3 (expected 4)" in capsys.readouterr().err


def write_header(path, config):
    """Store `config` in the KVCW at `path`, leaving its fingerprint and
    tensors as they are."""
    raw = bytearray(path.read_bytes())
    raw[8 : 8 + WEIGHTS_HEADER.size] = WEIGHTS_HEADER.pack(*dataclasses.astuple(config))
    path.write_bytes(bytes(raw))


def test_weights_loaded_with_another_config_exit_4(bundle_dir, workdir, capsys):
    """A header naming another valid config ends the tensors early or
    leaves bytes over, and one whose shapes match (one head of width 32,
    rotary off, for two of width 16) or a flipped tensor byte fails the
    stored fingerprint. A flipped top byte of the layer or vocabulary
    count is refused from the file's size, before any per-tensor work."""
    config = saved_model(bundle_dir, workdir).config
    clean = (workdir / "m.kvcw").read_bytes()
    for changes, reason in (({"n_layers": config.n_layers + 1}, "unexpected end of container"),
                            ({"n_layers": config.n_layers - 1}, "trailing bytes"),
                            ({"n_heads": 1, "head_dim": 32, "rotary_enabled": False}, "fingerprint mismatch"),
                            ({"n_layers": config.n_layers ^ 0xFF000000}, "unexpected end of container"),
                            ({"vocab_size": config.vocab_size ^ 0xFF000000}, "unexpected end of container")):
        write_header(workdir / "m.kvcw", dataclasses.replace(config, **changes))
        t0 = time.perf_counter()
        assert main(RAG_WITH_WEIGHTS) == 4
        assert time.perf_counter() - t0 < 1.0
        assert reason in capsys.readouterr().err
    (workdir / "m.kvcw").write_bytes(clean)
    assert main(RAG_WITH_WEIGHTS) == 0
    raw = bytearray(clean)
    raw[-5] ^= 0x01
    (workdir / "m.kvcw").write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(RAG_WITH_WEIGHTS) == 4
    assert "fingerprint mismatch" in capsys.readouterr().err


def test_exit_code_mapping():
    assert _exit_code(UsageError("x")) == 2
    assert _exit_code(MalformedSequenceError("x")) == 2
    assert _exit_code(PositionOverflowError("x")) == 2
    assert _exit_code(MissingArtifactError("x")) == 3
    assert _exit_code(FormatError("x")) == 4
    assert _exit_code(StaleCacheError("x")) == 4
    assert _exit_code(KvcError("x")) == 1


@pytest.mark.parametrize("name", [
    "main", "corpusgen", "compress", "ask", "rag", "eval", "ttft", "report",
])
def test_help_matches_golden(monkeypatch, capsys, name):
    monkeypatch.setenv("COLUMNS", "100")
    argv = ["--help"] if name == "main" else [name, "--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    golden = (DATA_DIR / f"help_{name}.txt").read_text()
    assert capsys.readouterr().out == golden
