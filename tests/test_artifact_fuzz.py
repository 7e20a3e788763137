"""Damaged artifacts: every loader turns a truncated or byte-flipped KVCC,
KVCW or bundle file into a KvcError, never another exception, and the CLI
commands that read them, an eval INI or a runs JSONL exit with a
documented code."""

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcbench.cachefile import load_cache, save_cache
from kvcbench.cli import main
from kvcbench.compress import CompressionBudget, compress_iterative
from kvcbench.corpusgen import BUNDLE_DATA_FILES, load_bundle, save_bundle
from kvcbench.errors import KvcError
from kvcbench.evalharness import make_guidance
from kvcbench.weights import load_weights, save_weights

BUNDLE_FILES = sorted(f"bundle/{part}" for part in (*BUNDLE_DATA_FILES, "spec.json"))

# artifact file -> load(path, model)
LOADERS = {
    "ctx.kvcc": lambda path, model: load_cache(path, model=model),
    "model.kvcw": lambda path, model: load_weights(path),
    **{name: lambda path, model: load_bundle(path.parent) for name in BUNDLE_FILES},
}


@pytest.fixture(scope="module")
def saved(small_bundle, small_model, tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    clean = root / "clean"
    save_bundle(small_bundle, clean / "bundle")
    compressed = compress_iterative(
        small_model, small_bundle.corpus_tokens(), make_guidance("zs", []),
        small_bundle.vocab, CompressionBudget(64),
    )
    save_cache(compressed, clean / "ctx.kvcc")
    save_weights(small_model, clean / "model.kvcw")
    for name, load in LOADERS.items():
        load(clean / name, small_model)  # the undamaged files load
    return clean, root / "damaged"


def damage(raw, kind, data):
    """`raw` truncated at, with one byte XOR-ed at, or with one byte deleted
    at an offset `data` draws."""
    offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
    if kind == "truncate":
        return raw[:offset]
    if kind == "delete":
        return raw[:offset] + raw[offset + 1:]
    flipped = raw[offset] ^ data.draw(st.integers(1, 255), label="xor")
    return raw[:offset] + bytes([flipped]) + raw[offset + 1:]


def damaged_copy(saved, name, truncate, data):
    """A fresh copy of the clean artifacts with `name` truncated or one of
    its bytes XOR-ed, at an offset `data` draws."""
    clean, damaged = saved
    raw = damage((clean / name).read_bytes(), "truncate" if truncate else "xor", data)
    shutil.rmtree(damaged, ignore_errors=True)
    shutil.copytree(clean, damaged)
    (damaged / name).write_bytes(raw)
    return damaged


@settings(max_examples=2000, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), truncate=st.booleans(), data=st.data())
def test_damaged_artifacts_raise_only_kvc_errors(saved, small_model, name, truncate, data):
    """Any damage to a KVCW is refused: its config must be one the model
    accepts and that fits the file, the stored fingerprint covers the config
    and every tensor, and padding must be zero."""
    damaged = damaged_copy(saved, name, truncate, data)
    try:
        LOADERS[name](damaged / name, small_model)
    except KvcError:
        pass
    else:
        assert name != "model.kvcw"


QUESTION = "which projects does someone belong to"

# command -> (argv in the artifact directory, the artifact files it reads)
COMMANDS = {
    "ask": (
        lambda d: ["ask", "--bundle", str(d / "bundle"), "--cache", str(d / "ctx.kvcc"),
                   "--question", QUESTION, "--max-new", "4", "--weights", str(d / "model.kvcw")],
        [*BUNDLE_FILES, "ctx.kvcc", "model.kvcw"],
    ),
    "rag": (
        lambda d: ["rag", "--bundle", str(d / "bundle"), "--question", QUESTION, "--budget", "160",
                   "--answer", "--max-new", "4", "--weights", str(d / "model.kvcw")],
        [*BUNDLE_FILES, "model.kvcw"],
    ),
    "compress": (
        lambda d: ["compress", "--bundle", str(d / "bundle"), "--budget", "32", "--method", "kvc_zs",
                   "--out", str(d / "out.kvcc"), "--weights", str(d / "model.kvcw")],
        [*BUNDLE_FILES, "model.kvcw"],
    ),
}


@settings(max_examples=400, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), truncate=st.booleans(), data=st.data())
def test_damaged_artifacts_exit_with_documented_codes(saved, command, truncate, data):
    """Every byte of the fingerprinted bundle files and the length of every
    binary container is checked, so that damage exits 2, 3 or 4, and every
    byte of the KVCW, header included, which exits 4. A flipped float
    payload byte of a KVCC or a JSON whitespace change may go unseen
    (exit 0); nothing exits 1 or raises."""
    argv, reads = COMMANDS[command]
    name = data.draw(st.sampled_from(reads), label="file")
    damaged = damaged_copy(saved, name, truncate, data)
    checked = name.removeprefix("bundle/") in BUNDLE_DATA_FILES or (truncate and not name.endswith(".json"))
    codes = (4,) if name == "model.kvcw" else (2, 3, 4) if checked else (0, 2, 3, 4)
    assert main(argv(damaged)) in codes


# Every key sits on its own line with no blank between and no space around
# "=", so one damaged byte cannot grow a value by a digit (" 80" -> "980")
# or hide a section behind a blank line. Deleting a byte joins, shortens or
# breaks a line; an XOR may also comment out one line, which sends a single
# key to its default, at most a 5.5k-token corpus. Cutting the file short is
# left out: a cut [corpus] section falls back to the default 32k-token corpus.
EVAL_INI = b"""\
[model]
seed=0
[corpus]
seeds=3
connectivity=1
people=4
projects=4
filler=1
chunk_tokens=80
questions_per_kind=2
[eval]
budgets=48
fewshot=1
max_new=4
methods=full,streaming
"""
RUNS = "results/runs/s3c1.jsonl"


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory):
    """KVC_OUT for the module, holding the clean INI and the runs file it
    writes."""
    root = tmp_path_factory.mktemp("eval")
    (root / "eval.ini").write_bytes(EVAL_INI)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("KVC_OUT", str(root))
        assert main(["eval", "--config", "eval.ini"]) == 0
        yield root, (root / RUNS).read_bytes()


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["xor", "delete"]), data=st.data())
def test_damaged_eval_config_exits_with_documented_codes(eval_dir, kind, data):
    root, _ = eval_dir
    (root / "bad.ini").write_bytes(damage(EVAL_INI, kind, data))
    assert main(["eval", "--config", "bad.ini"]) in (0, 2, 3, 4)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["truncate", "xor", "delete"]), data=st.data())
def test_damaged_runs_file_exits_with_documented_codes(eval_dir, kind, data):
    """`kvc report` reads the damaged runs file, `kvc eval --resume` reads
    and extends it."""
    root, clean = eval_dir
    (root / RUNS).write_bytes(damage(clean, kind, data))
    assert main(["report", "--runs", RUNS, "--out", "m.csv"]) in (0, 2, 3, 4)
    assert main(["eval", "--config", "eval.ini", "--resume"]) in (0, 2, 3, 4)
