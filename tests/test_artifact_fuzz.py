"""Damaged artifacts: every loader turns a truncated or byte-flipped KVCC,
KVCI, KVCW or bundle file into a KvcError, never another exception, and
the CLI commands that read them exit with a documented code."""

import dataclasses
import json
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
from kvcbench.retrieval import index_chunks, load_index, save_index
from kvcbench.weights import load_weights, save_weights

BUNDLE_FILES = sorted(f"bundle/{part}" for part in (*BUNDLE_DATA_FILES, "spec.json"))

# artifact file -> load(path, model)
LOADERS = {
    "ctx.kvcc": lambda path, model: load_cache(path, model=model),
    "chunks.kvci": lambda path, model: load_index(path),
    "model.kvcw": lambda path, model: load_weights(path, model.config),
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
    save_index(index_chunks(small_bundle), clean / "chunks.kvci")
    save_weights(small_model, clean / "model.kvcw")
    (clean / "model.kvcw.json").write_text(json.dumps(dataclasses.asdict(small_model.config)))
    for name, load in LOADERS.items():
        load(clean / name, small_model)  # the undamaged files load
    return clean, root / "damaged"


def damaged_copy(saved, name, truncate, data):
    """A fresh copy of the clean artifacts with `name` truncated or one of
    its bytes XOR-ed, at an offset `data` draws."""
    clean, damaged = saved
    raw = (clean / name).read_bytes()
    offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
    if truncate:
        raw = raw[:offset]
    else:
        flipped = raw[offset] ^ data.draw(st.integers(1, 255), label="xor")
        raw = raw[:offset] + bytes([flipped]) + raw[offset + 1:]
    shutil.rmtree(damaged, ignore_errors=True)
    shutil.copytree(clean, damaged)
    (damaged / name).write_bytes(raw)
    return damaged


@settings(max_examples=2000, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), truncate=st.booleans(), data=st.data())
def test_damaged_artifacts_raise_only_kvc_errors(saved, small_model, name, truncate, data):
    damaged = damaged_copy(saved, name, truncate, data)
    try:
        LOADERS[name](damaged / name, small_model)
    except KvcError:
        pass


MODEL_FILES = ["model.kvcw", "model.kvcw.json"]
QUESTION = "which projects does someone belong to"

# command -> (argv in the artifact directory, the artifact files it reads)
COMMANDS = {
    "ask": (
        lambda d: ["ask", "--bundle", str(d / "bundle"), "--cache", str(d / "ctx.kvcc"),
                   "--question", QUESTION, "--max-new", "4", "--weights", str(d / "model.kvcw")],
        [*BUNDLE_FILES, "ctx.kvcc", *MODEL_FILES],
    ),
    "rag": (
        lambda d: ["rag", "--bundle", str(d / "bundle"), "--question", QUESTION, "--budget", "160",
                   "--index", str(d / "chunks.kvci"), "--answer", "--max-new", "4",
                   "--weights", str(d / "model.kvcw")],
        [*BUNDLE_FILES, "chunks.kvci", *MODEL_FILES],
    ),
    "compress": (
        lambda d: ["compress", "--bundle", str(d / "bundle"), "--budget", "32", "--mode", "zs",
                   "--out", str(d / "out.kvcc"), "--weights", str(d / "model.kvcw")],
        [*BUNDLE_FILES, *MODEL_FILES],
    ),
}


@settings(max_examples=400, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), truncate=st.booleans(), data=st.data())
def test_damaged_artifacts_exit_with_documented_codes(saved, command, truncate, data):
    """Every byte of the fingerprinted bundle files and the length of every
    binary container is checked, so that damage exits 2, 3 or 4. A flipped
    float payload byte or a JSON whitespace change may go unseen (exit 0);
    nothing exits 1 or raises."""
    argv, reads = COMMANDS[command]
    name = data.draw(st.sampled_from(reads), label="file")
    damaged = damaged_copy(saved, name, truncate, data)
    checked = name.removeprefix("bundle/") in BUNDLE_DATA_FILES or (truncate and not name.endswith(".json"))
    assert main(argv(damaged)) in ((2, 3, 4) if checked else (0, 2, 3, 4))
