"""Damaged artifacts: every loader turns a truncated or byte-flipped KVCC,
KVCI, KVCW or bundle file into a KvcError, never another exception."""

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcbench.cachefile import load_cache, save_cache
from kvcbench.compress import CompressionBudget, compress_iterative
from kvcbench.corpusgen import load_bundle, save_bundle
from kvcbench.errors import KvcError
from kvcbench.evalharness import make_guidance
from kvcbench.retrieval import index_chunks, load_index, save_index
from kvcbench.weights import load_weights, save_weights

# artifact file -> load(path, model)
LOADERS = {
    "ctx.kvcc": lambda path, model: load_cache(path, model=model),
    "chunks.kvci": lambda path, model: load_index(path),
    "model.kvcw": lambda path, model: load_weights(path, model.config),
    **{
        f"bundle/{part}": lambda path, model: load_bundle(path.parent)
        for part in ("spec.json", "corpus.jsonl", "questions.jsonl", "vocab.txt")
    },
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
    for name, load in LOADERS.items():
        load(clean / name, small_model)  # the undamaged files load
    return clean, root / "damaged"


@settings(max_examples=2000, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), truncate=st.booleans(), data=st.data())
def test_damaged_artifacts_raise_only_kvc_errors(saved, small_model, name, truncate, data):
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
    try:
        LOADERS[name](damaged / name, small_model)
    except KvcError:
        pass
