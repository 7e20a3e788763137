"""Tokenizer, vocabulary, and fingerprint invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvcbench.errors import MalformedSequenceError
from kvcbench.vocab import (
    BOS,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    TokenSequence,
    Vocabulary,
    build_vocabulary,
    detokenize,
    fingerprint_ids,
    tokenize,
)


def test_special_ids_pinned_at_front():
    vocab = Vocabulary()
    assert (PAD, BOS, SEP, UNK) == (0, 1, 2, 3)
    assert vocab.id_to_token[:4] == list(SPECIAL_TOKENS)
    assert len(vocab) == 4


def test_add_lowercases_and_is_idempotent():
    vocab = Vocabulary()
    first = vocab.add("Alice")
    assert vocab.add("alice") == first
    assert tokenize("ALICE", vocab).ids == [first]
    assert len(vocab) == 5


def test_unknown_words_map_to_unk():
    vocab = build_vocabulary(["alpha beta"])
    seq = tokenize("alpha gamma", vocab)
    assert seq.ids == [vocab.token_to_id["alpha"], UNK]


# spec'd property: tokenize/detokenize round-trips random sentences exactly
words = st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1, max_size=30)


@given(words)
def test_round_trip_identity(ws):
    text = " ".join(ws)
    vocab = build_vocabulary([text])
    assert detokenize(tokenize(text, vocab), vocab) == text


def test_detokenize_rejects_out_of_range_ids():
    vocab = Vocabulary()
    with pytest.raises(MalformedSequenceError):
        detokenize(TokenSequence(ids=[99]), vocab)
    with pytest.raises(MalformedSequenceError):
        detokenize(TokenSequence(ids=[-1]), vocab)


def test_save_load_round_trip(tmp_path):
    vocab = build_vocabulary(["alpha beta gamma", "beta delta"])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.parse(path.read_bytes(), path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.token_to_id == vocab.token_to_id


def test_load_requires_special_token_prefix(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("alpha\nbeta\n")
    with pytest.raises(MalformedSequenceError):
        Vocabulary.parse(path.read_bytes(), path)


def test_fingerprint_is_content_addressed():
    a = fingerprint_ids([1, 2, 3])
    assert a == fingerprint_ids(np.array([1, 2, 3]))
    assert a == fingerprint_ids(TokenSequence(ids=[1, 2, 3]))
    assert a != fingerprint_ids([1, 2, 4])
    assert a != fingerprint_ids([1, 2])
    assert len(a) == 32


def test_build_vocabulary_keeps_first_seen_order():
    vocab = build_vocabulary(["beta alpha", "alpha gamma"])
    assert vocab.id_to_token[4:] == ["beta", "alpha", "gamma"]
