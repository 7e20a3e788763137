"""Word-level vocabulary and tokenizer.

Tokens are lowercased whitespace-delimited words. The mapping is bijective
over known words; anything unseen maps to the reserved unknown id, so
tokenization never fails. Four special ids are pinned at the front of every
vocabulary:

    0 <pad>   padding / logit-tie floor
    1 <bos>   beginning-of-sequence sink token
    2 <sep>   section separator (also the answer delimiter at query time)
    3 <unk>   unknown word
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ._binio import atomic_write
from .errors import MalformedSequenceError

PAD, BOS, SEP, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<sep>", "<unk>")


def fingerprint_ids(ids) -> bytes:
    """32-byte digest of a token id sequence; the identity used to match
    caches and indexes to the exact corpus they were built from."""
    arr = np.asarray(getattr(ids, "ids", ids), dtype="<u4")
    return hashlib.sha256(arr.tobytes()).digest()


@dataclass
class TokenSequence:
    """A list of token ids."""

    ids: list[int]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class Vocabulary:
    token_to_id: dict[str, int] = field(default_factory=dict)
    id_to_token: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.id_to_token:
            for tok in SPECIAL_TOKENS:
                self.token_to_id[tok] = len(self.id_to_token)
                self.id_to_token.append(tok)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def add(self, word: str) -> int:
        word = word.lower()
        if word not in self.token_to_id:
            self.token_to_id[word] = len(self.id_to_token)
            self.id_to_token.append(word)
        return self.token_to_id[word]

    def save(self, path) -> bytes:
        """Write one token per line, id = line number; returns the bytes written."""
        data = "".join(tok + "\n" for tok in self.id_to_token).encode("utf-8")
        with atomic_write(path, "wb") as f:
            f.write(data)
        return data

    @classmethod
    def parse(cls, data: bytes, path) -> "Vocabulary":
        """The vocabulary in `data`, the bytes of the vocabulary file `path`."""
        tokens = data.decode("utf-8").splitlines()
        if tokens[: len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
            raise MalformedSequenceError(f"vocabulary file {path} missing special tokens")
        vocab = cls()
        for tok in tokens[len(SPECIAL_TOKENS):]:
            vocab.add(tok)
        return vocab


def build_vocabulary(texts) -> Vocabulary:
    """Build a vocabulary from an iterable of texts, in first-seen order."""
    vocab = Vocabulary()
    for text in texts:
        for word in text.lower().split():
            vocab.add(word)
    return vocab


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Lowercase, split on whitespace, map each word to its id (or <unk>)."""
    ids = [vocab.token_to_id.get(w, UNK) for w in text.lower().split()]
    return TokenSequence(ids=ids)


def detokenize(seq: TokenSequence, vocab: Vocabulary) -> str:
    """Space-join the tokens of `seq`. Unknown ids are a hard error."""
    words = []
    for i in seq.ids:
        if i < 0 or i >= len(vocab.id_to_token):
            raise MalformedSequenceError(f"token id {i} outside vocabulary of size {len(vocab)}")
        words.append(vocab.id_to_token[i])
    return " ".join(words)
