"""Shared fixtures: a small corpus bundle and models sized for fast tests."""

import numpy as np
import pytest

from kvcbench.corpusgen import CorpusSpec, generate_corpus
from kvcbench.modelcore import ModelConfig, init_random_model
from kvcbench.retrieval import RetrievalResult

# 20 chunks x 80 tokens = 1600-token corpus, 8 questions
SMALL_SPEC = CorpusSpec(
    seed=7,
    connectivity=2,
    n_people=6,
    n_projects=6,
    n_filler=2,
    chunk_tokens=80,
    questions_per_kind=4,
)


@pytest.fixture(scope="session")
def small_bundle():
    return generate_corpus(SMALL_SPEC)


@pytest.fixture(scope="session")
def small_model(small_bundle):
    config = ModelConfig(
        n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
        vocab_size=len(small_bundle.vocab.id_to_token), max_position=8192,
    )
    return init_random_model(config, seed=0)


@pytest.fixture
def tiny_config():
    return ModelConfig(
        n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
        vocab_size=64, max_position=2048,
    )


@pytest.fixture
def tiny_model(tiny_config):
    return init_random_model(tiny_config, seed=1)


def random_ids(rng: np.random.Generator, vocab_size: int, n: int) -> list[int]:
    """Token ids avoiding the four reserved specials."""
    return rng.integers(4, vocab_size, size=n).tolist()


def oracle_ranking(bundle, gold_evidence) -> RetrievalResult:
    """Best possible ranking: gold chunks first, in id order."""
    gold = list(gold_evidence)
    rest = [doc.chunk_id for doc in bundle.chunks if doc.chunk_id not in set(gold)]
    ranking = tuple(gold + rest)
    scores = tuple(1.0 for _ in gold) + tuple(0.0 for _ in rest)
    return RetrievalResult(ranking=ranking, scores=scores, no_known_terms=False)
