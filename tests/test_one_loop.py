"""Answers are decoded in one place. No module of the package except
``modelcore`` calls ``decode_step``, so ``kvc ask``, ``kvc rag``, the eval
grid and the TTFT sweep all decode through ``generate_greedy`` and agree
on argmax ties, stop tokens and answer length."""

import ast
from pathlib import Path

import numpy as np
import pytest

import kvcbench
from kvcbench.errors import UsageError
from kvcbench.evalharness import _timed_answer
from kvcbench.modelcore import GenerationParams, KvCache, generate_greedy, prefill

from conftest import random_ids

SRC = Path(kvcbench.__file__).parent
OWNER = "modelcore"
STEP = "decode_step"


def stray_steps(module: str, source: str) -> list[str]:
    """Each call of decode_step in `source`, plain or through a module
    attribute, and each import of it (the way to call it by another name),
    unless `module` is the owner."""
    if module == OWNER:
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == STEP:
                found.append(f"{module}:{node.lineno}: {ast.unparse(func)}()")
        elif isinstance(node, ast.ImportFrom) and any(alias.name == STEP for alias in node.names):
            found.append(f"{module}:{node.lineno}: import of {STEP}")
    return found


def modules():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_only_modelcore_calls_decode_step():
    found = [step for module, source in modules().items() for step in stray_steps(module, source)]
    assert not found, f"decode through {OWNER}.generate_greedy: {found}"


def test_the_owner_still_defines_the_loop():
    tree = ast.parse(modules()[OWNER])
    loop = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "generate_greedy")
    assert any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == STEP for n in ast.walk(loop))


@pytest.mark.parametrize("snippet", [
    "def f(m, c, t):\n    return decode_step(m, c, t)\n",
    "def f(m, c, t):\n    return modelcore.decode_step(m, c, t)\n",
    "from .modelcore import decode_step as step\n",
    "from .modelcore import generate_greedy, decode_step\n",
], ids=["call", "attribute", "aliased_import", "import"])
def test_the_walk_sees_a_stray_step(snippet):
    assert stray_steps("evalharness", snippet)


def test_the_walk_allows_the_owner_and_generate_greedy():
    step = "def f(m, c, t):\n    return decode_step(m, c, t)\n"
    assert stray_steps(OWNER, step) == []
    assert stray_steps("evalharness", "def f(m, c, p, q):\n    return generate_greedy(m, c, p, q)\n") == []


@pytest.fixture
def primed(tiny_model):
    """A prefilled context and a question prompt over the tiny model."""
    rng = np.random.default_rng(5)
    cache = KvCache.empty(tiny_model.config)
    prefill(tiny_model, cache, random_ids(rng, tiny_model.config.vocab_size, 96))
    return cache, random_ids(rng, tiny_model.config.vocab_size, 6)


def both_answers(model, cache, prompt, params):
    """(generate_greedy ids, its cache, _timed_answer ids, its cache), each
    on its own fork of `cache`."""
    want_cache, got_cache = cache.fork(), cache.fork()
    want = generate_greedy(model, want_cache, prompt, params)
    got, prefill_s, first_s = _timed_answer(model, got_cache, prompt, params)
    assert prefill_s >= 0 and first_s > 0
    return want.ids, want_cache, got.ids, got_cache


@pytest.mark.parametrize("max_new", [1, 2, 3, 4])
def test_timed_answer_is_generate_greedy(tiny_model, primed, max_new, monkeypatch):
    cache, prompt = primed
    monkeypatch.setattr(GenerationParams, "stop_tokens", ())
    params = GenerationParams(max_new_tokens=max_new)
    want, want_cache, got, got_cache = both_answers(tiny_model, cache, prompt, params)
    assert len(want) == max_new
    assert got == want and all(type(t) is int for t in got)
    assert got_cache.length == want_cache.length


def test_timed_answer_stops_on_the_first_token(tiny_model, primed, monkeypatch):
    cache, prompt = primed
    monkeypatch.setattr(GenerationParams, "stop_tokens", ())
    first = generate_greedy(tiny_model, cache.fork(), prompt, GenerationParams(max_new_tokens=1)).ids[0]
    monkeypatch.setattr(GenerationParams, "stop_tokens", (first,))
    params = GenerationParams(max_new_tokens=4)
    want, want_cache, got, got_cache = both_answers(tiny_model, cache, prompt, params)
    assert got == want == []
    assert got_cache.length == want_cache.length == cache.length + len(prompt)


def test_timed_answer_refuses_an_empty_prompt(tiny_model, primed):
    cache, _ = primed
    with pytest.raises(UsageError, match="nonempty"):
        _timed_answer(tiny_model, cache.fork(), [], GenerationParams())
