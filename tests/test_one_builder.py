"""Compressed caches are built in one place. No module of the package
except the method table ``evalharness.COMPRESSED_METHODS`` calls a
compressor, so ``kvc eval``, ``kvc compress`` and ``kvc ttft`` build a
method the same way, and a new method is one new table entry."""

import ast
from pathlib import Path

import pytest

import kvcbench

SRC = Path(kvcbench.__file__).parent
OWNER = "evalharness"
TABLE = "COMPRESSED_METHODS"
BUILDERS = {
    "compress_iterative",
    "compress_oracle",
    "compress_streaming_llm",
    "compress_snapkv_agnostic",
    "compress_expected_attention",
}


def table_nodes(tree) -> list[ast.AST]:
    """The table's module-level assignment and every module function it
    names (a build written as a def rather than a lambda)."""
    table = [node for node in tree.body if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == TABLE for t in node.targets)]
    named = {n.id for node in table for n in ast.walk(node) if isinstance(n, ast.Name)}
    return table + [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in named]


def builder_calls(node) -> list[ast.Call]:
    """Every call under `node` of a function named in BUILDERS, plain or
    through a module attribute."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and (call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None))
            in BUILDERS]


def stray_builds(module: str, source: str) -> list[str]:
    """Each builder call in `source` outside the owner's method table."""
    tree = ast.parse(source)
    allowed = {id(call) for node in (table_nodes(tree) if module == OWNER else ())
               for call in builder_calls(node)}
    return [f"{module}:{call.lineno}: {ast.unparse(call.func)}()"
            for call in builder_calls(tree) if id(call) not in allowed]


def modules():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_only_the_method_table_builds_compressed_caches():
    found = [call for module, source in modules().items() for call in stray_builds(module, source)]
    assert not found, f"build compressed caches through {OWNER}.{TABLE}: {found}"


def test_the_table_calls_every_builder():
    table = table_nodes(ast.parse(modules()[OWNER]))
    called = {ast.unparse(call.func).rsplit(".", 1)[-1] for node in table for call in builder_calls(node)}
    assert called == BUILDERS


ALLOWED = (
    "def _kvc(m):\n    return compress_iterative(m)\n"
    "COMPRESSED_METHODS = {'a': _kvc, 'b': lambda m: compress_oracle(m)}\n"
)


@pytest.mark.parametrize("module, snippet", [
    ("evalharness", "def measure(m):\n    return compress_iterative(m)\n"),
    ("evalharness", "COMPRESSED_METHODS = {}\nOTHER = {'a': lambda m: compress_streaming_llm(m)}\n"),
    ("evalharness", ALLOWED + "def f(m):\n    return compress_oracle(m)\n"),
    ("cli", "def cmd(m):\n    return baselines.compress_snapkv_agnostic(m)\n"),
    ("cli", ALLOWED),
], ids=["function", "other_table", "beside_the_table", "attribute", "table_in_another_module"])
def test_the_walk_sees_a_stray_build(module, snippet):
    assert stray_builds(module, snippet)


def test_the_walk_allows_the_table():
    assert stray_builds("evalharness", ALLOWED) == []
