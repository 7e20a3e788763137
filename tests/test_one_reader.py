"""Artifact files are read in one place. No module of the package except
``_binio`` reads or maps a file itself, so what an unreadable artifact
means (MissingArtifactError, exit 3) and how a container frame is checked
are decided once."""

import ast
from pathlib import Path

import pytest

import kvcbench

SRC = Path(kvcbench.__file__).parent
OWNER = "_binio"

# calls that read a file whatever their receiver: pathlib's whole-file
# readers, ConfigParser.read / read_file, a file handle's read and mmap
READ_CALLS = {"read_bytes", "read_text", "read", "read_file", "readline", "readlines", "mmap"}

# the open() calls allowed outside the owner, each a write:
# (module, enclosing function) -> its literal mode
WRITE_HANDLES = {
    ("evalharness", "run_suite"): "a",  # the runs JSONL append handle
}


def calls(node, scope="<module>"):
    """(enclosing function, call) for every call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from calls(child, scope)


def open_mode(call) -> str | None:
    """The literal mode of an open() call; "r" when omitted, None when not
    a literal. ``open(file, mode)`` and ``path.open(mode)`` both count."""
    at = 0 if isinstance(call.func, ast.Attribute) else 1
    mode = call.args[at] if len(call.args) > at else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) else None


def file_reads(module: str, source: str) -> list[str]:
    """Each call in `source` that reads a file outside the owner module."""
    found = []
    for scope, call in calls(ast.parse(source)):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in READ_CALLS:
            found.append(f"{module}.{scope}: {name}()")
        elif name == "open" and WRITE_HANDLES.get((module, scope)) != open_mode(call):
            found.append(f"{module}.{scope}: open() with mode {open_mode(call)!r}")
    return found


def modules():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_only_binio_reads_artifact_files():
    found = [read for module, source in modules().items() if module != OWNER
             for read in file_reads(module, source)]
    assert not found, f"read artifact files through {OWNER}: {found}"


def test_every_allowed_write_handle_still_exists():
    sources = modules()
    for (module, scope), mode in WRITE_HANDLES.items():
        opens = [open_mode(call) for where, call in calls(ast.parse(sources[module]))
                 if where == scope and getattr(call.func, "id", None) == "open"]
        assert opens == [mode], (module, scope, opens)


@pytest.mark.parametrize("snippet", [
    "def f(p):\n    return p.read_bytes()\n",
    "def f(p):\n    return Path(p).read_text()\n",
    "def f(p):\n    configparser.ConfigParser().read(p)\n",
    "def f(p):\n    with open(p) as fh:\n        return fh\n",
    "def f(p):\n    return open(p, 'rb')\n",
    "def f(p):\n    return p.open(mode='r+')\n",
    "def run_suite(p, m):\n    return open(p, m)\n",
    "def run_suite(p):\n    return open(p, 'a+')\n",
    "def load(p):\n    return open(p, 'w')\n",
    "def f(fd):\n    return mmap.mmap(fd, 0, access=mmap.ACCESS_COPY)\n",
    "def f(fd):\n    return mmap(fd, 0)\n",
], ids=["read_bytes", "read_text", "configparser_read", "open", "open_rb", "path_open_r+",
        "open_unknown_mode", "append_handle_a+", "unlisted_write", "mmap", "bare_mmap"])
def test_the_walk_sees_a_file_read(snippet):
    assert file_reads("evalharness", snippet)
