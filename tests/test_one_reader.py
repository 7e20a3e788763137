"""Artifact files are read in one place. No module of the package except
``_binio`` reads or maps a file itself, so what an unreadable artifact
means (MissingArtifactError, exit 3) and how a container frame is checked
are decided once. Nor does any other module turn bytes into fields by
hand: a container's fixed fields are one module-level ``struct.Struct``,
its arrays ``Reader.view``s, so how arrays are aligned is decided once
too."""

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


# calls that pack or parse bytes by hand: the struct module's functions,
# called as struct.<name> or imported, and numpy's frombuffer
STRUCT_CALLS = {"pack", "unpack", "pack_into", "unpack_from", "iter_unpack", "calcsize"}


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


def byte_parsing(module: str, source: str) -> list[str]:
    """Each call in `source` that packs or parses bytes outside the owner
    module. A Struct's own pack and the Reader's unpack are allowed."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module in ("struct", "numpy")
                for alias in node.names}
    found = []
    for scope, call in calls(tree):
        func = call.func
        if isinstance(func, ast.Attribute):
            hit = func.attr == "frombuffer" or (
                func.attr in STRUCT_CALLS and isinstance(func.value, ast.Name) and func.value.id == "struct")
        else:
            hit = isinstance(func, ast.Name) and func.id in imported & (STRUCT_CALLS | {"frombuffer"})
        if hit:
            found.append(f"{module}.{scope}: {ast.unparse(func)}()")
    return found


def modules():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_only_binio_reads_artifact_files():
    found = [read for module, source in modules().items() if module != OWNER
             for read in file_reads(module, source)]
    assert not found, f"read artifact files through {OWNER}: {found}"


def test_only_binio_packs_or_parses_bytes():
    found = [call for module, source in modules().items() if module != OWNER
             for call in byte_parsing(module, source)]
    assert not found, f"read container fields through {OWNER}.Reader: {found}"


@pytest.mark.parametrize("snippet", [
    "def f(raw):\n    return struct.unpack('<I', raw)\n",
    "def f(n):\n    return struct.pack('<Q', n)\n",
    "def f(raw):\n    return struct.unpack_from('<I', raw, 4)\n",
    "from struct import pack\ndef f(n):\n    return pack('<I', n)\n",
    "def f(raw):\n    return np.frombuffer(raw, np.float32)\n",
    "from numpy import frombuffer\ndef f(raw):\n    return frombuffer(raw)\n",
], ids=["unpack", "pack", "unpack_from", "imported_pack", "frombuffer", "imported_frombuffer"])
def test_the_walk_sees_byte_parsing(snippet):
    assert byte_parsing("retrieval", snippet)


def test_the_walk_allows_a_header_struct():
    snippet = ("HEADER = struct.Struct('<32sIIQ')\n"
               "def save(i):\n    return HEADER.pack(b'', 1, 2, 3)\n"
               "def load(r):\n    return r.unpack(HEADER), r.view('<f4', 4)\n")
    assert byte_parsing("retrieval", snippet) == []


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
