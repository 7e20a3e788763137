"""The binary containers (KVCC, KVCW) share one layout: the frame and
fixed-size headers, then arrays that each start at a multiple of 64 bytes
from the start of the file and load as views of the mapped file."""

import mmap

import numpy as np
import pytest

from kvcbench import _binio
from kvcbench.cachefile import load_cache, save_cache
from kvcbench.compress import CompressionBudget, compress_iterative
from kvcbench.evalharness import make_guidance
from kvcbench.weights import load_weights, save_weights


def kvcc(bundle, model):
    compressed = compress_iterative(model, bundle.corpus_tokens(), make_guidance("zs", []), bundle.vocab,
                                    CompressionBudget(64))
    return (compressed, save_cache, lambda path: load_cache(path, model=model),
            lambda c: [*c.kept_positions, *c.keys, *c.values])


def kvcw(bundle, model):
    return (model, save_weights, load_weights,
            lambda m: list(m.weights.values()))


def mapping(view: np.ndarray) -> mmap.mmap:
    """The mapped file `view` looks into."""
    while not isinstance(view, memoryview):
        view = view.base
    assert isinstance(view.obj, mmap.mmap)
    return view.obj


@pytest.mark.parametrize("container", [kvcc, kvcw], ids=["KVCC", "KVCW"])
def test_arrays_start_aligned_load_mapped_and_round_trip_bitwise(small_bundle, small_model, tmp_path,
                                                                 monkeypatch, container):
    thing, save, load, arrays = container(small_bundle, small_model)
    save(thing, tmp_path / "a")
    views = []
    view = _binio.Reader.view
    monkeypatch.setattr(_binio.Reader, "view", lambda r, dtype, count: views.append(view(r, dtype, count)) or views[-1])
    loaded = load(tmp_path / "a")

    assert _binio.ALIGN == 64
    assert all(mapping(v) is mapping(views[0]) for v in views)
    whole = np.frombuffer(mapping(views[0]), np.uint8)
    starts = [v.ctypes.data - whole.ctypes.data for v in views]
    assert len(views) >= 4 and all(start % 64 == 0 for start in starts), starts
    for got, want in zip(arrays(loaded), arrays(thing), strict=True):
        assert np.array_equal(got, want) and got.dtype == want.dtype
        # positions load as int64 copies; every float and index array is mapped
        assert np.shares_memory(got, whole) or got.dtype == np.int64

    save(loaded, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
