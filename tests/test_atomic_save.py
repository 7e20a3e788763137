"""Every whole-file save is atomic: a save killed mid-write leaves the
previous file byte-equal and no temporary file behind."""

import pytest

import kvcbench._binio as binio
from kvcbench.baselines import compress_streaming_llm
from kvcbench.cachefile import save_cache
from kvcbench.corpusgen import save_bundle
from kvcbench.evalharness import RunRecord, TimingRecord, emit_report, write_ttft_csv
from kvcbench.weights import save_weights


class Killed(BaseException):
    """Stands in for a kill: no ``except Exception`` catches it."""


class TornFile:
    """Writes half of the first chunk it is given, then is killed."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise Killed

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


RECORD = RunRecord(
    qid="q0", kind="direct", method="rag", budget=160, connectivity=2, corpus_fp="aa",
    answer="x", overlap=1.0, retention=None, evidence_recall=None, compress_s=0.0,
    retrieve_s=0.0, prefill_s=0.0, first_token_s=0.0, elapsed_s=0.0,
    chunk_tokens=80, model_fp="bb", segments=2, fewshot=3, max_new=12,
)
TIMING = TimingRecord("full", 1600, 0, 5, 0.25, 0.2, 3, True)

# name -> save(directory, bundle, model, version); the version varies the content
SAVERS = {
    "kvcc": lambda d, b, m, v: save_cache(
        compress_streaming_llm(m, b.corpus_tokens(), 64 + v), d / "c.kvcc"),
    "kvcw": lambda d, b, m, v: save_weights(m, d / "m.kvcw"),
    "bundle": lambda d, b, m, v: save_bundle(b, d),
    "vocab": lambda d, b, m, v: b.vocab.save(d / "vocab.txt"),
    "ttft_csv": lambda d, b, m, v: write_ttft_csv([TIMING] * (1 + v), d / "ttft.csv"),
    "report_csv": lambda d, b, m, v: emit_report([RECORD] * (1 + v), d / "report.csv"),
}


@pytest.mark.parametrize("name", list(SAVERS))
def test_killed_save_keeps_the_previous_file(tmp_path, monkeypatch, small_bundle, small_model, name):
    save = SAVERS[name]
    save(tmp_path, small_bundle, small_model, 0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before

    real_open = open
    monkeypatch.setattr(binio, "open", lambda *a, **kw: TornFile(real_open(*a, **kw)), raising=False)
    with pytest.raises(Killed):
        save(tmp_path, small_bundle, small_model, 1)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_atomic_write_creates_a_missing_directory(tmp_path):
    path = tmp_path / "new" / "sub" / "f.txt"
    with binio.atomic_write(path) as fh:
        fh.write("x")
    assert path.read_text() == "x"
    assert [p.name for p in path.parent.iterdir()] == ["f.txt"]  # no temporary file left behind


@pytest.mark.parametrize("name", list(SAVERS))
def test_every_save_creates_its_directory(tmp_path, small_bundle, small_model, name):
    target = tmp_path / "new" / "sub"
    SAVERS[name](target, small_bundle, small_model, 0)
    assert list(target.iterdir())
