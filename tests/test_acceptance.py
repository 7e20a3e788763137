"""Acceptance suite: one test per workbench claim, at the stated tolerance.

Each criterion is a single test so the verbose run shows one pass/fail
line per claim. Claims that are provably unattainable at this scale are
reported with xfail and a self-contained analysis rather than weakened
assertions.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import kvcbench.compress as compress_mod
from kvcbench.baselines import compress_streaming_llm
from kvcbench.cachefile import load_cache, save_cache
from kvcbench.cli import _exit_code, main
from kvcbench.compress import (
    CompressionBudget,
    GuidancePrompt,
    answer_with_cache,
    compress_iterative,
    compress_oracle,
    prefill_context,
    retention,
)
from kvcbench.corpusgen import (
    DEFAULT_TASK_DESCRIPTION,
    CorpusSpec,
    entity_token_positions,
    generate_corpus,
)
from kvcbench.errors import (
    FormatError,
    MissingArtifactError,
    StaleCacheError,
)
from kvcbench.evalharness import (
    GenerationParams,
    default_eval_config,
    make_guidance,
    measure_ttft,
    question_prompt,
    run_suite,
    select_fewshot,
    ttft_reference_config,
)
from kvcbench.modelcore import (
    KvCache,
    ModelConfig,
    decode_step,
    generate_greedy,
    init_diagnostic_model,
    init_random_model,
    prefill,
)
from kvcbench.retrieval import (
    evidence_recall,
    index_chunks,
    retrieve,
)
from kvcbench.vocab import build_vocabulary, tokenize
from kvcbench.weights import load_weights, save_weights

from conftest import oracle_ranking, random_ids

GUIDE_TEXTS = [
    DEFAULT_TASK_DESCRIPTION,
    "example question answer",
    "which projects does blue crane own rollout",
]


def lossless_guidance(kind):
    examples = (("which projects does blue crane own", "rollout"),)
    if kind == "zs":
        return GuidancePrompt("zs", DEFAULT_TASK_DESCRIPTION)
    if kind == "fs":
        return GuidancePrompt("fs", DEFAULT_TASK_DESCRIPTION, examples)
    return GuidancePrompt("fsq", DEFAULT_TASK_DESCRIPTION, examples,
                          query="which projects does blue crane own")


def test_criterion_01_lossless_equivalence():
    """k=n compression answers token-identically to the full context for
    20 model seeds, n in {64, 256, 1024}, and all three guidance kinds."""
    t_start = time.perf_counter()
    vocab = build_vocabulary(GUIDE_TEXTS)
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                         vocab_size=len(vocab), max_position=2048)
    prompt = tokenize("question which projects answer", vocab)
    params = GenerationParams(max_new_tokens=8)

    n_checked = 0
    for seed in range(20):
        model = init_random_model(config, seed)
        for n in (64, 256, 1024):
            rng = np.random.default_rng(1000 * (seed + 1) + n)
            ctx = random_ids(rng, len(vocab), n)
            plain = KvCache.empty(config)
            prefill(model, plain, ctx)
            want = generate_greedy(model, plain.fork(), prompt, params)
            for kind in ("zs", "fs", "fsq"):
                compressed = compress_iterative(
                    model, ctx, lossless_guidance(kind), vocab,
                    CompressionBudget(n), s=2,
                )
                assert compressed.n_kept == n
                got = answer_with_cache(model, compressed, prompt, params)
                assert list(got.ids) == list(want.ids), (seed, n, kind)
                n_checked += 1
    elapsed = time.perf_counter() - t_start
    print(f"criterion 1: {n_checked} lossless cells token-identical in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_02_oracle_equivalence_s1():
    """Iterative compression with s=1 keeps exactly the one-shot oracle's
    position sets on 50 random (model, context, guidance) triples."""
    t_start = time.perf_counter()
    vocab = build_vocabulary(GUIDE_TEXTS)
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                         vocab_size=len(vocab), max_position=2048)
    kinds = ("zs", "fs", "fsq")
    for trial in range(50):
        model = init_random_model(config, 100 + trial)
        rng = np.random.default_rng(5000 + trial)
        n = int(rng.integers(48, 201))
        k = int(rng.integers(8, n + 1))
        ctx = random_ids(rng, len(vocab), n)
        guidance = lossless_guidance(kinds[trial % 3])
        iterative = compress_iterative(model, ctx, guidance, vocab,
                                       CompressionBudget(k), s=1)
        oracle = compress_oracle(model, ctx, guidance, vocab, k)
        for layer in range(config.n_layers):
            assert np.array_equal(iterative.kept_positions[layer],
                                  oracle.kept_positions[layer]), (trial, layer)
    elapsed = time.perf_counter() - t_start
    print(f"criterion 2: 50 s=1 runs matched the oracle in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_03_chunked_prefill_equivalence():
    """Split prefill reproduces one-shot next-token logits within 1e-4
    across 100 random split points."""
    vocab_size = 64
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                         vocab_size=vocab_size, max_position=512)
    model = init_random_model(config, 3)
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        ids = random_ids(rng, vocab_size, 128)
        split = int(rng.integers(1, 128))
        one = KvCache.empty(config)
        prefill(model, one, ids)
        two = KvCache.empty(config)
        prefill(model, two, ids[:split])
        prefill(model, two, ids[split:])
        probe = int(rng.integers(4, vocab_size))
        logits_one, _ = decode_step(model, one, probe)
        logits_two, _ = decode_step(model, two, probe)
        worst = max(worst, float(np.max(np.abs(logits_one - logits_two))))
    print(f"criterion 3: worst split-prefill logit deviation {worst:.2e}")
    assert worst <= 1e-4


def test_criterion_04_dataset_statistics():
    """Default bundles: 128 chunks x 256 tokens = 32,768 at every
    connectivity 1..8, 25 direct + 25 join questions per level (400
    total), and join evidence of exactly 1 + c chunks."""
    total_questions = 0
    for c in range(1, 9):
        bundle = generate_corpus(CorpusSpec(seed=4, connectivity=c))
        assert len(bundle.chunks) == 128
        assert all(len(doc.text.split()) == 256 for doc in bundle.chunks)
        assert len(bundle.corpus_tokens().ids) == 32768
        direct = [q for q in bundle.questions if q.kind == "direct"]
        join = [q for q in bundle.questions if q.kind == "join"]
        assert len(direct) == 25 and len(join) == 25
        assert all(len(q.evidence) == 1 for q in direct)
        assert all(len(q.evidence) == 1 + c for q in join)
        total_questions += len(bundle.questions)
    assert total_questions == 400
    print("criterion 4: 8 levels x 128 chunks x 256 tokens, 400 questions exact")


def test_criterion_05_rag_recall_bound():
    """Measured RAG evidence recall on join questions never exceeds
    min(1, B/(1+c)) chunks-worth of evidence, and the oracle ranking
    attains the bound exactly, for budgets 512..4096 and levels 1..8."""
    t_start = time.perf_counter()
    budgets = (512, 1024, 2048, 4096)
    width = 256
    cells = 0
    for c in range(1, 9):
        bundle = generate_corpus(CorpusSpec(seed=5, connectivity=c))
        index = index_chunks(bundle)
        joins = [q for q in bundle.questions if q.kind == "join"]
        for q in joins:
            result = retrieve(index, tokenize(q.text, bundle.vocab),
                              top_b=len(bundle.chunks))
            oracle = oracle_ranking(bundle, q.evidence)
            for budget in budgets:
                bound = min(1.0, (budget // width) / (1 + c))
                measured = evidence_recall(result, budget, width, q.evidence)
                attained = evidence_recall(oracle, budget, width, q.evidence)
                assert measured <= bound + 1e-12, (c, q.qid, budget)
                assert attained == bound, (c, q.qid, budget)
                cells += 1
    elapsed = time.perf_counter() - t_start
    print(f"criterion 5: {cells} recall cells under the bound, oracle exact, {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_06_similar_name_degradation():
    """Goal: top-1 evidence precision strictly lower on person_NN names
    than on distinct names, averaged over 5 seeds."""
    def top1_precision(bundle):
        index = index_chunks(bundle)
        hits = 0
        for q in bundle.questions:
            result = retrieve(index, tokenize(q.text, bundle.vocab), top_b=1)
            hits += result.ranking[0] in q.evidence
        return hits / len(bundle.questions)

    distinct_scores, similar_scores = [], []
    for seed in range(60, 65):
        spec = CorpusSpec(seed=seed, connectivity=2)
        distinct_scores.append(top1_precision(generate_corpus(spec)))
        similar_scores.append(top1_precision(generate_corpus(dataclasses.replace(spec, name_style="similar"))))

    dist_mean = float(np.mean(distinct_scores))
    sim_mean = float(np.mean(similar_scores))
    print(f"criterion 6: top-1 precision distinct={dist_mean:.4f} similar={sim_mean:.4f}")
    assert sim_mean <= dist_mean + 1e-12
    if not sim_mean < dist_mean:
        pytest.xfail(
            f"similar-name top-1 precision ({sim_mean:.4f}) equals the distinct-name "
            f"precision ({dist_mean:.4f}) and cannot be strictly lower here: the two "
            "variants are exact token renamings of each other (person names are a pure "
            "function of style and index, and the generator draws the same random "
            "stream for both styles), and word-level tf-idf scoring is invariant under "
            "a bijective renaming of word tokens, so every query produces the identical "
            "chunk ranking in both corpora and the means are provably equal. A strict "
            "drop requires names that collide at the retriever's feature level, which "
            "a whole-word lexical retriever cannot express."
        )


def test_criterion_07_diagnostic_retention():
    """Diagnostic model at 8x compression (k=4096 of 32,768): query-aware
    few-shot compression keeps every gold-entity name token for all 50
    questions; streaming eviction with sink=4 keeps a fraction within
    0.15 of the budget fraction 0.125."""
    t_start = time.perf_counter()
    bundle = generate_corpus(CorpusSpec(seed=7, connectivity=2))
    vocab = bundle.vocab
    config = ModelConfig(n_layers=1, n_heads=1, hidden_size=256, head_dim=256,
                         vocab_size=len(vocab.id_to_token), max_position=40960,
                         rotary_enabled=False)
    model = init_diagnostic_model(config, vocab)
    corpus = bundle.corpus_tokens()
    k = 4096
    examples = select_fewshot(bundle, 3)
    # one shared prefill of the corpus; each compression prefills only its guidance
    prefix = prefill_context(model, corpus)

    streaming = compress_streaming_llm(model, corpus, k=k, sink=4, prefix=prefix)
    stream_fracs = []
    for q in bundle.questions:
        entity_pos = entity_token_positions(bundle, q.entities)
        guidance = make_guidance("fsq", examples, query=q.text)
        compressed = compress_iterative(model, corpus, guidance, vocab,
                                        CompressionBudget(k), s=1, prefix=prefix)
        assert retention(compressed, entity_pos) == 1.0, q.qid
        stream_fracs.append(retention(streaming, entity_pos))

    stream_mean = float(np.mean(stream_fracs))
    elapsed = time.perf_counter() - t_start
    print(f"criterion 7: fsq retention 1.0 on 50/50 questions; "
          f"streaming mean {stream_mean:.4f} vs budget fraction 0.125; {elapsed:.1f}s")
    assert abs(stream_mean - k / len(corpus.ids)) <= 0.15
    assert elapsed < 300.0


def test_criterion_08_ttft_ordering():
    """Median time to first token obeys kvc < rag < full at corpus sizes
    32,768 and 65,536 with budget 8,192 and a 512-token question, five
    timed repetitions after a discarded warm-up."""
    budget = 8192
    for size in (32768, 65536):
        n_chunks = size // 256
        spec = CorpusSpec(seed=8, connectivity=2, n_people=32, n_projects=32,
                          n_filler=n_chunks - 96, questions_per_kind=25)
        bundle = generate_corpus(spec)
        assert bundle.spec.n_tokens == size
        vocab_size = len(bundle.vocab.id_to_token)
        model = init_random_model(ttft_reference_config(vocab_size), 0)
        rng = np.random.default_rng(8)
        question = random_ids(rng, vocab_size, 512)

        full, rag, kvc = measure_ttft(model, bundle, question, budget, reps=5)
        print(f"criterion 8: corpus {size}: kvc {kvc.median_s:.3f}s "
              f"< rag {rag.median_s:.3f}s < full {full.median_s:.3f}s "
              "(offline compression excluded)")
        assert full.feasible and rag.feasible and kvc.feasible
        assert full.reps == rag.reps == kvc.reps == 5
        assert kvc.median_s < rag.median_s < full.median_s, size


def test_criterion_09_compression_reuse(tmp_path):
    """50 questions per (corpus, budget) trigger exactly one compression
    call per pair: the instrumented counter advances by the number of
    budgets, not the number of questions."""
    spec = CorpusSpec(seed=9, connectivity=2, n_people=25, n_projects=8,
                      n_filler=0, chunk_tokens=80, questions_per_kind=25)
    bundle = generate_corpus(spec)
    assert len(bundle.questions) == 50
    model = init_random_model(default_eval_config(len(bundle.vocab.id_to_token)), 0)

    before = compress_mod.COMPRESSION_CALLS
    records = run_suite(
        model, bundle, methods=("kvc_zs",), budgets=(128, 256),
        out_path=tmp_path / "runs.jsonl", n_fewshot=0,
        params=GenerationParams(max_new_tokens=6),
    )
    delta = compress_mod.COMPRESSION_CALLS - before
    print(f"criterion 9: 100 cells, {delta} compression calls")
    assert delta == 2
    assert len(records) == 100
    assert all(r.error == "" for r in records)
    for budget in (128, 256):
        cells = [r for r in records if r.budget == budget]
        assert len(cells) == 50
        assert sum(1 for r in cells if r.compress_s > 0) == 1


def test_criterion_10_serialization_round_trips(tmp_path, monkeypatch):
    """Weights and caches reload to bit-identical behavior; corrupted
    artifacts fail with the documented exit codes (2 usage, 3 missing,
    4 stale or malformed)."""
    vocab = build_vocabulary(GUIDE_TEXTS)
    config = ModelConfig(n_layers=2, n_heads=2, hidden_size=32, head_dim=16,
                         vocab_size=len(vocab), max_position=2048)
    model = init_random_model(config, 12)

    wpath = tmp_path / "model.kvcw"
    save_weights(model, wpath)
    reloaded = load_weights(wpath, config)
    assert reloaded.fingerprint == model.fingerprint
    rng = np.random.default_rng(40)
    ctx = random_ids(rng, len(vocab), 120)
    prompt = tokenize("question which projects answer", vocab)
    params = GenerationParams(max_new_tokens=6)

    compressed = compress_iterative(model, ctx, lossless_guidance("fs"), vocab,
                                    CompressionBudget(40), s=2)
    cpath = tmp_path / "ctx.kvcc"
    save_cache(compressed, cpath)
    loaded = load_cache(cpath, model)
    for layer in range(config.n_layers):
        assert np.array_equal(loaded.keys[layer], compressed.keys[layer])
        assert np.array_equal(loaded.values[layer], compressed.values[layer])
    before = answer_with_cache(model, compressed, prompt, params)
    after_save = answer_with_cache(reloaded, loaded, prompt, params)
    assert list(before.ids) == list(after_save.ids)

    raw = bytearray(cpath.read_bytes())
    raw[0:4] = b"XXXX"
    bad = tmp_path / "bad.kvcc"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as fmt_exc:
        load_cache(bad)
    assert _exit_code(fmt_exc.value) == 4
    other = init_random_model(config, 13)
    with pytest.raises(StaleCacheError) as stale_exc:
        load_cache(cpath, other)
    assert _exit_code(stale_exc.value) == 4
    with pytest.raises(MissingArtifactError) as miss_exc:
        load_cache(tmp_path / "ghost.kvcc")
    assert _exit_code(miss_exc.value) == 3

    # same contract end to end through the command line
    monkeypatch.setenv("KVC_OUT", str(tmp_path))
    assert main(["corpusgen", "--connectivity", "1", "--seed", "2",
                 "--out", "b", "--people", "4", "--projects", "4",
                 "--filler", "0", "--chunk-tokens", "80",
                 "--questions-per-kind", "2"]) == 0
    assert main(["compress", "--bundle", "b", "--budget", "32",
                 "--mode", "zs", "--out", "c.kvcc"]) == 0
    assert main(["ask", "--cache", "c.kvcc", "--bundle", "b",
                 "--question", "anything", "--max-new", "2"]) == 0
    assert main(["ask", "--cache", "gone.kvcc", "--bundle", "b",
                 "--question", "anything"]) == 3
    assert main(["ask", "--cache", "c.kvcc", "--bundle", "b",
                 "--question", "anything", "--model-seed", "9"]) == 4
    cache_file = tmp_path / "c.kvcc"
    cache_file.write_bytes(cache_file.read_bytes()[:-7])
    assert main(["ask", "--cache", "c.kvcc", "--bundle", "b",
                 "--question", "anything"]) == 4
    print("criterion 10: round trips bit-identical; exit codes 3/4 verified")
