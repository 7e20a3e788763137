"""Task-aware KV-cache compression workbench.

A numpy decoder-only transformer with an exactly reproducible KV cache,
guidance-driven cache compression with task-agnostic baselines, a TF-IDF
retrieval stand-in, a controlled synthetic corpus, and an evaluation
harness covering accuracy, retention, and time-to-first-token.
"""

from .baselines import (
    compress_expected_attention,
    compress_snapkv_agnostic,
    compress_streaming_llm,
)
from .cachefile import load_cache, save_cache
from .compress import (
    CompressedCache,
    CompressionBudget,
    GuidancePrompt,
    answer_with_cache,
    compress_iterative,
    compress_oracle,
    guidance_fingerprint,
    retention,
)
from .corpusgen import (
    CorpusBundle,
    CorpusSpec,
    Question,
    compute_gold_token_positions,
    entity_token_positions,
    generate_corpus,
    load_bundle,
    save_bundle,
)
from .errors import (
    FormatError,
    KvcError,
    MalformedSequenceError,
    MissingArtifactError,
    PositionOverflowError,
    StaleCacheError,
    UsageError,
)
from .evalharness import (
    RunRecord,
    TimingRecord,
    answer_with_context,
    emit_report,
    measure_ttft,
    normalize,
    run_suite,
    word_overlap,
)
from .modelcore import (
    AttentionCapture,
    GenerationParams,
    KvCache,
    Model,
    ModelConfig,
    decode_step,
    generate_greedy,
    init_diagnostic_model,
    init_random_model,
    prefill,
)
from .retrieval import (
    ChunkIndex,
    RetrievalResult,
    assemble_context,
    evidence_recall,
    index_chunks,
    load_index,
    retrieve,
    save_index,
)
from .vocab import TokenSequence, Vocabulary, build_vocabulary, detokenize, tokenize
from .weights import load_weights, save_weights

__version__ = "0.1.0"
