"""Task-aware KV-cache compression workbench.

A numpy decoder-only transformer with an exactly reproducible KV cache,
guidance-driven cache compression with task-agnostic baselines, a TF-IDF
retrieval stand-in, a controlled synthetic corpus, and an evaluation
harness covering accuracy, retention, and time-to-first-token.
"""

__version__ = "0.1.0"
