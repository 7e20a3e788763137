"""kvcbench benchmark entry point.

    python3 bench/run.py --workload serve --seed 1 --seconds 20 --trace 0

``--workload all`` runs serve, build and grid one after another, each in its
own process, and prints the named figures of all three together.

With ``--trace 0`` it sets up several times, then loops the workload's ops
for ``--seconds`` (longer if the workload needs more samples), checks every
output and prints the end-to-end metrics. With ``--trace 1`` it sets up
twice, the second time traced, then runs one pass of ops in pairs, each op
untraced and then traced at every library boundary, and prints the
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when an output check fails and 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
# Pinned before numpy loads, so every run uses the same BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("serve", "build", "grid")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="kvcbench benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "kvcbench" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload == "all":
        result = harness.run_all(args.seed, args.seconds)
    elif args.trace:
        result = harness.run_traced(args.workload, args.seed, args.seconds)
    else:
        result = harness.run_timed(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
