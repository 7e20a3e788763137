"""Timed and traced runs of one workload, provenance and the result line."""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads
from workloads import GRID_METHODS, WORKLOADS

PERF = time.perf_counter
# figures of the root spans themselves, not of a layer
ROOT_FIGURES = ("wall_s", "unattributed_s")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def metric_units(kind: str) -> dict[str, str]:
    """Name → unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


@contextlib.contextmanager
def workdir(name: str):
    """Scratch directory inside the checkout, removed on exit."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def run_op(op):
    """Run one op; an exception counts as a failed op and the run goes on."""
    t0 = PERF()
    try:
        return op()
    except Exception:  # a failing op is counted, not fatal
        traceback.print_exc()
        return workloads.OpResult("error", PERF() - t0, "error", failed=1)


def tally(checks, results):
    """Print the checks; return (attempted, failed, correct). Each check
    counts as one op."""
    for name, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    failed_checks = sum(1 for _, ok in checks if not ok)
    attempted = sum(r.requests for r in results) + len(checks)
    failed = sum(r.failed for r in results) + failed_checks
    return attempted, failed, failed == 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_line(correct, attempted, failed, values, units) -> dict:
    return {
        "correct": bool(correct and set(values) >= set(units)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }


# --- timed run ---------------------------------------------------------------


def run_timed(name: str, seed: int, seconds: float) -> dict:
    """Set up ``setup_reps`` times, then loop passes of ops until
    ``seconds`` have passed and the workload has enough samples."""
    wl = WORKLOADS[name](seed)
    print("provenance " + json.dumps(provenance(seed)))
    with workdir(name) as wd:
        setups, setup_s, st = [], [], None
        for _ in range(wl.setup_reps):
            st = None  # frees the previous state before the clock starts
            t0 = PERF()
            st = wl.setup(wd)
            setup_s.append(PERF() - t0)
            setups.append({k: st[k] for k in ("digest", "build_s") if k in st})
        results = []
        t0 = PERF()
        while not results or PERF() - t0 < seconds or not wl.enough(results):
            for op in wl.ops(st):
                results.append(run_op(op))
                if PERF() - t0 >= seconds and wl.enough(results):
                    break
        wall = PERF() - t0
        checks = wl.checks(st, results)
    checks.append(("set-up repeats bitwise", len({s["digest"] for s in setups}) == 1))
    attempted, failed, correct = tally(checks, results)

    e2e, named = {}, {}
    if correct:
        e2e, named, extra = wl.summary(st, setups, results, wall)
        print(f"{name}: {len(results)} ops in {wall:.3f} s; " + ", ".join(f"{k} {v}" for k, v in extra.items()))
    e2e["setup_s"] = statistics.median(setup_s)
    e2e["peak_rss_mb"] = peak_rss_mb()
    named.update(setup_s=(e2e["setup_s"], "s"), peak_rss_mb=(e2e["peak_rss_mb"], "MiB"))
    for key, (value, unit) in named.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    print("report " + json.dumps({"workload": name, "named": named}))
    return result_line(correct, attempted, failed, e2e, metric_units("end_to_end"))


# --- traced run --------------------------------------------------------------


def traced_outcome(wl, wd):
    """Set up twice, the second time traced, then run one pass of ops in
    pairs: each op untraced, then the same op traced, so that drifts in
    machine speed hit both alike. Returns the per-layer figures, the checks
    and both passes' results."""
    st0 = wl.setup(wd)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, extra_modules=(workloads,)), tracer.span("op.setup", request=0):
        st = wl.setup(wd)
    # one op untraced first, so that neither side of the first pair pays
    # for growing the process's heap
    run_op(next(iter(wl.ops(st0))))
    plain, traced, plain_wall = [], [], 0.0
    for i, (op0, op) in enumerate(zip(wl.ops(st0), wl.ops(st))):
        t0 = PERF()
        plain.append(run_op(op0))
        plain_wall += PERF() - t0
        with tracing.installed(tracer, extra_modules=(workloads,)), tracer.span(f"op.{wl.name}", request=i + 1):
            traced.append(run_op(op))
    checks = wl.checks(st, traced)
    checks.append(("traced outputs bitwise equal untraced outputs",
                   [r.digest for r in plain] == [r.digest for r in traced]))

    spans = tracer.spans
    root_of = tracing.roots(spans)
    in_setup = [spans[r].name == "op.setup" for r in root_of]
    cells = None
    if "suites" in st:
        suite = st["suites"][-1]
        cells = {"records": suite["records"], "registry_builds": suite["registry_builds"]}
    ops = tracing.layer_metrics(spans, [i for i, x in enumerate(in_setup) if not x], cells, GRID_METHODS)
    setup = tracing.layer_metrics(spans, [i for i, x in enumerate(in_setup) if x])
    overhead = ops["wall_s"] - plain_wall
    checks.append(("op spans: layer self times add up to the untraced op wall time within the overhead",
                   tracing.adds_up(ops, plain_wall, overhead)))
    checks.append(("set-up spans: layer self times add up to the traced set-up wall time",
                   tracing.adds_up(setup, setup["wall_s"], 0.0)))

    layers = {f"trace.{k}" if k in ROOT_FIGURES else k: v for k, v in ops.items()}
    layers.update({f"setup.{k}": v for k, v in setup.items()})
    layers["trace.op_wall_s"] = plain_wall
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_pct"] = 100.0 * overhead / plain_wall
    layers["trace.spans"] = len(spans)
    return {"layers": layers, "checks": checks, "plain": plain, "traced": traced}


def run_traced(name: str, seed: int, seconds: float) -> dict:
    wl = WORKLOADS[name](seed)
    print("provenance " + json.dumps(provenance(seed)))
    with workdir(name) as wd:
        out = traced_outcome(wl, wd)
    attempted, failed, correct = tally(out["checks"], out["traced"])
    for key, value in out["layers"].items():
        print(f"{name} {key} = {value:.6g}")
    return result_line(correct, attempted, failed, out["layers"], metric_units("per_layer"))


# --- all workloads -----------------------------------------------------------

NAMED_ORDER = (
    "ttft_kvc_p50_ms", "ttft_kvc_p90_ms", "ttft_rag_p50_ms", "ttft_rag_p90_ms",
    "decode_tok_per_s", "answers_per_s", "ttft_full_s", "compress_tok_per_s",
    "retention_diag_fsq", "retention_kvc_fs", "grid_cells_per_s", "setup_s", "peak_rss_mb",
)
# reported by every workload, so printed once per workload
PER_WORKLOAD = ("setup_s", "peak_rss_mb")


def run_all(seed: int, seconds: float) -> dict:
    """Run serve, build and grid in their own processes; print the named
    figures of all three and check the TTFT ordering across them."""
    named, correct, attempted, failed, metrics = {}, True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode}")
            correct = False
            continue
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            metrics[f"{name}.{k}"] = v
        for line in lines:
            if line.startswith("report "):
                for k, (value, unit) in json.loads(line[7:])["named"].items():
                    named[f"{name}.{k}" if k in PER_WORKLOAD else k] = (value, unit)
    print("\nall workloads, seed", seed)
    for k in NAMED_ORDER:
        for key in [k] + [f"{w}.{k}" for w in WORKLOADS]:
            if key in named:
                print(f"  {key:<28} {named[key][0]:>14.6g} {named[key][1]}")
    try:
        ordered = named["ttft_kvc_p50_ms"][0] < named["ttft_rag_p50_ms"][0] < named["ttft_full_s"][0] * 1e3
    except KeyError:
        ordered = False
    print(f"check {'ok  ' if ordered else 'FAIL'} ttft_kvc_p50_ms < ttft_rag_p50_ms < ttft_full_s")
    attempted += 1
    failed += int(not ordered)
    return {"correct": bool(correct and ordered), "attempted": attempted, "failed": failed, "metrics": metrics}
