#!/usr/bin/env python3
"""Closed-loop benchmark of entro: estimator time, set-up time, peak memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S      # every workload in turn
    python3 perfbench/run.py --write-reference
    python3 perfbench/compare.py BASE_DIR NEW_DIR

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are described in ``perfbench/workloads.py``.

``--trace 0`` measures the end-to-end metrics.  Set-up (import plus bundle
build) is timed in five fresh processes and reported as the median.  Then
whole passes of the workload run, one operation after another, while the
next pass is expected to end within ``--seconds`` (always at least one);
times are medians over passes.  Peak RSS is the ``ru_maxrss`` of this
process, which does nothing else.

``--trace 1`` gives the per-layer metrics: one pass under ``tracemalloc`` for
per-call peak allocation, one untraced pass, and one pass with spans around
every layer function; ``trace.overhead_s`` is the difference of the last two.

Every operation's output is compared with ``perfbench/reference.json``;
``--write-reference`` records that file from the current code.  Each run
writes a record (environment, per-pass values, spans) under
``.perfbench_out/runs/``; ``compare.py`` diffs two directories of them.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: every run is plain single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "ENTRO_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import tracing
import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_probe(name: str) -> float:
    """Seconds to import the package and build the bundles, in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(workloads.__file__)), name],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(name: str, bundle, seed: int, tracer, reference: dict | None) -> dict:
    """One pass over the workload's operations, in a temporary working directory.

    Returns each operation's wall time and their sum, the spans the tracer
    recorded, the failed operations and the values observed.
    """
    ops = workloads.operations(name, bundle, seed)
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    raws, failures, op_s = [], [], {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory(dir=OUT / "work") as workdir:
        os.chdir(workdir)
        try:
            with tracer.installed():
                for op, call, extract in ops:
                    start = time.perf_counter()
                    try:
                        with tracer.span(f"op.{op}"):
                            raws.append((op, call(), extract))
                    except Exception:  # an operation failed; count it and go on
                        failures.append(f"{op}: raised\n{traceback.format_exc()}")
                    op_s[op] = time.perf_counter() - start
            observed = {}
            for op, raw, extract in raws:
                try:
                    observed[op] = extract(raw)
                except Exception:  # output missing or unreadable
                    failures.append(f"{op}: output unreadable\n{traceback.format_exc()}")
        finally:
            os.chdir(home)
    if reference is not None:
        for op, values in observed.items():
            diff = workloads.mismatches(values, reference[op], op)
            if diff:
                failures.append(f"{op}: output differs from reference: " + "; ".join(diff[:5]))
    return {
        "run_s": sum(op_s.values()),
        "op_s": op_s,
        "attempted": len(ops),
        "failures": failures,
        "spans": tracer.spans,
        "observed": observed,
    }


def timed_run(name: str, seed: int, seconds: float, reference: dict) -> tuple[dict, list, dict]:
    setup = [setup_probe(name) for _ in range(SETUP_PROBES)]
    workloads.import_package(name)
    bundle = workloads.build(name)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(name, bundle, seed, tracing.Tracer(()), reference))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["run_s"] for p in passes) > seconds:
            break
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    record = {"setup_probes_s": setup,
              "passes": [{k: p[k] for k in ("run_s", "op_s", "failures")} for p in passes]}
    return metrics, passes, record


def traced_run(name: str, seed: int, reference: dict) -> tuple[dict, list, dict]:
    workloads.import_package(name)
    tracer = tracing.Tracer(tracing.LAYER_TARGETS)
    with tracer.installed():
        bundle = workloads.build(name)
    # The memory pass goes first so that the two passes whose difference is
    # the tracing overhead run back to back.
    tracemalloc.start()
    try:
        memory = run_pass(name, bundle, seed, tracing.Tracer(tracing.ESTIMATOR_TARGETS, memory=True),
                          reference)
    finally:
        tracemalloc.stop()
    plain = run_pass(name, bundle, seed, tracing.Tracer(()), reference)
    traced = run_pass(name, bundle, seed, tracer, reference)
    metrics = tracing.layer_metrics(traced["spans"], memory["spans"])
    metrics["trace.overhead_s"] = (traced["run_s"] - plain["run_s"], "s")
    record = {"untraced_run_s": plain["run_s"], "traced_run_s": traced["run_s"],
              "spans": traced["spans"], "memory_spans": memory["spans"]}
    return metrics, [memory, plain, traced], record


def write_reference() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        workloads.import_package(name)
        p = run_pass(name, workloads.build(name), 0, tracing.Tracer(()), None)
        if p["failures"]:
            print("\n".join(p["failures"]), file=sys.stderr)
            return 1
        reference[name] = p["observed"]
        print(f"{name}: recorded {sorted(p['observed'])}")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not (SRC / "entro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'entro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        # every workload, each in a fresh process of its own
        codes = [
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)

    reference = json.loads(REFERENCE.read_text())[args.workload]
    started = time.time()
    if args.trace:
        metrics, passes, record = traced_run(args.workload, args.seed, reference)
    else:
        metrics, passes, record = timed_run(args.workload, args.seed, args.seconds, reference)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    env = environment()

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print("env " + json.dumps(env))
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"failed_share {len(failures) / attempted:.6g} ({len(failures)} of {attempted} operations)")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "started": started, "env": env,
                    "failures": failures, **result, **record})
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
