"""greenlab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload grid-solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the directory holding ``src/greenlab``).
Set-up runs ``inputs.py`` in a fresh interpreter several times and reports
the median; then this process imports greenlab from ``src/`` and repeats
the workload's fixed request list, one request at a time, while one more
repetition, as long as the last, still ends within ``--seconds`` (and at
least the workload's minimum number of times).  Every output is checked by ``oracle``.

With ``--trace 1`` repetitions alternate untraced and traced, starting
untraced; the traced ones give the per-layer metrics, and the traced and
later untraced ones the tracing overhead; the spans are written to ``.perfbench-work/<workload>/trace.npz``.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds the provenance and the notes (failure fraction, tail latency, sample
counts).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10
MAX_PRINTED_ERRORS = 3


def timed_setup(workload: str, seed: int, workdir: Path) -> float:
    """Interpreter start, import greenlab, draw and write the inputs."""
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(workdir), "--src", str(SRC)]
    start = perf_counter()
    subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S)
    return perf_counter() - start


def blas_info(np) -> dict:
    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(vendor=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return info


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(np, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "seed": seed,
        "git_commit": git_commit(),
        "machine_settings": "unchanged: the benchmark sets no kernel, cgroup, CPU-frequency, "
                            "affinity or BLAS-thread setting",
    }


def tail_latency(latencies):
    """Highest percentile (nearest rank) with at least ten requests beyond
    it, or None when there are too few requests."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return {"percentile": p, "value": ordered[rank - 1], "unit": "s",
                    "samples": n, "beyond": n - rank}
    return None


def run_reps(wl, seconds: float, tracer, rec):
    """Repeat the request list while time is left; returns one dict per repetition."""
    from spans import SpanTable, layer_metrics

    reps = []
    errors = 0
    begin = perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        wl.reset()
        if traced:
            lo, before = len(rec), dict(rec.counters)
            tracer.install()
        latencies, outputs = [], []
        start = perf_counter()
        for send in wl.requests():
            if traced:
                rec.request_id += 1
            t0 = perf_counter()
            try:
                out = send()
            except Exception as exc:  # an operation failure, recorded and counted
                if errors < MAX_PRINTED_ERRORS:
                    traceback.print_exc(file=sys.stderr)
                errors += 1
                out = exc
            latencies.append(perf_counter() - t0)
            outputs.append(out)
        wall = perf_counter() - start
        rep = {"traced": traced, "wall": wall, "latencies": latencies}
        if traced:
            tracer.uninstall()
            delta = {k: v - before.get(k, 0) for k, v in rec.counters.items()}
            rep["layers"] = layer_metrics(SpanTable(rec, lo, len(rec)), delta, wl.input_bytes)
        rep["outcomes"] = wl.check(outputs)
        reps.append(rep)
        # a traced run needs the warm-up, one traced and one later untraced repetition
        enough = len(reps) >= wl.min_reps and (tracer is None or len(reps) >= 3)
        # stop before a repetition as long as the last one would overrun --seconds
        now = perf_counter()
        if enough and now - begin + (now - start) > seconds:
            return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="greenlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "greenlab" / "__init__.py").is_file():
        print(f"error: no greenlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(1, str(SRC))
    from workloads import WORKLOADS
    from oracle import FAIL, KNOWN, KNOWN_DEFECT, OK

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_times = [timed_setup(args.workload, args.seed, workdir)
                       for _ in range(SETUP_REPEATS)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    import numpy as np
    import greenlab
    import greenlab.cli  # noqa: F401  (the package does not import its CLI)

    wl = WORKLOADS[args.workload](greenlab, workdir)
    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = rec = None
    if args.trace:
        from spans import SpanRecorder, Tracer
        rec = SpanRecorder()
        tracer = Tracer(greenlab, rec)

    reps = run_reps(wl, args.seconds, tracer, rec)

    outcomes = [o for r in reps for o in r["outcomes"]]
    attempted = len(outcomes)
    failed = sum(o != OK for o in outcomes)
    correct = FAIL not in outcomes
    untraced = [r for r in reps if not r["traced"]]
    latencies = [x for r in untraced for x in r["latencies"]]
    # each request's median over the repetitions; req_p50_s is the median of
    # these, since pooling would put it in the gap between two request sizes
    request_medians = [statistics.median(col) for col in zip(*(r["latencies"] for r in untraced))]
    notes = {
        "workload": args.workload,
        "repetitions": len(reps),
        "requests_per_repetition": len(reps[0]["latencies"]),
        "failed_frac": {"value": failed / attempted, "unit": "fraction",
                        "failed": failed, "attempted": attempted},
        "known_defect": ({"count": outcomes.count(KNOWN), "what": KNOWN_DEFECT}
                         if KNOWN in outcomes else None),
        "wall_runs_s": [r["wall"] for r in reps],
        "request_medians_s": request_medians if len(request_medians) <= 10 else None,
        "req_p50_samples": len(latencies),
        "req_tail_s": tail_latency(latencies),
        "setup_runs_s": setup_times,
        "harness_rss_mb": harness_rss_mb,
    }

    if args.trace:
        traced = [r for r in reps if r["traced"]]
        names = list(traced[0]["layers"])
        metrics = {}
        for n in names:
            unit = traced[0]["layers"][n][1]
            value = statistics.median(r["layers"][n][0] for r in traced)
            metrics[n] = {"value": int(value) if unit == "count" else value, "unit": unit}
        # the first repetition warms the heap and caches, so it is left out
        overhead = (statistics.median(r["wall"] for r in traced)
                    / statistics.median(r["wall"] for r in untraced[1:]) - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
        notes["traced_repetitions"] = len(traced)
        rec.save(workdir / "trace.npz")
        print("layer self time per traced repetition (s):")
        for name in sorted(n for n in names if n.endswith(".self_s")):
            print(f"  {name.split('.')[0]:<11} {metrics[name]['value']:.4f}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in reps), "unit": "s"},
            "req_p50_s": {"value": statistics.median(request_medians), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(json.dumps({"provenance": provenance(np, args.seed), "notes": notes}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
