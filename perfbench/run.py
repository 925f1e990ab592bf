#!/usr/bin/env python3
"""freeconv benchmark: one workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload boundary --seed 1 --seconds 30 --trace 0

Run from the root of a freeconv checkout; the library is imported from
src/.  --trace 0 repeats checked passes for --seconds and reports the
end-to-end metrics; --trace 1 does the same untraced, then two traced passes
and a --workers 1 rerun of the CLI jobs, and reports the per-module metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the run metadata.
Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("boundary", "field", "montecarlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)  # child process of setup_s
    return parser.parse_args(argv)


def _thread_budget():
    """Workers for the CLI jobs and BLAS threads, with their product <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    workers = nproc
    blas = max(1, nproc // workers)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)  # before numpy is imported
    return nproc, workers


def _blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # the checkout is not a git repository


def _metadata(args, nproc, workers):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "workers": workers,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "git_commit": _git_commit(),
    }


def _setup_seconds(args, reference_scale):
    """Start -> first request ready of SETUP_PROBES fresh processes.

    Returns the samples at reference speed and as measured.
    """
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        scale = reference_scale()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(proc.stdout.split()[-1]) - t0)
        scaled.append(raw[-1] * scale)
    return scaled, raw


def _tail(values):
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _run_passes(bench, tally, workers, seconds, first_index=0):
    """Checked passes until `seconds` are used; at least two, for the hash gate."""
    results = []
    t_start = time.perf_counter()
    while True:
        results.append(bench.run_pass(tally, workers, first_index + len(results)))
        used = time.perf_counter() - t_start
        if len(results) >= 2 and used * (len(results) + 1) / len(results) > seconds:
            return results


def _determinism(results, tally, label=""):
    """Same inputs must give identical output bytes in every pass."""
    first = results[0].digests
    for res in results[1:]:
        for key, digest in res.digests.items():
            tally.op(ok=first.get(key) == digest, what=f"{label}{key} bytes differ")


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "freeconv" / "__init__.py").is_file():
        print(f"error: no freeconv sources under {SRC.name}/ next to "
              f"{HERE.name}/", file=sys.stderr)
        return 2
    nproc, workers = _thread_budget()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    if args.probe_setup:
        workloads.WORKLOADS[args.workload](args.seed, workers, out_dir)
        print(time.monotonic())
        return 0

    meta = _metadata(args, nproc, workers)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            metrics, extra = _traced_run(args, workloads, workers, out_dir)
        else:
            metrics, extra = _plain_run(args, workloads, workers, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    tally = extra.pop("tally")
    meta.update(extra)
    meta["failures"] = tally.reasons
    print(json.dumps({"meta": meta}, sort_keys=True))
    correct = tally.failed == 0 and tally.worst <= 1.0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def _quartiles(values):
    values = list(values)
    if len(values) < 2:
        return {"n": len(values), "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "q3": q3}


def _plain_run(args, workloads, workers, out_dir):
    setup_samples, setup_raw = _setup_seconds(args, workloads.reference_scale)
    tally = workloads.Tally()
    bench = workloads.WORKLOADS[args.workload](args.seed, workers, out_dir)
    results = _run_passes(bench, tally, workers, args.seconds)
    _determinism(results, tally)
    walls = [r.wall for r in results]
    latencies = [s for r in results for _, s in r.latencies]
    tail, tail_pct = _tail(latencies)
    by_kind = {}
    for r in results:
        for kind, s in r.latencies:
            by_kind.setdefault(kind, []).append(s)
    batch = sum(r.batch_time for r in results)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "items_per_s": metric(sum(r.items for r in results) / batch, "1/s"),
        "req_mean_ms": metric(1e3 * statistics.mean(latencies), "ms"),
        "req_tail_ms": metric(1e3 * tail, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "tally": tally, "err_ratio": tally.worst,
        "samples": {"setup_s": _quartiles(setup_samples), "wall_s": _quartiles(walls),
                    "req_s": _quartiles(latencies)},
        "req_tail_percentile": tail_pct,
        "req_p50_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
        "pass_walls_s": walls,
        "measured": {"setup_s": statistics.median(setup_raw),
                     "wall_s": statistics.median(r.raw_wall for r in results)},
        "output_sha256": results[0].digests,
    }
    return metrics, extra


def _traced_run(args, workloads, workers, out_dir):
    import tracing

    tally = workloads.Tally()
    bench = workloads.WORKLOADS[args.workload](args.seed, workers, out_dir)
    # untraced: the same loop as --trace 0, then the inputs the traced passes
    # replay (index 0), for the overhead
    results = _run_passes(bench, tally, workers, args.seconds, first_index=0)
    untraced = bench.run_pass(tally, workers, 0)
    _determinism(results + [untraced], tally)

    traced = []
    for k in range(2):
        with tracing.traced() as tracer:
            res = bench.run_pass(tally, workers, 0)
        traced.append((res, tracing.summarize(tracer.spans, workloads.N)))
        missing = tracer.missing
        if k == 0:
            tracer.dump(ROOT / ".bench_out" /
                        f"trace-{args.workload}-seed{args.seed}.jsonl")
    _determinism([untraced] + [r for r, _ in traced], tally, "traced ")
    (counts, times_a), (counts_b, times_b) = traced[0][1], traced[1][1]
    nonrepeating = sorted(k for k in counts if counts[k] != counts_b[k])

    # the same CLI jobs at --workers 1: identical bytes, and the speedup
    serial, parallel = 0.0, 0.0
    for job in bench.jobs:
        code, seconds, _, out = job.run(1, job.path(1))
        data = out.read_bytes() if out.exists() else b""
        tally.op(ok=code == 0 and workloads.digest(data) == untraced.digests[job.label],
                 what=f"{job.label} differs between --workers 1 and {workers}")
        serial += seconds
        parallel += untraced.job_times[job.label]

    per_layer = dict(counts)
    per_layer.update({k: (times_a[k] + times_b[k]) / 2.0 for k in times_a})
    traced_wall = statistics.mean(r.wall for r, _ in traced)
    untraced_wall = statistics.median(r.wall for r in results + [untraced])
    points = {kind: [s for r in results for k, s in r.latencies if k == kind]
              for kind in ("in", "out")}
    everything = points["in"] + points["out"]
    tail, tail_pct = _tail(everything) if everything else (0.0, 0.0)
    per_layer.update({
        "cli.output_bytes": untraced.output_bytes,
        "cli.workers_speedup": serial / parallel if parallel else 0.0,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.nonrepeating_counts": len(nonrepeating),
        "check.err_ratio": tally.worst,
        "check.fail_rate": tally.failed / max(1, tally.attempted),
        "field.point_in_p50_ms":
            1e3 * statistics.median(points["in"]) if points["in"] else 0.0,
        "field.point_out_p50_ms":
            1e3 * statistics.median(points["out"]) if points["out"] else 0.0,
        "field.point_tail_ms": 1e3 * tail,
    })
    units = _per_layer_units()
    metrics = {k: {"value": per_layer[k], "unit": units[k]} for k in units}
    extra = {"tally": tally, "passes": len(results),
             "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
             "timing_like_counts": nonrepeating, "untraced_functions": missing,
             "point_tail_percentile": tail_pct,
             "err_ratio": tally.worst, "output_sha256": untraced.digests}
    return metrics, extra


def _per_layer_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
