"""bizoo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload catalog-reuse --seed 1 --seconds 10 --trace 0

Runs the package in this checkout's src/.  With --trace 0 the last line of
standard output is {"correct", "attempted", "failed", "metrics"} holding
the end-to-end metrics of BENCHMARK.json, their times scaled to reference
host speed (see hostspeed.py); with --trace 1 it holds the
per-layer metrics of a traced run instead, and the spans are written to
.bench_out/.  --quick shrinks every workload to a smoke test.  See
bench/README.md for the workloads, metrics and named faults.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def environment():
    """Machine and code facts recorded with every result."""
    import numpy
    import scipy
    src = os.path.join(ROOT, "src", "bizoo")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                       os.environ.get("OMP_NUM_THREADS", "default (nproc)")),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_rounds(workload, ops, seconds, tracer=None, keep=None, min_rounds=1, clock=None):
    """Whole rounds of `ops`: at least `min_rounds`, then more while one
    more round, at the mean round time so far, ends within `seconds`.

    Returns a list of rounds, each a list of (verdict, seconds), and, with
    a HostClock, each round's time at reference speed (else None).
    Outputs of the first round go through workload.keep into `keep`.
    """
    from hostspeed import CHUNK_S
    rounds, scaled = [], []
    start = time.perf_counter()
    while (len(rounds) < max(min_rounds, 1)
           or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds):
        results = []
        if clock is not None:
            clock.start()
        stretch = total = 0.0
        for idx, op in enumerate(ops):
            if tracer is not None:
                tracer.op = idx
            t0 = time.perf_counter()
            verdict, output = op.run()
            took = time.perf_counter() - t0
            results.append((verdict, took))
            stretch += took
            if clock is not None and (stretch >= CHUNK_S or idx == len(ops) - 1):
                total += clock.scale(stretch)
                stretch = 0.0
            if keep is not None and not rounds:
                keep.append(workload.keep(op, output))
            del output
        rounds.append(results)
        scaled.append(total if clock is not None else None)
    return rounds, scaled


def judge(workload, ops, rounds, kept):
    """Attempted/failed counts, faults, and output checks of the first round."""
    attempted = failed = 0
    faults = {}
    problems = []
    for idx, op in enumerate(ops):
        expected, fault, checks = workload.judge(op, rounds[0][idx][0], kept[idx])
        for name, (value, limit) in checks.items():
            if not value <= limit:
                problems.append(f"{op.key}: {name} = {value:.3e} > {limit:.1e}")
        for results in rounds:
            attempted += 1
            if results[idx][0] != rounds[0][idx][0]:
                problems.append(f"{op.key}: verdict changed between rounds")
            if results[idx][0] != expected:
                failed += 1
                tag = fault or "new"
                entry = faults.setdefault(tag, {"count": 0, "ops": set()})
                entry["count"] += 1
                entry["ops"].add(f"{op.key} exit {results[idx][0]} (expected {expected})")
    return attempted, failed, faults, problems


def round_seconds(rounds):
    return [sum(took for _, took in results) for results in rounds]


def untraced(workload, seconds):
    from hostspeed import REFERENCE_S, HostClock
    clock = HostClock()
    setups, setups_scaled = [], []
    for _ in range(workload.setup_repeats):
        # free the previous set-up, cycles too, so that peak RSS holds one
        state = None
        gc.collect()
        clock.start()
        state, took = workload.setup()
        setups.append(took)
        setups_scaled.append(clock.scale(took))
    ops = workload.operations(state)
    kept = []
    rounds, scaled = run_rounds(workload, ops, seconds, keep=kept,
                                min_rounds=workload.min_rounds, clock=clock)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fastest = [min(results[idx][1] for results in rounds) for idx in range(len(ops))]
    metrics = {
        "setup_s": statistics.median(setups_scaled),
        "round_s": statistics.mean(scaled),
        "peak_rss_mb": peak_mb,
    }
    detail = {"rounds": len(rounds), "operations_per_round": len(ops),
              "setup_samples": setups_scaled, "round_samples": scaled,
              "setup_wall_s": setups, "round_wall_s": round_seconds(rounds),
              "reference_s": REFERENCE_S, "reference_readings": len(clock.readings),
              "host_slowdown": statistics.median(clock.readings) / REFERENCE_S,
              "fastest_wall_s": {str(op.key): t for op, t in zip(ops, fastest)}}
    return ops, rounds, kept, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, detail


def traced(workload, seconds, seed):
    """Untraced then traced set-up and rounds; per-layer metrics of the traced half."""
    from tracer import PER_LAYER, Tracer, layer_metrics
    half = seconds / 2.0
    state, setup_plain = workload.setup()
    ops = workload.operations(state)
    kept = []
    plain, _ = run_rounds(workload, ops, half, keep=kept)
    del state, ops
    setup_tracer, round_tracer = Tracer(), Tracer()
    with setup_tracer:
        state, setup_traced = workload.setup()
    ops = workload.operations(state)
    with round_tracer:
        traced_rounds, _ = run_rounds(workload, ops, half, tracer=round_tracer)
    count = len(traced_rounds)
    per_setup = layer_metrics(setup_tracer.spans, setup_tracer.counts)
    per_round = layer_metrics(round_tracer.spans, round_tracer.counts)
    metrics = {}
    for name, unit in PER_LAYER:
        value = per_setup[name] + per_round[name] / count
        if unit in ("count", "bytes"):
            value = (per_setup[name] * count + per_round[name]) // count
        metrics[name] = (value, unit)
    overhead = (setup_traced - setup_plain) + (
        statistics.mean(round_seconds(traced_rounds)) - statistics.mean(round_seconds(plain)))
    metrics["trace.overhead_s"] = (overhead, "s")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "traced_rounds": count,
                   "setup_spans": setup_tracer.spans, "round_spans": round_tracer.spans,
                   "fields": ["name", "tag", "start", "end", "parent", "op", "matvec_s"]},
                  fh)
    detail = {"untraced_rounds": len(plain), "traced_rounds": count,
              "setup_untraced_s": setup_plain, "setup_traced_s": setup_traced,
              "spans_file": os.path.relpath(path, ROOT)}
    return ops, plain + traced_rounds, kept, metrics, detail


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small grids, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if "BIZOO_TOL" in os.environ:
        print("bench: BIZOO_TOL is set; it changes every solver's target, "
              "so the figures would not compare. Unset it.", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "bizoo")):
        print(f"bench: no package at {os.path.join(ROOT, 'src', 'bizoo')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    tmp = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.quick, ROOT, tmp)
        workload.prepare()
        if args.trace:
            ops, rounds, kept, metrics, detail = traced(workload, args.seconds, args.seed)
        else:
            ops, rounds, kept, metrics, detail = untraced(workload, args.seconds)
        attempted, failed, faults, problems = judge(workload, ops, rounds, kept)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(), **detail,
        "faults": {k: {"count": v["count"], "ops": sorted(v["ops"])}
                   for k, v in sorted(faults.items())},
        "problems": problems,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps(report, default=str))
    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # One BLAS and OpenMP thread, set before numpy loads: on a machine of
    # few cores shared with other tenants, a second thread measures the
    # scheduler more than the program.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        sys.exit(main())
    except Exception:  # report and fail the run without a result line
        traceback.print_exc()
        sys.exit(1)
