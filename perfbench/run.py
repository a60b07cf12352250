#!/usr/bin/env python3
"""Benchmark of the btd1 solver and certifier, one workload per run.

    python3 perfbench/run.py --blas-threads 1 --workload exact_ladder \
        --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The run makes as many whole rounds of its workload as ``--seconds``
holds at the workload's nominal round length, checks every output, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (operations per second,
median operation time, set-up time, peak memory); with ``--trace 1`` they
are the per-layer self times and counts of a traced run.  The full record,
with the machine, goes to ``perfbench/results/``; a traced run also writes
its spans there.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# names only: ``workloads`` imports numpy, which must load after the BLAS
# thread settings
WORKLOADS = ("exact_ladder", "scenario2_mc", "certify")
# fresh processes whose set-up is timed; setup_s is their median
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas-threads", type=int, default=1,
        help="BLAS threads; capped at the number of usable cores",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blas_threads(requested):
    return max(1, min(requested, len(os.sched_getaffinity(0))))


def time_setups(argv):
    """Start SETUP_SAMPLES fresh processes, one after the other, each doing
    the run's imports, inputs and warm-up; time each from process start to
    its ready line."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"set-up process failed (exit code {code})")
        samples.append(ready - start)
    return samples


def machine(threads):
    import numpy as np
    import scipy
    from btd1 import _kernels

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_seen": _openblas_threads(np),
        "kernel_path": "numba" if _kernels.NUMBA_ENABLED else "numpy",
    }


def _openblas_threads(np):
    """Thread count OpenBLAS reports, when numpy bundles a known build."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def end_to_end(op_times, setups):
    return {
        "ops_per_s": {"value": len(op_times) / sum(op_times), "unit": "1/s"},
        "op_s_p50": {"value": statistics.median(op_times), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def main(argv):
    args = parse_args(argv)
    threads = blas_threads(args.blas_threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    if not (SRC / "btd1" / "__init__.py").is_file():
        print(f"error: no btd1 package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    setups = None if args.setup_only else time_setups(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    tally = workloads.Tally(tracer)
    begin = time.perf_counter()
    for _ in range(workloads.rounds_for(workload, args.seconds)):
        workload.run_round(tally)
    wall = time.perf_counter() - begin
    if tracer is not None:
        tracer.uninstall()

    e2e = end_to_end(tally.op_times, setups)
    metrics = tracer.metrics(len(tally.op_times)) if tracer else e2e
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(threads),
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wall_s": wall,
        "end_to_end": e2e,
        "setup_samples_s": setups,
        "op_times_s": tally.op_times,
        "problems": tally.problems,
        "notes": tally.notes,
    }
    if tracer is not None:
        record["per_layer"] = metrics
        record["spans"] = len(tracer.start)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.save(RESULTS / f"{stem}.spans.npz")

    print("machine: " + json.dumps(record["machine"]))
    for line in tally.notes + tally.problems:
        print(line)
    print(
        f"{args.workload}: {len(tally.op_times)} ops in {wall:.1f} s, "
        f"{e2e['ops_per_s']['value']:.4g} ops/s, p50 {e2e['op_s_p50']['value']:.4g} s"
        + (" (traced)" if tracer else "")
    )
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
