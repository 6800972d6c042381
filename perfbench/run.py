"""sparsemim benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 36 --trace 0

Workloads: desk_train, paper_train, reconstruct (see workloads.py). With
``--trace 0`` the run sets up once, then times operations for ``--seconds``
and reports the end-to-end metrics. With ``--trace 1`` it times
``--seconds / 2`` untraced, then ``--seconds / 2`` traced with the same seed,
checks that both produce bit-identical losses or outputs and that the layer
spans cover at least 90 % of the traced wall time, and reports the
per-layer metrics; the spans go to ``.perfbench/trace-<workload>-<seed>.json``.

Every metric is printed by name and unit, followed by a ``detail`` line
(environment stamp, tail percentile, error rate, checks) and, last, one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

END_TO_END = {
    "samples_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.endswith("mac_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("sparse.mac_ratio", "trace.overhead"):
        return "ratio"
    return "count"


def tail(values):
    """Highest order statistic with at least ten samples above it: (value, percentile)."""
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
        return next((line.split()[0] for line in f if line.rstrip().endswith(ref[5:])), None)


def environment(seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "sparsemim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def timed(wl, args, setup_s):
    out = wl.run(args.seconds)
    if not out.op_s:
        raise RuntimeError(f"no operation completed in {args.seconds} s: {out.failures}")
    tail_s, tail_pct = tail(out.op_s)
    metrics = {
        "samples_per_s": out.samples / sum(out.op_s),
        "op_s_p50": statistics.median(out.op_s),
        "op_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"ops_timed": len(out.op_s), "tail_percentile": tail_pct, **out.extra}
    return metrics, END_TO_END, out, [], detail


def traced(wl, args):
    import spans

    half = args.seconds / 2.0
    plain = wl.run(half)
    tracer = spans.Tracer()
    with tracer.installed(wl.trace_targets()):
        out = wl.run(half, tracer)
    if not (plain.op_s and out.op_s):
        raise RuntimeError(f"no operation completed in {half} s: {plain.failures + out.failures}")
    out.failures = plain.failures + out.failures
    out.attempted += plain.attempted + 2  # the two checks below

    checks = []
    n = min(len(plain.record), len(out.record))
    if n == 0 or plain.record[:n] != out.record[:n]:
        checks.append(f"traced and untraced runs differ within their first {n} operations")
    metrics, layer_self = tracer.per_layer(wl.encoder)
    wall = sum(out.op_s)
    if layer_self / wall < 0.90:
        checks.append(f"layer spans cover {layer_self:.4f} s of {wall:.4f} s of traced operations")
    p50_plain = statistics.median(plain.op_s)
    p50_traced = statistics.median(out.op_s)
    metrics["trace.overhead"] = p50_traced / p50_plain - 1.0

    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed})
    units = {name: per_layer_unit(name) for name in metrics}
    detail = {"ops_traced": len(tracer.counted_ops), "ops_compared": n,
              "layer_self_over_wall": layer_self / wall,
              "op_s_p50_untraced": p50_plain, "op_s_p50_traced": p50_traced,
              "trace_file": os.path.relpath(trace_path, ROOT), **out.extra}
    return metrics, units, out, checks, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description="sparsemim benchmark")
    ap.add_argument("--workload", required=True, choices=["desk_train", "paper_train", "reconstruct"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # One BLAS thread unless the caller chose otherwise: steps are bound by
    # Python and memory, not GEMM, and one thread is steadier on a shared
    # machine. Set before numpy loads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    if not os.path.isfile(os.path.join(SRC, "sparsemim", "__init__.py")):
        print(f"perfbench: no sparsemim sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        t0 = time.perf_counter()
        sys.path[:0] = [SRC, HERE]
        import workloads

        wl = workloads.WORKLOADS[args.workload]()
        wl.setup(args.seed, work)
        setup_s = time.perf_counter() - t0
        if args.trace:
            metrics, units, out, checks, detail = traced(wl, args)
        else:
            metrics, units, out, checks, detail = timed(wl, args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = out.failures + checks
    attempted = max(out.attempted, 1)
    detail.update(environment=environment(args.seed), workload=args.workload, trace=args.trace,
                  seconds=args.seconds, error_rate=len(failures) / attempted, failures=failures)
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
