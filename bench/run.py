"""offlang benchmark: one workload, one process, one client, one BLAS thread.

    python3 bench/run.py --workload train_short --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed. `--trace 0` prints every end-to-end metric
named in BENCHMARK.json; `--trace 1` wraps the calls into each module and
prints every per-layer metric, the per-layer self-time table and the
tracing overhead. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. A record of the run, and
the spans of a traced run, go to `.bench_runs/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_runs"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the per-path names that the generic end-to-end metrics stand for
UNITS = {"train.examples_per_s": "examples/s", "evaluate.examples_per_s": "examples/s",
         "predict.ms_p50": "ms", "predict.ms_p95": "ms"}


def blas_info() -> dict:
    """BLAS name, version and the thread count the loaded library reports."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def fix_allocator() -> bool:
    """Fix glibc malloc's mmap and trim thresholds for this process, so
    that freed memory stays in the heap and is reused by the next call.

    glibc moves both thresholds as a program frees large blocks. Under
    those moving thresholds a run of `infer` switched, at a point that
    differed between runs, from reusing the memory of the previous
    evaluate call (about 16k page faults a call) to handing it back to
    the kernel and faulting it in again (about 135k), and evaluate slowed
    from about 130 to about 90 tweets/s. Fixed thresholds make every call
    reuse the heap. Peak memory is still measured by `peak_rss_mib`.
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    # 32 MiB is the largest mmap threshold glibc accepts on 64-bit systems
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20)
                and libc.mallopt(m_trim_threshold, 1 << 30))


def environment(seed: int, malloc_fixed: bool) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "malloc_thresholds_fixed": malloc_fixed,
        "seed": seed,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "offlang" / "__init__.py").is_file():
        print(f"error: no offlang sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # before numpy is first imported, and only in this process's environment
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    malloc_fixed = fix_allocator()
    sys.path.insert(0, str(ROOT / "src"))
    import offlang
    import tracer
    import workloads

    if Path(offlang.__file__).resolve().parent != ROOT / "src" / "offlang":
        print(f"error: imported offlang from {offlang.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    env = environment(args.seed, malloc_fixed)
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            result = workloads.run_traced(workload, args.seed, workdir)
            values = workloads.layer_values(
                result, [m["name"] for m in spec["per_layer"]], workload.phases)
            layers, ops = result.pop("layers"), result.pop("ops")
            print(f"module spans, in {'+'.join(workload.phases)}, "
                  f"self time net of module children only:")
            for line in tracer.format_table(layers, workload.phases, result["units"],
                                            workload.unit):
                print(line)
            print("op spans, from the cycle with every op wrapped:")
            for line in tracer.format_table(ops, workload.phases, result["units"],
                                            workload.unit, prefix="autodiff.op."):
                print(line)
            print(f"tracing overhead: {result['untraced_cycle_s']:.3f} s untraced; "
                  f"{result['layers_cycle_s']:.3f} s with module spans "
                  f"({result['overhead_pct']:+.1f}%); {result['ops_cycle_s']:.3f} s "
                  f"with op spans too ({result['op_overhead_pct']:+.1f}%)")
            layers.write(OUT / f"{stem}.module-spans.json.gz")
            ops.write(OUT / f"{stem}.op-spans.json.gz")
            wanted = spec["per_layer"]
        else:
            result = workloads.run_untraced(workload, args.seed, args.seconds, workdir)
            values = result.pop("metrics")
            values["peak_rss_mib"] = peak_rss_mib()
            leftover = tracer.wrapped_targets()
            if leftover:
                raise RuntimeError(f"untraced run left wrappers on {leftover}")
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = result.pop("tally")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in result.get("path_metrics", {}).items():
        print(f"{name:<34} {value:>14.6g} {UNITS[name]}")
    if "samples" in result:
        print("samples " + json.dumps(result["samples"], sort_keys=True))
    if "loss_history" in result:
        print(f"train loss_history={result['loss_history']} "
              f"param_digest={result['param_digest']}")
    print(f"ops_failed_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    for note in tally.notes:
        print("failed: " + note)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.notes, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                      encoding="utf-8")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
