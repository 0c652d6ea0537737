"""fusenet benchmark: one workload, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload chain8_lossy --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times whole passes over the workload's operations for
``--seconds`` seconds and reports the end-to-end metrics. With ``--trace 1``
it times passes with tracing off for half of ``--seconds``, then runs one
pass with timing spans around every layer boundary and reports per-layer
metrics; the spans are written to ``perfbench/out/``. Either way every
output is checked against closed forms, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md``.
"""

import os

# One thread: no BLAS or OpenMP pool may start when numpy is imported, which
# happens here, before set-up is timed (spans imports it; fusenet needs it).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import heapq
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib.metadata import version
from pathlib import Path
from typing import NamedTuple, Optional

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15
PERCENTILES = (50, 90)
REF_KERNEL_S = 1e-3


def host_kernel() -> float:
    """Wall seconds this host takes for a fixed pure-Python task.

    A shared host's speed can swing by 1.5x for minutes at a time, which no
    amount of work in one run averages out. So every timing is rescaled by
    the time of this task measured around it: a timed operation sits between
    two kernel runs and is multiplied by REF_KERNEL_S over their mean. Times
    then read as on a host where the kernel takes exactly REF_KERNEL_S. Like
    fusenet, the task is interpreter-bound: heap, dict and tuple work.
    """
    start = time.perf_counter()
    heap, counts = [], {}
    for i in range(600):
        heapq.heappush(heap, ((i * 7919) % 1009, i, (i, i + 1)))
        counts[i % 97] = counts.get(i % 97, 0) + 1
    total = 0
    while heap:
        key, _, pair = heapq.heappop(heap)
        total += pair[0] ^ key
    return time.perf_counter() - start


def percentile(sorted_values: list, q: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


class Op(NamedTuple):
    """One timed operation: its pass, key, wall seconds and work items done.

    ``error`` says why it failed; ``wrong`` marks a failure of a per-operation
    correctness check, as opposed to a raise or a missed deadline. ``host``
    is the mean host_kernel() time just before and just after it.
    """

    pass_index: int
    key: object
    seconds: float
    items: int
    error: Optional[str] = None
    wrong: bool = False
    host: float = REF_KERNEL_S


def run_op(wl, pass_index: int, key) -> Op:
    start = time.perf_counter()
    try:
        out = workloads.call_with_deadline(lambda: wl.run(key), wl.deadline_s)
    except workloads.DeadlineExceeded:
        seconds = time.perf_counter() - start
        return Op(pass_index, key, seconds, 0, f"{key}: missed the {wl.deadline_s} s deadline")
    except Exception:  # a raising operation is a failed one; keep measuring
        seconds = time.perf_counter() - start
        return Op(pass_index, key, seconds, 0, f"{key}: {traceback.format_exc()}")
    seconds = time.perf_counter() - start
    items, error = wl.accept(key, out)
    return Op(pass_index, key, seconds, items, error, error is not None)


def run_passes(wl, seconds: float, first_pass: int = 0, max_passes=None) -> list:
    """Whole passes over the workload until ``seconds`` of wall time have passed."""
    ops = []
    start = time.perf_counter()
    index = first_pass
    while True:
        gc.collect()
        before = host_kernel()
        for key in wl.pass_keys():
            op = run_op(wl, index, key)
            after = host_kernel()
            ops.append(op._replace(host=(before + after) / 2))
            before = after
        index += 1
        if time.perf_counter() - start >= seconds or index - first_pass == max_passes:
            return ops


def setup(wl) -> tuple:
    """Time set-up SETUP_REPEATS times: a fresh import, then the config step.

    Returns the host-rescaled import and config-step times of every repeat.
    """
    imports, configs = [], []
    for _ in range(SETUP_REPEATS):
        before = host_kernel()
        t0 = time.perf_counter()
        wl.load()
        t1 = time.perf_counter()
        wl.configure()
        t2 = time.perf_counter()
        scale = REF_KERNEL_S / ((before + host_kernel()) / 2)
        imports.append((t1 - t0) * scale)
        configs.append((t2 - t1) * scale)
    return imports, configs


def summarize_ops(ops: list, failed_keys, rescale: bool = True) -> dict:
    """Throughput per pass, latency percentiles and failures of timed operations.

    Times are host-rescaled (see host_kernel) unless ``rescale`` is false.
    """
    passes: dict = {}
    latencies = []
    failed = 0
    for op in ops:
        ok = op.error is None and op.key not in failed_keys
        failed += not ok
        seconds = op.seconds * REF_KERNEL_S / op.host if rescale else op.seconds
        latencies.append(seconds if ok else math.inf)
        busy, items = passes.get(op.pass_index, (0.0, 0))
        passes[op.pass_index] = (busy + seconds, items + (op.items if ok else 0))
    latencies.sort()
    return {
        "throughput": statistics.median(items / busy for busy, items in passes.values()),
        "pass_seconds": statistics.median(busy for busy, _ in passes.values()),
        "latencies": latencies,
        "passes": len(passes),
        "attempted": len(ops),
        "failed": failed,
    }


def unit_of(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_ratio", "fraction"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def traced_pass(wl, modules: dict, untraced_ops: list, configs: list, defects: list):
    """Run the config step and one pass under spans; return its ops and layer metrics."""
    tracer = Tracer()
    tracer.install(modules)
    before = wl.trace_counts()
    t0 = time.perf_counter()
    wl.configure()
    config_wall = time.perf_counter() - t0
    ops = run_passes(wl, 0.0, first_pass=untraced_ops[-1].pass_index + 1, max_passes=1)
    after = wl.trace_counts()
    # The untraced config step and pass, at the host speed of the traced pass.
    untraced = statistics.median(configs) + summarize_ops(untraced_ops, frozenset())["pass_seconds"]
    host = statistics.mean(op.host for op in ops)
    layer = tracer.layer_metrics(
        traced_wall=config_wall + sum(op.seconds for op in ops),
        untraced_wall=untraced * host / REF_KERNEL_S,
        cycles=sum(op.items for op in ops) if isinstance(wl, workloads.Chain) else 0,
        extra={
            **{k: after[k] - before[k] for k in after},
            "metrics.known_defect_failures": len(defects),
        },
    )
    return ops, layer, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fusenet" / "__init__.py").is_file():
        print(f"error: no fusenet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        imports, configs = setup(wl)
        import fusenet

        if not Path(fusenet.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"error: imported fusenet from {fusenet.__file__}", file=sys.stderr)
            return 2
        modules = wl.modules()
        wl.prepare()
        ops = run_passes(wl, args.seconds / 2 if args.trace else args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        defects = wl.probe()
        traced_ops = []
        if args.trace:
            traced_ops, layer, tracer = traced_pass(wl, modules, ops, configs, defects)
            spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.tsv.gz"
            tracer.write(spans_path)
        checks = wl.checks()
    finally:
        wl.close()

    failed_keys = set()
    for check in checks:
        if not check.ok:
            failed_keys |= check.keys if check.keys is not None else {op.key for op in ops}
    stats = summarize_ops(ops, failed_keys)
    wall = summarize_ops(ops, failed_keys, rescale=False)
    attempted = len(ops) + len(traced_ops)
    failed = sum(1 for op in ops + traced_ops if op.error or op.key in failed_keys)
    correct = all(c.ok for c in checks) and not any(op.wrong for op in ops + traced_ops)
    lat = stats["latencies"]

    def lat_ms(latencies, q):
        # A failed operation misses every latency limit; a percentile that
        # lands on one reads as the deadline it missed.
        return min(percentile(latencies, q), wl.deadline_s) * 1e3

    end_to_end = {
        "throughput_per_s": (stats["throughput"], "1/s"),
        "op_p50_ms": (lat_ms(lat, 50), "ms"),
        "op_p90_ms": (lat_ms(lat, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(i + c for i, c in zip(imports, configs)), "s"),
    }

    env = environment()
    digest = wl.digest()
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"host_kernel_ms {statistics.median(op.host for op in ops) * 1e3:.4g} "
          f"(timings rescaled to {REF_KERNEL_S * 1e3:g} ms; raw wall time in brackets)")
    item, prefix = ("queries", "query") if wl.name == "plan_grid" else ("cycles", "call")
    print(f"{item}_per_s {stats['throughput']:.6g} 1/s [{wall['throughput']:.6g}]  "
          f"(median of {stats['passes']} passes)")
    for q in PERCENTILES:
        short = q > 50 and len(lat) * (100 - q) / 100 < 10
        print(f"{prefix}_p{q}_ms {lat_ms(lat, q):.6g} ms [{lat_ms(wall['latencies'], q):.6g}]  "
              f"({len(lat)} samples"
              + (", fewer than the 10 beyond it a tail percentile needs)" if short else ")"))
    print(f"failed_frac {failed / attempted:.6g}  ({failed} of {attempted})")
    for name in ("setup_s", "peak_rss_mb"):
        value, unit = end_to_end[name]
        print(f"{name} {value:.6g} {unit}")
    if digest:
        print(f"digest {digest}")
    for check in checks:
        print(f"check {check.name}: {'ok' if check.ok else 'FAILED'}: {check.detail}")
    for defect in defects:
        print(f"known defect: {defect}")
    for error in [op.error for op in ops + traced_ops if op.error][:3]:
        print(f"failed operation: {error}", file=sys.stderr)

    if args.trace:
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
        if tracer.missing:
            print("not traced (absent): " + ", ".join(tracer.missing))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        **result,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "digest": digest,
        "checks": [c[:3] for c in checks],
        "known_defects": defects,
        "samples": len(lat),
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
