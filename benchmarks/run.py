"""Benchmark of the oddcycles program: one workload, one seed, one run.

    python3 benchmarks/run.py --workload chart|single|density --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  After an untimed warm-up, the run repeats whole passes of the
workload (see ``workloads.py``) in this one process, at the program's
default settings, while the next pass fits in S seconds from the start.

Times in the end-to-end metrics are process CPU seconds.  The program runs
in one thread at its default settings and its timed operations do not wait
on I/O, so on an idle machine their CPU time is their wall time.  On a
shared virtual machine the wall time also counts the spells in which the
host runs someone else on the virtual CPU, and those spells spread the
wall-clock figures of identical runs several times wider than their CPU
figures; CPU time leaves them out.  Each metric's wall-clock counterpart
is printed beside it and kept in the record.  Spans of the traced run are
wall-clock times.  The process keeps the memory it frees, for the reason
given in ``keep_freed_memory``.

It prints a summary, then as its last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The same object, with machine facts and
the details of each metric, goes to ``benchmarks/out/``, and a traced run
also writes its spans there.  The exit code is 0 only when every output
passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
MIN_TAIL_SAMPLES = 10


def percentile(xs: list[float], p: float) -> Optional[float]:
    """The p-th percentile, interpolated like statistics.median; None when
    fewer than ten samples lie beyond it."""
    xs = sorted(xs)
    pos = p / 100 * (len(xs) - 1)
    i = int(pos)
    if len(xs) - 1 - i < MIN_TAIL_SAMPLES:
        return None
    return xs[i] + (pos - i) * (xs[i + 1] - xs[i])


def fresh_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Import plus input generation inside a fresh interpreter, as (CPU,
    wall) seconds."""
    code = (
        "import sys, time\n"
        "t0, c0 = time.perf_counter(), time.process_time()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{workload!r}]({seed})\n"
        "print(time.process_time() - c0, time.perf_counter() - t0)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=ROOT)
    cpu, wall = map(float, out.stdout.strip().splitlines()[-1].split())
    return cpu, wall


def import_split_s() -> dict[str, float]:
    """``-X importtime`` of the program: sympy's share and the whole import."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}]; import oddcycles.cli"
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                         capture_output=True, text=True, check=True, cwd=ROOT)
    sympy_us = program_us = 0
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2][1:]
        if name.strip() == "sympy":
            sympy_us = cumulative
        elif name.startswith("oddcycles"):  # top level: no indent
            program_us += cumulative
    return {"import.sympy_s": sympy_us / 1e6, "import.oddcycles_s": program_us / 1e6}


def keep_freed_memory() -> bool:
    """Have glibc malloc serve every block from its heap and never hand freed
    memory back to the kernel.

    A virtual machine whose balloon reports free pages gives memory the
    process frees back to its host, and the next allocation of it costs
    host page faults that vary with the host's load.  ``single`` allocates
    and frees about 1.5 GB per operation, so without this its times follow
    the host rather than the program.  After the first pass the process
    reuses its own pages; the peak resident set still shows the memory the
    program needs.  Returns False where mallopt is not available.
    """
    import ctypes
    import ctypes.util

    M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        return bool(libc.mallopt(M_MMAP_MAX, 0)) and bool(
            libc.mallopt(M_TRIM_THRESHOLD, 2**31 - 1))
    except (OSError, AttributeError):
        return False


def machine_facts() -> dict:
    import numpy
    import sympy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else None
        commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "commit": commit,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("chart", "single", "density"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # the run, warm-up and set-up samples included, ends before this
    deadline = time.perf_counter() + args.seconds

    missing = [p for p in (SRC / "oddcycles" / "__init__.py",
                           ROOT / "tests" / "data" / "c3_chart_golden.csv")
               if not p.is_file()]
    if missing:
        print(f"benchmark: not a source checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    memory_kept = keep_freed_memory()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import oddcycles
    import workloads
    from tracer import Tracer

    if Path(oddcycles.__file__).resolve().parent != SRC / "oddcycles":
        print(f"benchmark: imported {oddcycles.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    ops = workloads.Ops(tracer)

    setup: list[tuple[float, float]] = []

    def take_setup(n: int) -> None:
        # spread over the run, so that one slow spell of the machine does
        # not set the median
        while not args.trace and n > 0 and len(setup) < SETUP_REPEATS:
            setup.append(fresh_setup_s(args.workload, args.seed))
            n -= 1

    # per pass: (traced, wall seconds, CPU seconds, values)
    passes: list[tuple[bool, float, float, int]] = []
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        wl.workdir = Path(work)
        take_setup(1)
        attempted, failed, _ = wl.warm_up(workloads.Ops())
        while True:
            # a traced run alternates untraced and traced passes; its first
            # pass is left out of the overhead
            untraced = sum(not p[0] for p in passes)
            traced = bool(args.trace) and untraced > len(passes) - untraced
            ops.tracer = tracer if traced else None
            w0, c0 = time.perf_counter(), time.process_time()
            if traced:
                with tracer.installed():
                    a, f, v = wl.run_pass(ops)
            else:
                a, f, v = wl.run_pass(ops)
            passes.append((traced, time.perf_counter() - w0, time.process_time() - c0, v))
            take_setup(1)
            attempted, failed = attempted + a, failed + f
            if args.trace:
                need_more = len(passes) < 3
            else:
                need_more = percentile(ops.latencies, wl.TAIL) is None
            next_end = time.perf_counter() + statistics.median(p[1] for p in passes)
            if not need_more and next_end > deadline:
                break
        take_setup(SETUP_REPEATS)

    summary: dict[str, str] = {}
    if args.trace:
        layers = tracer.layer_metrics(sum(p[0] for p in passes))
        splits = [import_split_s() for _ in range(IMPORTTIME_REPEATS)]
        for name in splits[0]:
            layers[name] = (statistics.median(d[name] for d in splits), "s")
        w = {"workers1_s": 0.0, "workers2_s": 0.0}
        if args.workload == "density":
            w, f = wl.workers_times()
            attempted, failed = attempted + 2, failed + f
        layers["stats.density_table.workers1_s"] = (w["workers1_s"], "s")
        layers["stats.density_table.workers2_s"] = (w["workers2_s"], "s")
        cpu_traced = statistics.median(p[2] for p in passes if p[0])
        cpu_untraced = statistics.median(p[2] for p in passes[1:] if not p[0])
        layers["trace.overhead_frac"] = (cpu_traced / cpu_untraced - 1, "1")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        n = len(passes)
        cpu_rate = statistics.median(p[3] / p[2] for p in passes)
        wall_rate = statistics.median(p[3] / p[1] for p in passes)
        lat, walls = ops.latencies, ops.walls
        metrics = {
            "setup_s": {"value": statistics.median(c for c, _ in setup), "unit": "s"},
            "values_per_s": {"value": cpu_rate, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "latency_tail_s": {"value": percentile(lat, wl.TAIL), "unit": "s"},
            "cpu_s": {"value": statistics.median(p[2] for p in passes), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
        summary = {
            "setup_s": f"median of {len(setup)} fresh interpreters; "
                       f"wall {statistics.median(w for _, w in setup):.4g} s",
            "values_per_s": f"median over {n} passes of values per CPU second; "
                            f"wall {wall_rate:.4g}/s",
            "latency_p50_s": f"median of {len(lat)} operations; "
                             f"wall {statistics.median(walls):.4g} s",
            "latency_tail_s": f"p{wl.TAIL:g} of {len(lat)} operations; "
                              f"wall {percentile(walls, wl.TAIL):.4g} s",
            "cpu_s": f"median over {n} passes, per pass; "
                     f"wall {statistics.median(p[1] for p in passes):.4g} s",
            "peak_rss_mb": "process peak resident set",
        }

    failed_frac = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "malloc_keeps_freed_memory": memory_kept,
        "passes": [{"traced": t, "wall_s": w, "cpu_s": c, "values": v}
                   for t, w, c, v in passes],
        "operations": {"cpu_s": ops.latencies, "wall_s": ops.walls},
        "failed_frac": failed_frac, "details": summary, **result,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  machine {json.dumps(record['machine'])}")
    for name, m in metrics.items():
        note = summary.get(name, "")
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_frac':40s} {failed_frac:.6g}  ({failed} of {attempted} operations)")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
