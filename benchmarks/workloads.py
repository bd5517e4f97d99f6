"""The benchmark's three workloads: inputs made from a seed, and one pass.

A pass is the unit job a user runs once (one chart, one set of single
values, one density table).  It times each operation through ``Ops``,
checks every output with ``checks`` and returns how many operations it
attempted, how many failed and how many values it completed.

Every call into the program goes through a module attribute looked up at
call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from pathlib import Path
from typing import Optional

import checks
from oddcycles import arith, cli, resolver, stats
from tracer import Tracer, patched

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "c3_chart_golden.csv"


class Ops:
    """Times of timed operations, and the tracer's current operation id.

    ``latencies`` are the process CPU seconds of each operation and
    ``walls`` their wall-clock seconds; see ``run.py`` for why the metrics
    use the first.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.tracer = tracer
        self.count = 0

    @contextlib.contextmanager
    def timed(self):
        self.count += 1
        if self.tracer is not None:
            self.tracer.op = self.count
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.latencies.append(time.process_time() - cpu_start)
            self.walls.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.op = None


def run_cli(argv: list[str]) -> tuple[Optional[int], str]:
    """cli.main with stdout captured; a raised exception gives code None."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        code = None
    return code, out.getvalue()


class Workload:
    """A workload made from a seed; ``run_pass`` is timed, ``warm_up`` runs
    once before it, untimed.  Both return (attempted, failed, values).

    ``TAIL`` is the latency percentile reported as the tail, fixed so that
    every run reports the same one.  A run takes passes until at least ten
    samples lie beyond it: two for chart and single, five for density.
    """

    TAIL: float

    def warm_up(self, ops: Ops) -> tuple[int, int, int]:
        return 0, 0, 0

    def run_pass(self, ops: Ops) -> tuple[int, int, int]:
        raise NotImplementedError


class Chart(Workload):
    """``run --range 2..1998`` as 2 shards, a resume of both, merge, verify.

    The paper's table: 500 values mixing triangles, small modified searches
    and MITM searches, with the store written and read.  Its inputs are
    fixed by the table, so the seed only picks which shard runs first.
    """

    RANGE = "2..1998"
    SHARDS = 2
    TAIL = 99

    def __init__(self, seed: int) -> None:
        lo, hi = map(int, self.RANGE.split(".."))
        self.golden = {t: v for t, v in checks.read_golden(GOLDEN).items() if lo <= t <= hi}
        self.order = random.Random(seed).sample(range(self.SHARDS), self.SHARDS)
        self.workdir: Optional[Path] = None

    def run_pass(self, ops: Ops) -> tuple[int, int, int]:
        files = [self.workdir / f"shard{k}.jsonl" for k in range(self.SHARDS)]
        merged = self.workdir / "merged.jsonl"
        for f in files + [merged]:
            f.unlink(missing_ok=True)
        n = len(self.golden)

        compute = cli.compute_C

        def timed_compute(*args, **kwargs):
            with ops.timed():
                return compute(*args, **kwargs)

        def run_shards() -> bool:
            return all(
                run_cli(["run", "--range", self.RANGE, "--shards", str(self.SHARDS),
                         "--shard-id", str(k), "--out", str(files[k])])[0] == 0
                for k in self.order
            )

        with patched({id(compute): timed_compute}):
            if not run_shards():
                return n, n, n
            written = [f.read_bytes() for f in files]
            resolved = ops.count
            if not run_shards() or ops.count != resolved:
                return n, n, n
        if [f.read_bytes() for f in files] != written:
            return n, n, n
        code, out = run_cli(["merge", *map(str, files), "--out", str(merged)])
        if code != 0 or not out.startswith(f"merged {n} records"):
            return n, n, n
        code, out = run_cli(["verify", "--in", str(merged)])
        if code != 0 or out.strip() != f"{n} records verified":
            return n, n, n
        with open(merged, encoding="utf-8") as fh:
            failed = checks.chart_failures(fh, self.golden)
        return n, len(failed), n


def _cycle_from_search_output(out: str) -> list[tuple[int, ...]]:
    for line in out.splitlines():
        if line.startswith("cycle: "):
            return [tuple(int(x) for x in v.strip("()").split(","))
                    for v in line[len("cycle: "):].split()]
    return []


class Single(Workload):
    """One value at a time: ``compute_C(3, t)`` at the anchors, then MITM n=5
    at t=999994 through the CLI; a seeded sample of class-T values is
    resolved and checked in the warm-up.

    Large numpy arrays and searches that stop at the first hit.  The timed
    passes cover the fixed anchor operations only: the sample's costs vary
    tenfold from one t to the next, so timing it would make every figure a
    property of the seed.
    """

    ANCHORS = (2062, 2542, 2566, 3634, 4558, 4678, 7282, 8710, 99994, 999994)
    SEARCH_T = 999994
    SAMPLE_RANGE = (1978, 10**5)
    SAMPLE_SIZE = 3
    TAIL = 50

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        lo, hi = self.SAMPLE_RANGE
        k = self.SAMPLE_SIZE
        # one value per log-spaced stratum
        self.sample = []
        for i in range(k):
            a = int(lo * (hi / lo) ** (i / k))
            b = int(lo * (hi / lo) ** ((i + 1) / k))
            while True:
                t = rng.randrange(a, b)
                t += (2 - t) % 4
                if lo < t < hi and checks.is_class_t(t):
                    break
            self.sample.append(t)

    def _resolve(self, ops: Ops, t: int) -> bool:
        try:
            with ops.timed():
                res = resolver.compute_C(3, t)
        except Exception:
            return False
        cert = res.certificate.vectors if res.certificate is not None else ()
        return res.value == 5 and checks.cycle_ok(t, cert, 5)

    def _search(self, ops: Ops) -> bool:
        with ops.timed():
            code, out = run_cli(["search", str(self.SEARCH_T), "--algo", "mitm",
                                 "--length", "5"])
        return code == 0 and checks.cycle_ok(
            self.SEARCH_T, _cycle_from_search_output(out), 5)

    def warm_up(self, ops: Ops) -> tuple[int, int, int]:
        """The sample, then the search, whose arrays are the workload's
        largest: the process's heap reaches its peak before timing starts."""
        ok = [self._resolve(ops, t) for t in self.sample] + [self._search(ops)]
        return len(ok), ok.count(False), len(ok)

    def run_pass(self, ops: Ops) -> tuple[int, int, int]:
        ok = [self._resolve(ops, t) for t in self.ANCHORS] + [self._search(ops)]
        return len(ok), ok.count(False), len(ok)


class Density(Workload):
    """``density_table([2000, 10^5, 10^6, 10^7, 10^8])``, then point checks.

    Only the sieve (and sympy.primerange) works here.  Each point check asks
    the sieve for the counts at t-4 and t, whose difference says whether t
    is in class T, and compares that with ``arith.classify``.  The points
    are drawn from one narrow band so that each costs about the same, and
    each sieves enough (~0.25 s) that short stalls of the machine barely
    move its latency.
    """

    CHECKPOINTS = (2000, 10**5, 10**6, 10**7, 10**8)
    POINT_BAND = (10**7, 11 * 10**6)
    POINTS = 8
    TAIL = 75

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        lo, hi = self.POINT_BAND
        width = (hi - lo) // self.POINTS
        self.points = []
        for i in range(self.POINTS):
            t = lo + i * width + rng.randrange(width)
            self.points.append(t + (2 - t) % 4)

    def run_pass(self, ops: Ops) -> tuple[int, int, int]:
        cps = list(self.CHECKPOINTS)
        failed = 0
        try:
            with ops.timed():
                rows = stats.density_table(cps)
            failed += checks.density_failures(rows, cps) > 0
        except Exception:
            failed += 1
        values = (cps[-1] + 2) // 4
        for t in self.points:
            try:
                with ops.timed():
                    rows = stats.density_table([t - 4, t])
                step = rows[1].t_count - rows[0].t_count
                in_t = arith.classify(t) is arith.STClass.T
                failed += step not in (0, 1) or (step == 1) != in_t
            except Exception:
                failed += 1
            values += (t + 2) // 4
        return 1 + len(self.points), failed, values

    def workers_times(self) -> tuple[dict[str, float], int]:
        """The full table at workers=1 and workers=2, back to back, and how
        many of the two gave wrong rows."""
        times, failed = {}, 0
        for w in (1, 2):
            start = time.perf_counter()
            rows = stats.density_table(list(self.CHECKPOINTS), workers=w)
            times[f"workers{w}_s"] = time.perf_counter() - start
            failed += checks.density_failures(rows, self.CHECKPOINTS) > 0
        return times, failed


WORKLOADS = {"chart": Chart, "single": Single, "density": Density}
