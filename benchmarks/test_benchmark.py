"""Tests of the benchmark itself: its checks catch wrong outputs, a run
without the program's sources fails, and tier-1 collection is unchanged.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oddcycles import arith, resolver, stats  # noqa: E402
from tracer import Tracer  # noqa: E402

TIER1_TESTS = 182


class SmallChart(workloads.Chart):
    RANGE = "2..98"


class SmallSingle(workloads.Single):
    ANCHORS = (2062,)
    SEARCH_T = 2062
    SAMPLE_SIZE = 1


class SmallDensity(workloads.Density):
    CHECKPOINTS = (2000, 10**5)
    POINTS = 2


def failed_frac(wl) -> float:
    """Over the warm-up and one pass, as a run counts them."""
    a0, f0, _ = wl.warm_up(workloads.Ops())
    a1, f1, _ = wl.run_pass(workloads.Ops())
    return (f0 + f1) / (a0 + a1)


@pytest.fixture
def chart(tmp_path):
    wl = SmallChart(seed=1)
    wl.workdir = tmp_path
    return wl


def test_chart_pass_is_clean(chart):
    assert failed_frac(chart) == 0


def test_wrong_chart_row_raises_failed_frac(chart):
    chart.golden[10] = 7  # the program's 5 now disagrees with the table
    assert failed_frac(chart) == pytest.approx(1 / 25)


def test_tampered_certificate_raises_failed_frac(monkeypatch):
    real = resolver.compute_C

    def tampered(m, r, *args, **kwargs):
        res = real(m, r, *args, **kwargs)
        vecs = list(res.certificate.vectors)
        vecs[0] = tuple(-x for x in vecs[0])  # same magnitude, nonzero sum
        cert = dataclasses.replace(res.certificate, vectors=tuple(vecs))
        return dataclasses.replace(res, certificate=cert)

    wl = SmallSingle(seed=1)
    assert failed_frac(wl) == 0
    monkeypatch.setattr(resolver, "compute_C", tampered)
    # the anchor and the sampled value fail; the CLI search, run in the
    # warm-up and in the pass, does not
    assert failed_frac(wl) == pytest.approx(2 / 4)


def test_chart_failures_checks_each_certificate():
    golden = {22: 9}
    nine = [[2, -3, -3]] * 3 + [[-3, 2, -3]] + [[-3, 2, 3]] * 2 + [[-3, -3, 2]] + [[3, 3, 2]] * 2
    line = {"t": 22, "m": 3, "value": 9, "certificate": nine}
    assert checks.chart_failures([json.dumps(line)], golden) == set()
    line["certificate"] = [[3, -3, -3]] + nine[1:]
    assert checks.chart_failures([json.dumps(line)], golden) == {22}
    assert checks.chart_failures([], golden) == {22}


def test_wrong_density_count_raises_failed_frac(monkeypatch):
    real = stats.density_table

    def off_by_one(cps, *args, **kwargs):
        rows = real(cps, *args, **kwargs)
        return [dataclasses.replace(r, t_count=r.t_count + 1) if r.n == 10**5 else r
                for r in rows]

    wl = SmallDensity(seed=1)
    assert failed_frac(wl) == 0
    monkeypatch.setattr(stats, "density_table", off_by_one)
    assert failed_frac(wl) == pytest.approx(1 / 3)


def test_own_classifier_matches_program():
    for t in range(6, 20_000, 4):
        assert checks.is_class_t(t) == (arith.classify(t) is arith.STClass.T), t


def test_tail_needs_ten_samples_beyond():
    assert run.percentile([1.0] * 19, 50) is None
    assert run.percentile([float(i) for i in range(20)], 50) == 9.5
    assert run.percentile([1.0] * 901, 99) is None
    assert run.percentile([float(i) for i in range(1001)], 99) == pytest.approx(990)
    assert run.percentile([1.0] * 37, 75) is None
    assert run.percentile([float(i) for i in range(41)], 75) == 30


def test_each_workload_reaches_its_tail_in_few_passes():
    ops_per_pass = {"chart": 500, "single": len(workloads.Single.ANCHORS) + 1,
                    "density": 1 + workloads.Density.POINTS}
    needed = {"chart": 2, "single": 2, "density": 5}
    for name, wl in workloads.WORKLOADS.items():
        lat = [1.0] * (ops_per_pass[name] * needed[name])
        assert run.percentile(lat, wl.TAIL) is not None, name
        assert run.percentile(lat[: -ops_per_pass[name]], wl.TAIL) is None, name


def test_tracer_self_time_and_paths(chart):
    tracer = Tracer()
    with tracer.installed():
        chart.run_pass(workloads.Ops(tracer))
    layers = tracer.layer_metrics(passes=1)
    assert layers["resolver.compute_C.calls"][0] == 25
    assert (layers["resolver.path.Triangle"][0] + layers["resolver.path.Searched"][0]) == 25
    assert 0 <= layers["resolver.compute_C.self_s"][0] < layers["search.meet_in_middle.s"][0]
    assert layers["store.append.calls"][0] == 25
    # wrappers are removed on exit
    assert resolver.compute_C.__module__ == "oddcycles.resolver"
    assert not hasattr(resolver.compute_C, "__wrapped__")


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "chart", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tier1_collection_is_unchanged():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert f"{TIER1_TESTS} tests collected" in proc.stdout
