"""Smoke tests of the scripts in scripts/, run as a user would run them."""

import csv
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from oddcycles.cli import main as cli_main
from oddcycles.stats import density_table

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def test_sharded_run_from_source_checkout(tmp_path):
    # the script's python3 is the interpreter running this suite
    path = os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PATH=path)
    proc = subprocess.run(
        ["bash", str(ROOT / "scripts" / "sharded_run.sh"), "2..98", "2", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "merged 25 records" in proc.stdout
    assert "25 records verified" in proc.stdout


def test_build_chart_from_source_checkout(tmp_path):
    out = tmp_path / "chart.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "build_chart.py"),
         "--max", "200", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"50 entries written to {out}" in proc.stdout
    assert "entries with C_3 > 5: 6" in proc.stdout
    assert "C_3(58) = 11" in proc.stdout
    assert len(out.read_text().splitlines()) == 1 + 50


def run_summarize(path, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "summarize_records.py"), str(path), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def summarize(path, *args):
    proc = run_summarize(path, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def golden_above_5():
    with open(DATA / "c3_chart_golden.csv") as fh:
        return [(int(r["n"]), int(r["c3"])) for r in csv.DictReader(fh) if int(r["c3"]) > 5]


def counts(summary):
    return Counter({(c["value"], c["reason"]): c["count"] for c in summary["counts"]})


def above_5(summary):
    return [(r["t"], r["value"]) for r in summary["above_5"]]


class TestSummarizeRecords:
    def test_sharded_chart_summary(self, tmp_path, capsys):
        shards = [str(tmp_path / f"s{sid}.jsonl") for sid in range(2)]
        for sid, shard in enumerate(shards):
            assert cli_main([
                "run", "--range", "2..1998", "--shards", "2", "--shard-id", str(sid),
                "--out", shard,
            ]) == 0
        merged = tmp_path / "merged.jsonl"
        assert cli_main(["merge", *shards, "--out", str(merged)]) == 0
        capsys.readouterr()

        whole = summarize(merged, "--commit", "abc123", "--command", "run 2..1998")
        assert whole["records"] == 500
        expected = Counter({(3, "Triangle"): 197, (5, "Searched"): 287})
        expected.update((v, "Searched") for _, v in golden_above_5())
        assert counts(whole) == expected
        assert above_5(whole) == golden_above_5()
        # the single-shard run file's digest: shard_id is zeroed
        assert whole["sha256"] == (DATA / "run_2_1998.sha256").read_text().strip()
        assert (whole["commit"], whole["command"]) == ("abc123", "run 2..1998")

        # summaries of disjoint ranges add up to the summary of their union
        lines = merged.read_text().splitlines(keepends=True)
        low, high = tmp_path / "low.jsonl", tmp_path / "high.jsonl"
        low.write_text("".join(line for line in lines if json.loads(line)["t"] < 1000))
        high.write_text("".join(line for line in lines if json.loads(line)["t"] > 1000))
        parts = [summarize(low), summarize(high)]
        assert counts(parts[0]) + counts(parts[1]) == counts(whole)
        assert above_5(parts[0]) + above_5(parts[1]) == above_5(whole)
        assert parts[0]["commit"] is None

    def test_bad_record_prints_no_summary(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        assert cli_main(["run", "--range", "2..30", "--out", str(path)]) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace('"value":', '"value":1')
        path.write_text("".join(lines))
        proc = run_summarize(path)
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert f"{path}:4" in proc.stderr

    def test_committed_summary_to_a_million(self):
        summary = json.loads((DATA / "c3_summary_2_999999.json").read_text())
        by_reason = Counter()
        for (_, reason), n in counts(summary).items():
            by_reason[reason] += n
        assert summary["records"] == len(range(2, 10**6, 4))
        # every class-T t is searched, and none is left unresolved
        assert by_reason["Searched"] == density_table([10**6])[0].t_count == 181707
        assert by_reason["Triangle"] + by_reason["Searched"] == summary["records"]
        # the values above 5 are the chart's: none lies past 1998
        assert above_5(summary) == golden_above_5()
