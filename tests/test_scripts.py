"""Smoke tests of the scripts in scripts/, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
