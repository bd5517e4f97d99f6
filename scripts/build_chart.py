#!/usr/bin/env python3
"""Build the C_3 chart over n = 2 (mod 4) and summarize the hard cases.

Writes the chart CSV and prints every entry above 5 (the values that need a
real search rather than a triangle or a short 5-cycle).
"""

import argparse
import csv
import sys
import time

from oddcycles.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=2000, help="exclusive upper bound")
    ap.add_argument("--out", default="chart.csv")
    args = ap.parse_args()

    t0 = time.perf_counter()
    code = cli_main(["table", "--max", str(args.max), "--out", args.out])
    if code != 0:
        return code
    elapsed = time.perf_counter() - t0

    with open(args.out) as fh:
        rows = [(int(r["n"]), int(r["c3"])) for r in csv.DictReader(fh)]
    hard = [(n, c3) for n, c3 in rows if c3 > 5]
    print(f"{len(rows)} entries written to {args.out} in {elapsed:.1f}s")
    print(f"entries with C_3 > 5: {len(hard)}")
    for n, c3 in hard:
        print(f"  C_3({n}) = {c3}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
