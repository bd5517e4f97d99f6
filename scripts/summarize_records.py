#!/usr/bin/env python3
"""Summarize a record file of `oddcycles run` as JSON, on stdout.

One pass validates each record as `store.verify` does and gathers:

- records: the number of records;
- counts: the number of records per (value, reason);
- above_5: every record with a value above 5, as (m, t, value), by t;
- sha256: the digest of the records, one `ResultRecord.to_json` line each,
  with elapsed_ms and shard_id set to 0, so that it does not depend on the
  machine's speed or on how many shards built the file;
- commit and command: what built the file, as given by --commit and
  --command (null when left out).

A bad record raises RecordValidationError before anything is printed.
Counts and above_5 of files over disjoint ranges add up to those of their
union; the digest is one per file.

usage: summarize_records.py FILE [--commit SHA] [--command CMD] > out.json
Needs oddcycles importable: installed, or PYTHONPATH=src in a checkout.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from collections import Counter

from oddcycles import store


def summarize(path: str) -> dict:
    counts: Counter = Counter()
    above_5 = []
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for rec in store._records(path, fh):
            counts[rec.value, rec.reason] += 1
            if rec.value is not None and rec.value > 5:
                above_5.append({"m": rec.m, "t": rec.t, "value": rec.value})
            rec = dataclasses.replace(rec, elapsed_ms=0, shard_id=0)
            digest.update((rec.to_json() + "\n").encode("utf-8"))
    return {
        "records": sum(counts.values()),
        "counts": [
            {"value": value, "reason": reason, "count": n}
            for (value, reason), n in sorted(
                counts.items(), key=lambda kv: (kv[0][0] is None, kv[0][0] or 0, kv[0][1])
            )
        ],
        "above_5": sorted(above_5, key=lambda r: (r["t"], r["m"])),
        "sha256": digest.hexdigest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("file", help="a record file written by `oddcycles run` or `merge`")
    ap.add_argument("--commit", help="the commit that built the file")
    ap.add_argument("--command", help="the command that built the file")
    args = ap.parse_args()

    summary = summarize(args.file)
    summary.update(commit=args.commit, command=args.command)
    sys.stdout.write(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
