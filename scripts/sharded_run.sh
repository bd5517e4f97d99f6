#!/usr/bin/env bash
# Resolve C_3 over a range with several shard processes, then merge and
# verify.  Shards are independent and resumable: rerunning a shard skips
# every (m, t) already present in its record file.
#
# usage: sharded_run.sh [RANGE] [SHARDS] [OUTDIR]
# Needs oddcycles importable: installed, or PYTHONPATH=src in a checkout.
set -euo pipefail

RANGE="${1:-2..1998}"
SHARDS="${2:-4}"
OUTDIR="${3:-runs}"

mkdir -p "$OUTDIR"
pids=()
for ((sid = 0; sid < SHARDS; sid++)); do
    python3 -m oddcycles.cli run --range "$RANGE" --shards "$SHARDS" --shard-id "$sid" \
        --out "$OUTDIR/shard$sid.jsonl" &
    pids+=($!)
done
for pid in "${pids[@]}"; do
    wait "$pid"
done

python3 -m oddcycles.cli merge "$OUTDIR"/shard*.jsonl --out "$OUTDIR/merged.jsonl"
python3 -m oddcycles.cli verify --in "$OUTDIR/merged.jsonl"
