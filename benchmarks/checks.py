"""Output checks that use the benchmark's own arithmetic, not the program's.

A check returns the set (or count) of operations whose output is wrong, so
the caller can add it to the failed count of the run.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

# Class-T counts among t = 2 (mod 4), t <= n, taken from the paper's table.
DENSITY_COUNTS = {2000: 303, 100_000: 17_414, 1_000_000: 181_707}


def cycle_ok(t: int, vectors: Sequence[Sequence[int]], value: int) -> bool:
    """Odd length equal to value, every squared magnitude t, zero sum in Z^3."""
    if len(vectors) % 2 == 0 or len(vectors) != value:
        return False
    if any(len(v) != 3 or sum(x * x for x in v) != t for v in vectors):
        return False
    return all(sum(v[j] for v in vectors) == 0 for j in range(3))


def is_class_t(t: int) -> bool:
    """t = 2 (mod 4) is in class T when an odd prime p = 2 (mod 3) divides it
    to an odd power.  Trial division; meant for t below about 10^9."""
    n = t // 2
    p = 3
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2 == 1 and p % 3 == 2:
            return True
        p += 2
    return n > 1 and n % 3 == 2


def read_golden(path: Path) -> dict[int, int]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {int(row["n"]): int(row["c3"]) for row in csv.DictReader(fh)}


def chart_failures(lines: Iterable[str], golden: dict[int, int]) -> set[int]:
    """Values t of the golden chart whose record is missing, duplicated,
    differs from the golden value or carries a certificate that fails."""
    seen: dict[int, int] = {}
    bad: set[int] = set()
    for line in lines:
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            t, value, cert = rec["t"], rec["value"], rec["certificate"]
        except (ValueError, KeyError, TypeError):
            return set(golden)
        seen[t] = seen.get(t, 0) + 1
        if (
            rec.get("m") != 3
            or golden.get(t) != value
            or cert is None
            or not cycle_ok(t, cert, value)
        ):
            bad.add(t)
    bad.update(t for t in golden if seen.get(t) != 1)
    bad.update(t for t in seen if t not in golden)
    return bad


def density_failures(rows: Sequence, checkpoints: Sequence[int]) -> int:
    """Rows of one density_table call that are missing or inconsistent."""
    if [r.n for r in rows] != list(checkpoints):
        return len(checkpoints)
    bad = 0
    prev = 0
    for r in rows:
        denom = (r.n + 2) // 4
        if (
            r.g != Fraction(r.t_count, denom)
            or not prev <= r.t_count <= denom
            or DENSITY_COUNTS.get(r.n, r.t_count) != r.t_count
        ):
            bad += 1
        prev = r.t_count
    return bad
