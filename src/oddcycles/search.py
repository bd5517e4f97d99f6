"""Cycle-finding engines over V(t).

Three engines with a common outcome type:

* brute_force        -- enumerate multisets of odd size n in index order,
                        with component-wise partial-sum pruning;
* meet_in_middle     -- join of floor(n/2)-sums against ceil(n/2)-sums;
                        exhaustion-capable at sizes where brute force is
                        hopeless;
* modified_five_cycle -- 5-cycle search seeded by a closing pair of vectors
                        that agree in two coordinates and differ in sign in
                        the third, so the remaining three vectors must sum
                        to a doubled, one-coordinate-zeroed vector.

Both joins run on one kernel, _first_hit.  Each vector gets one int64
scalar key, linear in its coordinates, so a multiset's key is the sum of
its vectors' keys; _half_sums builds them in lexicographic index order.
The kernel sorts the left side stably and probes it chunk by chunk up to
the first hit.  The certificate is read back from the two row numbers
(_unrank), so it is the lexicographically first one the join admits.  The
engines run in one thread; parallel runs split a range of t into shards
(`oddcycles run --shards`).

Every cycle an engine returns is re-verified internally before it escapes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb, isqrt
from typing import Iterable, Optional, Sequence

import numpy as np

from .arith import STClass, classify
from .vectors import LatticeVector, VectorSet, magnitude_sq, vector_set

DEFAULT_N_MAX = 13
DEFAULT_MEMORY_BUDGET = 30_000_000  # partial sums held at once, per engine call


class SearchMemoryError(MemoryError):
    """Partial-sum lists for meet-in-the-middle would exceed the budget."""


@dataclass(frozen=True)
class OddCycle:
    """An odd-size multiset of squared-magnitude-t vectors summing to zero."""

    t: int
    vectors: tuple[LatticeVector, ...]

    @staticmethod
    def from_vectors(t: int, vecs: Sequence[LatticeVector]) -> "OddCycle":
        return OddCycle(t=t, vectors=tuple(sorted(tuple(v) for v in vecs)))

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class CycleDiagnostics:
    valid: bool
    reason: Optional[str] = None


def verify_cycle(c: OddCycle) -> CycleDiagnostics:
    """Check odd length, uniform squared magnitude t, and zero sum."""
    n = len(c.vectors)
    if n == 0 or n % 2 == 0:
        return CycleDiagnostics(False, f"length {n} is not odd")
    dims = {len(v) for v in c.vectors}
    if len(dims) != 1:
        return CycleDiagnostics(False, "mixed vector dimensions")
    for i, v in enumerate(c.vectors):
        if magnitude_sq(v) != c.t:
            return CycleDiagnostics(
                False, f"vector {i} has squared magnitude {magnitude_sq(v)} != {c.t}"
            )
    m = dims.pop()
    total = tuple(sum(v[j] for v in c.vectors) for j in range(m))
    if any(total):
        return CycleDiagnostics(False, f"sum is {total}, not zero")
    return CycleDiagnostics(True)


@dataclass(frozen=True)
class SearchOutcome:
    t: int
    length_tried: int
    found: Optional[OddCycle]
    exhausted: bool
    nodes_examined: int
    elapsed: float
    budget_exceeded: bool = False

    def __post_init__(self) -> None:
        if self.found is not None:
            diag = verify_cycle(self.found)
            assert diag.valid, f"engine produced an invalid cycle: {diag.reason}"


def _check_length(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"cycle length must be odd and >= 3, got {n}")


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def brute_force(
    vs: VectorSet,
    n: int,
    node_budget: Optional[int] = None,
) -> SearchOutcome:
    """Exhaustive multiset enumeration in non-decreasing index order.

    A prefix is cut off when a coordinate of its partial sum is larger in
    absolute value than the remaining vectors can cancel.  nodes_examined
    counts the index prefixes visited, cut ones included.
    """
    _check_length(n)
    start = time.perf_counter()
    vecs = vs.vectors
    nv = len(vecs)
    cmax = isqrt(vs.t)
    nodes = 0
    stack: list[LatticeVector] = []

    def rec(lo: int, depth: int, sx: int, sy: int, sz: int) -> Optional[bool]:
        # None = found (stack holds the cycle); False = budget blown
        nonlocal nodes
        remaining = n - depth
        if remaining == 0:
            return None if sx == 0 and sy == 0 and sz == 0 else True
        bound = remaining * cmax
        if abs(sx) > bound or abs(sy) > bound or abs(sz) > bound:
            return True
        for i in range(lo, nv):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return False
            v = vecs[i]
            stack.append(v)
            res = rec(i, depth + 1, sx + v[0], sy + v[1], sz + v[2])
            if res is None:
                return None
            stack.pop()
            if res is False:
                return False
        return True

    res = rec(0, 0, 0, 0, 0)
    elapsed = time.perf_counter() - start
    if res is None:
        cycle = OddCycle.from_vectors(vs.t, stack)
        return SearchOutcome(vs.t, n, cycle, False, nodes, elapsed)
    return SearchOutcome(vs.t, n, None, res, nodes, elapsed, not res)


# ---------------------------------------------------------------------------
# the join kernel
# ---------------------------------------------------------------------------


def _key_base(vs: VectorSet, span: int) -> int:
    """Base B of the scalar keys for sums of up to `span` vectors of vs.

    B = 2*offset + 1 with offset = span * (largest coordinate), so every
    such sum has coordinates in [-offset, offset]: balanced base-B digits,
    whose key (x*B + y)*B + z is unique and below 2**61 in absolute value.
    """
    offset = span * max(abs(x) for v in vs.vectors for x in v)
    base = 2 * offset + 1
    if base**3 > 2**62:
        raise ValueError(f"t={vs.t} too large for scalar-key search")
    return base


def _keys(vecs: Sequence[Sequence[int]], base: int) -> np.ndarray:
    """Scalar key (x*B + y)*B + z of each 3-vector.

    The key is linear: the key of a sum is the sum of the keys.
    """
    arr = np.asarray(vecs, dtype=np.int64).reshape(-1, 3)
    return (arr[:, 0] * base + arr[:, 1]) * base + arr[:, 2]


def _count_from(nv: int, h: int, i: int) -> int:
    """Number of h-multisets of indices in [0, nv) whose smallest is i."""
    return comb((nv - i) + h - 2, h - 1)


def _seed_chunks(nv: int, h: int, chunk_target: int) -> list[tuple[int, int]]:
    """Group seed indices so each chunk yields at most ~chunk_target sums."""
    chunks: list[tuple[int, int]] = []
    lo = 0
    acc = 0
    for i in range(nv):
        cnt = _count_from(nv, h, i)
        if acc and acc + cnt > chunk_target:
            chunks.append((lo, i))
            lo = i
            acc = 0
        acc += cnt
    if lo < nv:
        chunks.append((lo, nv))
    return chunks


def _half_sums(keys: np.ndarray, h: int, seed_lo: int, seed_hi: int) -> np.ndarray:
    """Keys of all h-multisets over keys whose smallest index is in [seed_lo, seed_hi).

    Rows come in lexicographic order of their index tuples, the order of
    itertools.combinations_with_replacement: built level by level, each row
    is extended by every index from its last one up.
    """
    nv = len(keys)
    sums = keys[seed_lo:seed_hi]
    last = np.arange(seed_lo, seed_hi, dtype=np.int64)
    for _ in range(h - 1):
        counts = nv - last
        rows = np.repeat(np.arange(len(last)), counts)
        # row r's new indices run from last[r] to nv - 1
        ks = np.arange(len(rows), dtype=np.int64)
        ks -= np.repeat(np.cumsum(counts) - counts - last, counts)
        sums = sums[rows]
        del rows  # freed before keys[ks] is gathered: a lower peak
        sums += keys[ks]
        last = ks
    return sums


def _unrank(nv: int, h: int, row: int) -> tuple[int, ...]:
    """Index tuple of row `row` of the h-multisets over [0, nv), in the row
    order of _half_sums."""
    idx = []
    lo = 0
    for left in range(h, 0, -1):
        while row >= (cnt := _count_from(nv, left, lo)):
            row -= cnt
            lo += 1
        idx.append(lo)
    return tuple(idx)


def _first_hit(
    left: np.ndarray, probes: Iterable[np.ndarray]
) -> tuple[Optional[tuple[int, int]], int]:
    """The first probe key, in probe order, that equals a left key.

    Returns ((probe row, left row), keys built) on a hit, else (None, keys
    built).  Probe rows count on across chunks; the left row is the first
    row holding that key (stable sort, leftmost search).  Keys built are
    the left side plus every probe chunk up to the one with the hit.
    """
    order = np.argsort(left, kind="stable")
    left = left[order]
    nodes = len(left)
    row0 = 0
    for keys in probes:
        nodes += len(keys)
        idx = np.searchsorted(left, keys)
        np.minimum(idx, len(left) - 1, out=idx)
        hit = left[idx] == keys
        if hit.any():
            j = int(np.argmax(hit))
            return (row0 + j, int(order[idx[j]])), nodes
        row0 += len(keys)
    return None, nodes


# ---------------------------------------------------------------------------
# meet in the middle
# ---------------------------------------------------------------------------


def meet_in_middle(
    vs: VectorSet,
    n: int,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> SearchOutcome:
    """Join of half-length partial sums; same contract as brute_force.

    The left side holds every floor(n/2)-multiset's key; the probes are the
    negated keys of the ceil(n/2)-multisets, in chunks of seeds.
    nodes_examined counts the keys built.
    """
    _check_length(n)
    start = time.perf_counter()
    nv = len(vs.vectors)
    if nv == 0:
        return SearchOutcome(vs.t, n, None, True, 0, time.perf_counter() - start)

    h1, h2 = n // 2, n - n // 2
    size1 = comb(nv + h1 - 1, h1)
    if size1 > memory_budget:
        raise SearchMemoryError(
            f"{size1} half-sums of size {h1} exceed budget {memory_budget}"
        )
    keys = _keys(vs.vectors, _key_base(vs, h2))
    neg = -keys
    chunk_target = min(4_000_000, max(memory_budget - size1, 500_000))
    probes = (
        _half_sums(neg, h2, lo, hi) for lo, hi in _seed_chunks(nv, h2, chunk_target)
    )
    hit, nodes = _first_hit(_half_sums(keys, h1, 0, nv), probes)

    elapsed = time.perf_counter() - start
    if hit is None:
        return SearchOutcome(vs.t, n, None, True, nodes, elapsed)
    row2, row1 = hit
    idx = _unrank(nv, h1, row1) + _unrank(nv, h2, row2)
    cycle = OddCycle.from_vectors(vs.t, [vs.vectors[i] for i in idx])
    return SearchOutcome(vs.t, n, cycle, False, nodes, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# modified 5-cycle search
# ---------------------------------------------------------------------------

_MODIFIED_CHUNK = 300_000  # probe keys per chunk


def _closing_pair(t: int, s: tuple[int, int, int]) -> tuple[LatticeVector, LatticeVector]:
    """Two magnitude-sqrt(t) vectors u1, u2 with u1 + u2 = -s.

    s is 2*v for some v in V(t) with coordinate k zeroed, so half = -s/2
    has |half|^2 = t - v_k^2 and is zero at every zero axis of s (axis k,
    and any axis where v is zero).  u1 and u2 are half with the first such
    axis set to +/-|v_k|.
    """
    axis = s.index(0)
    half = [-x // 2 for x in s]
    c = isqrt(t - sum(x * x for x in half))
    u1, u2 = list(half), list(half)
    u1[axis], u2[axis] = c, -c
    return tuple(u1), tuple(u2)


def modified_five_cycle(t: int) -> SearchOutcome:
    """5-cycle search over cycles closed by a sign-flip vector pair.

    The left side holds every 2-multiset's key; the probes are target - v_k
    for every closing target and vector v_k, in chunks of targets.
    nodes_examined counts the keys built.  Exhaustion here means no 5-cycle
    *of that special form* exists; it is not a proof that no 5-cycle exists
    at all.
    """
    if t % 4 != 2:
        raise ValueError(f"modified_five_cycle requires t = 2 (mod 4), got {t}")
    start = time.perf_counter()
    vs = vector_set(t)
    nv = len(vs.vectors)
    if nv == 0:
        return SearchOutcome(t, 5, None, True, 0, time.perf_counter() - start)

    base = _key_base(vs, 3)
    keys = _keys(vs.vectors, base)

    # Targets: every 2*v with one coordinate zeroed (the closing pair's sum,
    # negated; the target set is closed under negation).
    targets: set[tuple[int, int, int]] = set()
    for v in vs.vectors:
        for axis in range(3):
            d = [2 * x for x in v]
            d[axis] = 0
            if any(d):
                targets.add(tuple(d))
    tlist = sorted(targets)
    tkeys = _keys(tlist, base)

    # probe row i*nv + k is target_i - v_k; a hit means v_j + v_l = target_i - v_k
    per = max(1, _MODIFIED_CHUNK // nv)
    probes = (
        (tkeys[lo : lo + per, None] - keys[None, :]).ravel()
        for lo in range(0, len(tkeys), per)
    )
    hit, nodes = _first_hit(_half_sums(keys, 2, 0, nv), probes)

    elapsed = time.perf_counter() - start
    if hit is None:
        return SearchOutcome(t, 5, None, True, nodes, elapsed)
    row, pair_row = hit
    ti, k = divmod(row, nv)
    closing = _closing_pair(t, tlist[ti])
    idx = _unrank(nv, 2, pair_row) + (k,)
    cycle = OddCycle.from_vectors(t, [vs.vectors[i] for i in idx] + list(closing))
    return SearchOutcome(t, 5, cycle, False, nodes, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# minimum odd cycle ladder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinOddCycle:
    t: int
    n: Optional[int]
    certificate: Optional[OddCycle]
    unresolved: bool = False
    outcomes: tuple[SearchOutcome, ...] = field(default=())


def min_odd_cycle(t: int, n_max: int = DEFAULT_N_MAX) -> MinOddCycle:
    """Minimum odd cycle length for t in class T, with certificate.

    T membership puts the floor at 5, so a 5-cycle found by the modified
    engine settles the value without any exhaustion.  Otherwise odd lengths
    are exhausted in increasing order until a cycle appears or n_max is
    passed (unresolved).
    """
    if classify(t) is not STClass.T:
        raise ValueError(f"min_odd_cycle requires t in class T, got {t}")
    out = modified_five_cycle(t)
    outcomes: list[SearchOutcome] = [out]
    if out.found is not None:
        return MinOddCycle(t, 5, out.found, outcomes=tuple(outcomes))
    vs = vector_set(t)
    for n in range(5, n_max + 1, 2):
        out = meet_in_middle(vs, n)
        outcomes.append(out)
        if out.found is not None:
            return MinOddCycle(t, n, out.found, outcomes=tuple(outcomes))
        assert out.exhausted
    return MinOddCycle(t, None, None, unresolved=True, outcomes=tuple(outcomes))
