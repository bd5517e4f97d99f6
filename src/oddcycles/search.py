"""Cycle-finding engines over V(t).

Three engines, each ending in one SearchOutcome (length_tried, found,
nodes_examined, budget_exceeded): found, exhausted, or budget_exceeded:

* brute_force        -- enumerate multisets of odd size n in index order,
                        with component-wise partial-sum pruning;
* meet_in_middle     -- join of floor(n/2)-sums against ceil(n/2)-sums;
                        exhaustion-capable at sizes where brute force is
                        hopeless;
* modified_five_cycle -- 5-cycle search seeded by a closing pair of vectors
                        that agree in two coordinates and differ in sign in
                        the third, so the remaining three vectors must sum
                        to a doubled, one-coordinate-zeroed vector.

Both joins run on one kernel, _first_hit, over the orbits of the group B3
of the 48 signed permutations of the coordinates.  Each vector gets one
int64 scalar key, linear in its coordinates, so a multiset's key is the sum
of its vectors' keys; _half_sums builds them in lexicographic index order.
canon(w) sorts the absolute values of w's coordinates, and _canon turns a
sum's key into the key of canon(sum).

Why the quotient is sound.  V(t) is closed under B3, so the set W_h of
h-multiset sums over V(t) is too, and w is in W_h iff canon(w) is in
canon(W_h).  Every orbit meets R, the representatives 0 <= x <= y <= z,
so canon(W_h) = canon(R + W_{h-1}): the left side holds those keys, about
|R|/|V| = 1/48 of all h-multisets.  A zero-sum multiset can be moved by
some g in B3 so that it contains a vector of R, so without loss of
generality every cycle contains a representative: MITM probes
canon(r + Q) for r in R and Q an (h2-1)-multiset, and the modified engine
probes one closing target per orbit (orbit reduction, as in McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  A hit
says canon(left sum) = canon(probe sum); _signed_perm finds g in B3 with
g(left sum) = -(probe sum), and g(left vectors) plus the probe's vectors
is the certificate.  brute_force keeps no quotient: it is the independent
oracle.

Certify rounds.  A hit needs no more than a left side of canon(r + M) for
*some* representatives r: g(r + M) + (r' + Q) = 0 is a cycle of V(t)
whichever r it holds, so it settles length n as a hit of the full join
would (for class T, a 5-cycle proves C_3 = 5).  So meet_in_middle first
runs certify rounds: round k puts the k representatives at positions
i*|R|//k of R on the left, for k = _FIRST_LEFT, 2*_FIRST_LEFT, ... while
_ROUND_SHARE*k <= |R|, that is while a round's left side is at most a
quarter of the full join's.  So the rounds depend on t alone and none runs
while |R| < 32; the probes are the full join's, in its order.  The last round
is the full join, k = |R|, and only it can show that no cycle of length
n exists.  A certify round stops after probing as many keys as its left
side holds, which balances the two sides of a collision search as in van
Oorschot and Wiener, "Parallel collision search with cryptanalytic
applications", J. Cryptology 12, 1999.  With P = comb(|V| + h1 - 2,
h1 - 1) left keys per representative, round k builds at most 2kP keys,
and k <= |R|/_ROUND_SHARE = |R|/4, so the missed rounds together build
at most 2P(|R|/4 + |R|/8 + ...) <= |R|P keys, at most the full join's
left side.  A round whose left side is over MEMORY_BUDGET ends the call
budget_exceeded, counting the keys the missed rounds built, since every
later round is larger: a round hit can settle a value whose full left
side is over budget.

The kernel sorts the left side once and sets a filter of bool flags, at
least 8 and under 16 per left key, at each left key's multiplicative
hash (a Bloom filter with one hash function: Bloom, "Space/time
trade-offs in hash coding with allowable errors", CACM 13, 1970).  It
probes in chunks that start at _FIRST_CHUNK keys and double, so a hit
among the first probes costs little; the probe side's multiset sums are
built the same way, in chunks made as they are asked for.  A chunk is
hashed and gathered from the filter, and only the probes it lets
through, about 12% or fewer of those that miss, are looked up exactly
by searchsorted into the sorted left side; no probe chunk is sorted.
Keys use the power-of-two base of _key_base, so _canon reads digits with
shifts and masks; one int64 key holds n = 5 up to t of about 1.2*10**11.
The certificate is read from coords at the two rows' indices (_unrank).
nodes_examined counts, for both joins, the quotient keys built and
probed: the left side plus every probe chunk up to the one with the hit,
summed over every round meet_in_middle ran.  For brute_force it
counts index prefixes visited; the two are not comparable.  The engines
run in one thread; parallel runs split a range of t into shards
(`oddcycles run --shards`).  The limits are module constants read at
call time: N_MAX, the longest length min_odd_cycle tries, and
MEMORY_BUDGET, the most left-side keys one join round may build; a round
whose left side would pass it builds nothing and ends budget_exceeded.

Every cycle an engine returns is re-verified internally before it escapes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import comb, isqrt
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .arith import STClass, classify
from .vectors import LatticeVector, VectorSet, magnitude_sq, vector_set

N_MAX = 13  # longest cycle the ladder tries
MEMORY_BUDGET = 30_000_000  # left-side keys held at once, per engine call


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


_VALID = CycleDiagnostics(True)


def verify_cycle(c: OddCycle) -> CycleDiagnostics:
    """Check odd length, one dimension, uniform squared magnitude t, and zero
    sum, reporting the first that fails in that order."""
    vecs, t = c.vectors, c.t
    n = len(vecs)
    if n % 2 == 0:
        return CycleDiagnostics(False, f"length {n} is not odd")
    m, bad = len(vecs[0]), None
    for i, v in enumerate(vecs):
        if len(v) != m:
            return CycleDiagnostics(False, "mixed vector dimensions")
        if bad is None and sum(map(mul, v, v)) != t:
            bad = i
    if bad is not None:
        return CycleDiagnostics(
            False, f"vector {bad} has squared magnitude {magnitude_sq(vecs[bad])} != {t}"
        )
    total = tuple(map(sum, zip(*vecs)))
    if any(total):
        return CycleDiagnostics(False, f"sum is {total}, not zero")
    return _VALID


@dataclass(frozen=True)
class SearchOutcome:
    """How one engine call at length_tried ended: found, exhausted, or budget_exceeded."""

    length_tried: int
    found: Optional[OddCycle]
    nodes_examined: int
    budget_exceeded: bool = False

    def __post_init__(self) -> None:
        if self.found is not None:
            diag = verify_cycle(self.found)
            if not diag.valid:  # not an assert: it must hold under python -O too
                raise RuntimeError(f"engine produced an invalid cycle: {diag.reason}")

    @property
    def exhausted(self) -> bool:
        """The search ran to its end without finding a cycle."""
        return self.found is None and not self.budget_exceeded


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
    vecs, nv = vs.vectors, len(vs)
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
    if res is None:
        return SearchOutcome(n, OddCycle.from_vectors(vs.t, stack), nodes)
    return SearchOutcome(n, None, nodes, budget_exceeded=not res)


# ---------------------------------------------------------------------------
# the join kernel
# ---------------------------------------------------------------------------

_FIRST_CHUNK = 2048  # probe keys, and sums, in the first chunk; each next doubles
_LAST_CHUNK = 1 << 20  # ... up to this many probe keys
_SUMS_CHUNK = 1 << 20  # ... and this many probe-side sums
_CANON_BLOCK = 1 << 15  # keys _canon works on at once
_HASH = np.uint64(0x9E3779B97F4A7C15)  # odd, about 2**64 / golden ratio
_FIRST_LEFT = 8  # representatives on the left of meet_in_middle's first certify round
_ROUND_SHARE = 4  # ... and rounds run while their left side is <= 1/4 of the full join's


def _key_base(t: int, coords: np.ndarray, span: int) -> int:
    """Base B of the scalar keys for sums of up to `span` rows of coords,
    vectors of V(t).

    B = 2**bits with bits = (2*offset).bit_length() and offset = span *
    (largest coordinate), so every such sum has coordinates in [-offset,
    offset], inside [-B/2, B/2): signed base-B digits, whose key
    (x*B + y)*B + z is unique.  3*bits <= 63, so the key with every digit
    moved up by B/2 into [0, B) is at most 2**63 - 1, one int64.  At
    n = 5 (span 3, offset <= 3*sqrt(t)) that holds up to t of about
    1.2*10**11.
    """
    offset = span * int(np.abs(coords).max())
    bits = (2 * offset).bit_length()
    if 3 * bits > 63:
        raise ValueError(f"t={t} too large for scalar-key search")
    return 1 << bits


def _keys(vecs: Sequence[Sequence[int]], base: int) -> np.ndarray:
    """Scalar key (x*B + y)*B + z of each 3-vector.

    The key is linear: the key of a sum is the sum of the keys.
    """
    arr = np.asarray(vecs, dtype=np.int64).reshape(-1, 3)
    return (arr[:, 0] * base + arr[:, 1]) * base + arr[:, 2]


def _canon(keys: np.ndarray, base: int) -> np.ndarray:
    """Key of canon(w) for the sum w behind each key: |w|'s coordinates sorted.

    The keys' sums must have coordinates in [-B/2, B/2), as _key_base
    ensures; adding B/2 to every digit makes them nonnegative, so each is
    read with a shift and a mask.  keys is overwritten with the result,
    _CANON_BLOCK keys at a time, so the temporaries stay in cache.
    """
    bits = base.bit_length() - 1
    half = base >> 1
    for lo in range(0, len(keys), _CANON_BLOCK):
        x = keys[lo : lo + _CANON_BLOCK]
        x += half * (base * base + base + 1)
        z = x & (base - 1)
        y = x >> bits
        y &= base - 1
        x >>= 2 * bits
        for d in (x, y, z):
            d -= half
            np.abs(d, out=d)
        # a sorting network on three values, through one spare buffer
        s = np.minimum(x, y)
        np.maximum(x, y, out=y)
        s, x = x, s
        np.minimum(y, z, out=s)
        np.maximum(y, z, out=z)
        s, y = y, s
        np.minimum(x, y, out=s)
        np.maximum(x, y, out=y)
        # s, y, z hold the smallest, middle and largest; y is the slice of keys
        y <<= bits
        y |= z
        s <<= 2 * bits
        y |= s
    return keys


def _outer_canon(a: np.ndarray, b: np.ndarray, base: int) -> np.ndarray:
    """canon keys of a[i] + b[j], at row i*len(b) + j."""
    return _canon((a[:, None] + b[None, :]).ravel(), base)


def _count_from(nv: int, h: int, i: int) -> int:
    """Number of h-multisets of indices in [0, nv) whose smallest is i."""
    return comb((nv - i) + h - 2, h - 1)


def _seed_chunks(nv: int, h: int) -> Iterator[tuple[int, int]]:
    """Seed index ranges [lo, hi) of the h-multisets over [0, nv), in order.

    Chunk k holds the seeds whose multisets fit in a target of
    _FIRST_CHUNK * 2**k sums, capped at _SUMS_CHUNK; a seed whose multisets
    alone pass the target is a chunk by itself.  The chunks are made as
    they are asked for, so a hit in the first few builds little.
    """
    target = _FIRST_CHUNK
    lo = acc = 0
    for i in range(nv):
        cnt = _count_from(nv, h, i)
        if acc and acc + cnt > target:
            yield lo, i
            lo, acc = i, 0
            target = min(2 * target, _SUMS_CHUNK)
        acc += cnt
    if lo < nv:
        yield lo, nv


def _half_sums(keys: np.ndarray, h: int, seed_lo: int, seed_hi: int) -> np.ndarray:
    """Keys of all h-multisets over keys whose smallest index is in [seed_lo, seed_hi).

    Rows come in lexicographic order of their index tuples, the order of
    itertools.combinations_with_replacement: built level by level, each row
    is extended by every index from its last one up.  h = 0 gives the one
    empty multiset.
    """
    if h == 0:
        return np.zeros(1, dtype=np.int64)
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
    order of _half_sums.

    Each index is found by bisection: of the comb(nv - lo + k - 1, k)
    k-multisets whose smallest index is at least lo, all but
    comb(nv - i + k - 1, k) come before the first whose smallest is i.
    """
    idx = []
    lo = 0
    for k in range(h, 0, -1):
        above = comb(nv - lo + k - 1, k)

        def before(i: int) -> int:
            return above - comb(nv - i + k - 1, k)

        lo = bisect_right(range(nv), row, lo=lo, key=before) - 1
        row -= before(lo)
        idx.append(lo)
    return tuple(idx)


def _probe_chunks(
    sums: Iterable[np.ndarray], b: np.ndarray, base: int, cap: Optional[int] = None
) -> Iterator[np.ndarray]:
    """canon keys of s + b[j] for every s of every array in sums, in order.

    Row i*len(b) + j (counting on across arrays) is s_i + b[j].  Chunks
    start at _FIRST_CHUNK keys and double up to _LAST_CHUNK; each holds
    whole rows of s.  With a cap, the chunks stop before they hold more
    than cap keys in all.
    """
    size = _FIRST_CHUNK
    for arr in sums:
        lo = 0
        while lo < len(arr):
            rows = arr[lo : lo + max(1, size // len(b))]
            if cap is not None:
                rows = rows[: cap // len(b)]
                if len(rows) == 0:
                    return
                cap -= len(rows) * len(b)
            yield _outer_canon(rows, b, base)
            lo += len(rows)
            size = min(2 * size, _LAST_CHUNK)


def _hash(keys: np.ndarray, bits: int) -> np.ndarray:
    """Multiplicative hash of each int64 key into [0, 2**bits): the top
    bits of key * _HASH mod 2**64."""
    h = keys.view(np.uint64) * _HASH
    h >>= np.uint64(64 - bits)
    return h.view(np.int64)


def _first_hit(
    left: np.ndarray, probes: Iterable[np.ndarray]
) -> tuple[Optional[tuple[int, int]], int]:
    """The first probe key, in probe order, that equals a left key.

    Returns ((probe row, left row), keys built) on a hit, else (None, keys
    built).  Probe rows count on across chunks; the left row is the first
    row holding that key.  Keys built are the left side plus every probe
    chunk up to the one with the hit.

    A filter of 2**b flags, 2**b the least power of two >= 8*len(left),
    so at most 16 bytes per left key, has the flag at each left key's
    _hash set.  A probe whose flag is clear is in no left row; only the
    others, at most about 1 - exp(-1/8) = 12% of the probes that miss,
    are looked up exactly, by searchsorted into the sorted left side.
    """
    bits = max(1, (8 * len(left) - 1).bit_length())
    table = np.zeros(1 << bits, dtype=bool)
    for lo in range(0, len(left), _LAST_CHUNK):  # a bounded hash temporary
        table[_hash(left[lo : lo + _LAST_CHUNK], bits)] = True
    ordered = np.sort(left)
    nodes = len(left)
    row0 = 0
    for keys in probes:
        nodes += len(keys)
        rows = np.flatnonzero(table[_hash(keys, bits)])
        cand = keys[rows]
        idx = np.searchsorted(ordered, cand)
        np.minimum(idx, len(ordered) - 1, out=idx)
        rows = rows[ordered[idx] == cand]
        if len(rows):
            j = int(rows[0])
            return (row0 + j, int(np.argmax(left == keys[j]))), nodes
        row0 += len(keys)
    return None, nodes


def _signed_perm(
    src: Sequence[int], dst: Sequence[int]
) -> Callable[[Sequence[int]], LatticeVector]:
    """A signed permutation g of the coordinates with g(src) = dst.

    src and dst must have the same sorted absolute values: coordinates are
    paired in that order (ties and zeros in any order), and each pair's
    sign makes the values agree.
    """
    perm = [0, 0, 0]
    sign = [1, 1, 1]
    by_size = sorted(range(3), key=lambda i: abs(src[i]))
    for i, j in zip(by_size, sorted(range(3), key=lambda i: abs(dst[i]))):
        perm[j] = i
        sign[j] = -1 if (src[i] < 0) != (dst[j] < 0) else 1
    return lambda v: (sign[0] * v[perm[0]], sign[1] * v[perm[1]], sign[2] * v[perm[2]])


def _rebuild(t: int, left: Sequence[Sequence[int]], probe: Sequence[Sequence[int]]) -> OddCycle:
    """g(left) + probe, with g in B3 taking sum(left) to -sum(probe)."""
    g = _signed_perm(
        [sum(v[k] for v in left) for k in range(3)],
        [-sum(v[k] for v in probe) for k in range(3)],
    )
    return OddCycle.from_vectors(t, [g(v) for v in left] + list(probe))


# ---------------------------------------------------------------------------
# meet in the middle
# ---------------------------------------------------------------------------


def _join(
    keys: np.ndarray,
    left_reps: np.ndarray,
    reps: np.ndarray,
    h1: int,
    h2: int,
    base: int,
    cap: Optional[int],
) -> tuple[Optional[tuple[int, int]], int]:
    """_first_hit of the quotient join over V(t); keys are its vectors' keys.

    The left side holds canon(r + M) for every r in left_reps and
    (h1-1)-multiset M, at row (M's row)*len(left_reps) + r's position; the
    probes are canon(r + Q) for every r in reps and (h2-1)-multiset Q,
    at row (Q's row)*len(reps) + r's position, at most cap of them.
    left_reps and reps index V(t).
    """
    nv = len(keys)
    left = _outer_canon(_half_sums(keys, h1 - 1, 0, nv), keys[left_reps], base)
    sums = (_half_sums(keys, h2 - 1, lo, hi) for lo, hi in _seed_chunks(nv, h2 - 1))
    return _first_hit(left, _probe_chunks(sums, keys[reps], base, cap))


def meet_in_middle(vs: VectorSet, n: int) -> SearchOutcome:
    """Join of half-length partial sums on B3 orbits; same contract as brute_force.

    vs must be a whole V(t), closed under B3.  With h1 = floor(n/2) and
    h2 = ceil(n/2), the join runs in rounds until one has a hit: certify
    rounds with k = _FIRST_LEFT, 2*_FIRST_LEFT, ... representatives on the
    left while _ROUND_SHARE*k <= |R| (none while |R| < 32), each probing
    at most its left side's number of keys, then the full join with all
    of R on the left.  The missed rounds build at most as many keys as
    the full join's left side.  A round whose left side is over
    MEMORY_BUDGET ends the call budget_exceeded; only the full join can
    end exhausted.
    nodes_examined counts the keys built, summed over every round.
    """
    _check_length(n)
    nv = len(vs)
    if nv == 0:
        return SearchOutcome(n, None, 0)

    h1, h2 = n // 2, n - n // 2
    base = _key_base(vs.t, vs.coords, h2)
    keys = _keys(vs.coords, base)
    reps, nr = vs.reps, len(vs.reps)
    per_rep = comb(nv + h1 - 2, h1 - 1)  # left keys per representative
    rounds = []  # (k, probe cap); None marks the full join
    k = _FIRST_LEFT
    while _ROUND_SHARE * k <= nr:
        rounds.append((k, k * per_rep))
        k *= 2
    rounds.append((nr, None))
    nodes = 0
    for k, cap in rounds:
        if k * per_rep > MEMORY_BUDGET:
            return SearchOutcome(n, None, nodes, budget_exceeded=True)
        left_reps = reps[np.arange(k) * nr // k]
        hit, built = _join(keys, left_reps, reps, h1, h2, base, cap)
        nodes += built
        if hit is None:
            continue
        (row2, j), (row1, i) = divmod(hit[0], nr), divmod(hit[1], k)
        left = [left_reps[i], *_unrank(nv, h1 - 1, row1)]
        vecs = vs.coords[left + [reps[j], *_unrank(nv, h2 - 1, row2)]].tolist()
        cycle = _rebuild(vs.t, vecs[:h1], vecs[h1:])
        return SearchOutcome(n, cycle, nodes)
    return SearchOutcome(n, None, nodes)


# ---------------------------------------------------------------------------
# modified 5-cycle search
# ---------------------------------------------------------------------------


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

    A closing target is 2*v with one coordinate zeroed, v in V(t): the
    negated sum of a closing pair.  Targets come one per B3 orbit, as
    canon(2*r with a coordinate zeroed) for r in R.  The left side holds
    canon(r + v) for r in R and v in V(t); the probes are canon(s - v_k)
    for every target s and vector v_k.  nodes_examined counts the keys
    built.  A left side of |R|*|V| keys over MEMORY_BUDGET is not built:
    the call ends budget_exceeded with 0 nodes.  Exhaustion here means
    no 5-cycle *of that special form* exists; it is not a proof that no
    5-cycle exists at all.
    """
    if t % 4 != 2:
        raise ValueError(f"modified_five_cycle requires t = 2 (mod 4), got {t}")
    vs = vector_set(t)
    nv = len(vs)  # > 0: t = 2 (mod 4) is never 4^a (8b + 7), so V(t) is not empty
    if len(vs.reps) * nv > MEMORY_BUDGET:
        return SearchOutcome(5, None, 0, budget_exceeded=True)

    base = _key_base(t, vs.coords, 3)
    keys = _keys(vs.coords, base)
    reps = vs.reps
    # canon(2*r with a coordinate zeroed), r = (a, b, c) in R: (0, 2b, 2c),
    # (0, 2a, 2c) or (0, 2a, 2b), but never (0, 0, 0)
    doubled = (2 * vs.coords[reps]).tolist()
    targets = {(0, r[i], r[j]) for r in doubled for i, j in ((1, 2), (0, 2), (0, 1))}
    tlist = sorted(targets - {(0, 0, 0)})

    left = _outer_canon(keys, keys[reps], base)
    probes = _probe_chunks([_keys(tlist, base)], -keys, base)
    hit, nodes = _first_hit(left, probes)

    if hit is None:
        return SearchOutcome(5, None, nodes)
    (ti, k), (m, i) = divmod(hit[0], nv), divmod(hit[1], len(reps))
    a, b, c = vs.coords[[reps[i], m, k]].tolist()
    cycle = _rebuild(t, [a, b], [c, *_closing_pair(t, tlist[ti])])
    return SearchOutcome(5, cycle, nodes)


# ---------------------------------------------------------------------------
# minimum odd cycle ladder
# ---------------------------------------------------------------------------


def min_odd_cycle(t: int) -> tuple[SearchOutcome, ...]:
    """The meet_in_middle outcomes at odd lengths 5, 7, ... for t in class T.

    T membership puts the floor at 5, so the ladder runs until an outcome
    is not exhausted or N_MAX is passed; V(t) is built once.  The last
    outcome's found is the minimum odd cycle, its certificate; None means
    unresolved, either every length up to N_MAX exhausted or the last
    length budget_exceeded.  A t outside class T raises ValueError; for
    compute_C, which has classified t already, the check is a hit in
    classify's cache.
    """
    if classify(t) is not STClass.T:
        raise ValueError(f"min_odd_cycle requires t in class T, got {t}")
    vs = vector_set(t)
    outcomes: list[SearchOutcome] = []
    for n in range(5, N_MAX + 1, 2):
        outcomes.append(meet_in_middle(vs, n))
        if not outcomes[-1].exhausted:
            break
    return tuple(outcomes)
