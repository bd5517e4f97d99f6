"""Arithmetic foundations, checked against independent brute-force oracles."""

import os
import random
import subprocess
import sys
from math import isqrt, prod
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcycles import arith
from oddcycles.arith import (
    MAX_INPUT,
    MAX_ROWS,
    STClass,
    Triple,
    classify,
    count_reps,
    enumerate_triples,
    factorize,
    four_square_decomposition,
    odd_primes,
    reduce_mod4,
)
from oddcycles.search import _key_base

SRC = Path(__file__).resolve().parents[1] / "src"

# 2**60 - 1 passes vector_set's key bound but has about 4.5*10**8 rows; run
# under a 2 GiB address-space limit, a missing row bound ends in MemoryError
ROW_BOUND_UNDER_2GIB = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from oddcycles.arith import enumerate_triples
from oddcycles.cli import main
from oddcycles.vectors import vector_set
for f in (vector_set, enumerate_triples):
    try:
        f(2**60 - 1)
    except ValueError:
        print(f.__name__, "ValueError")
print("vectors exit", main(["vectors", str(2**60 - 1)]))
"""


def squarefree_part(n: int) -> int:
    """Product of the primes dividing n to an odd power."""
    out = 1
    for p, e in factorize(n):
        if e % 2 == 1:
            out *= p
    return out


def trial_division(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def triples_oracle(z: int) -> list[Triple]:
    """Double loop over a, b; no integer-sqrt shortcut."""
    out = []
    for a in range(isqrt(z) + 1):
        for b in range(a, isqrt(z) + 1):
            rem = z - a * a - b * b
            if rem < b * b:
                break
            c = isqrt(rem)
            if c * c == rem:
                out.append(Triple(a, b, c))
    return out


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1) == ()

    @pytest.mark.parametrize(
        "n,expected",
        [(1978, ((2, 1), (23, 1), (43, 1))), (18, ((2, 1), (3, 2)))],
    )
    def test_known_values(self, n, expected):
        assert factorize(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_matches_trial_division(self, n):
        assert list(factorize(n)) == trial_division(n)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_reconstruction(self, n):
        assert prod(p**e for p, e in factorize(n)) == n


def sympy_factors(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(sympy.factorint(n).items()))


P31 = sympy.prevprime(2**31)  # 2^31 - 1
Q31 = sympy.prevprime(P31)
R31 = sympy.prevprime(Q31)
P_TOP = sympy.prevprime(isqrt(MAX_INPUT))  # the largest prime whose square fits


def test_odd_primes_match_sympy():
    primes = list(sympy.primerange(3, 5001))
    for limit in range(5001):
        assert odd_primes(limit) == [p for p in primes if p <= limit], limit


class TestFactorizeAgainstSympy:
    def test_seeded_values_of_every_bit_length(self):
        rng = random.Random(20261018)
        for bits in range(1, 64):
            for _ in range(20):
                n = rng.randrange(1 << (bits - 1), min(1 << bits, MAX_INPUT + 1))
                assert factorize(n) == sympy_factors(n), n

    @pytest.mark.parametrize("n", [
        P31 * Q31, Q31 * R31, P31 * R31,  # two primes just below 2^31
        P31 * P31, P_TOP * P_TOP, sympy.prevprime(P_TOP) ** 2,  # prime squares
        sympy.prevprime(2**21) ** 3,  # a prime cube
        3825123056546413051,  # a strong pseudoprime to every prime base up to 31
        2**63 - 1,
        MAX_INPUT - 24,  # 2^63 - 25 is prime
    ])
    def test_hard_inputs(self, n):
        assert factorize(n) == sympy_factors(n)

    def test_rejects_past_63_bits(self):
        with pytest.raises(ValueError, match="63-bit"):
            factorize(MAX_INPUT + 1)


class TestSquarefreePart:
    @pytest.mark.parametrize("n,expected", [(1, 1), (18, 2), (90, 10)])
    def test_known_values(self, n, expected):
        assert squarefree_part(n) == expected

    @given(st.integers(min_value=1, max_value=10**5))
    def test_cofactor_is_square(self, n):
        sf = squarefree_part(n)
        assert n % sf == 0
        q = n // sf
        assert isqrt(q) ** 2 == q
        assert squarefree_part(sf) == sf


class TestClassify:
    def test_s_members(self):
        for t in (2, 6, 14, 18, 26):
            assert classify(t) is STClass.S

    def test_t_members(self):
        for t in (10, 22, 30, 34, 46, 1978):
            assert classify(t) is STClass.T

    def test_rejects_wrong_residue(self):
        for t in (1, 4, 8, 12, 3):
            with pytest.raises(ValueError):
                classify(t)

    def test_agrees_with_direct_definition(self):
        for t in range(2, 2000, 4):
            sf = squarefree_part(t)
            direct = any(
                p % 3 == 2 for p, _ in factorize(sf) if p != 2
            )
            assert (classify(t) is STClass.T) == direct, t


def prime_near_2_30(residue: int, below: int = 2**30) -> int:
    """The largest prime below ``below`` that is = residue (mod 3)."""
    p = sympy.prevprime(below)
    while p % 3 != residue:
        p = sympy.prevprime(p)
    return p


# t = 2pq with p, q near 2^30: T exactly when p or q is = 2 (mod 3).  With
# both = 2, pq = 1 (mod 3), so a test of the cofactor mod 3 would say S.
LARGE_PAIRS = [
    pytest.param(prime_near_2_30(2), prime_near_2_30(1), "T", id="one_2_mod_3"),
    pytest.param(prime_near_2_30(1), prime_near_2_30(1, prime_near_2_30(1)), "S",
                 id="both_1_mod_3"),
    pytest.param(prime_near_2_30(2), prime_near_2_30(2, prime_near_2_30(2)), "T",
                 id="both_2_mod_3"),
    pytest.param(prime_near_2_30(2), prime_near_2_30(2), "S", id="square_2_mod_3"),
]


@pytest.mark.parametrize("p,q,expected", LARGE_PAIRS)
def test_classify_two_large_primes(p, q, expected):
    assert classify(2 * p * q) is STClass(expected)


class TestReduceMod4:
    @pytest.mark.parametrize("r,expected", [(10, (10, 0)), (40, (10, 1)), (352, (22, 2))])
    def test_known_values(self, r, expected):
        assert reduce_mod4(r) == expected

    @given(st.integers(min_value=1, max_value=10**9))
    def test_reconstruction(self, r):
        core, k = reduce_mod4(r)
        assert core * 4**k == r
        assert core % 4 != 0


def triples_loop(z: int) -> list[Triple]:
    """The pure-Python loop over a, then b, with an integer square root."""
    out: list[Triple] = []
    a = 0
    while 3 * a * a <= z:
        rem_a = z - a * a
        b = a
        while 2 * b * b <= rem_a:
            rem = rem_a - b * b
            c = isqrt(rem)
            if c * c == rem and c >= b:
                out.append(Triple(a, b, c))
            b += 1
        a += 1
    return out


def triples_up_to(limit: int) -> list[list[Triple]]:
    """The same loop for every z <= limit at once: c runs up from b and
    each triple is filed under its z, so each list is lexicographic."""
    out: list[list[Triple]] = [[] for _ in range(limit + 1)]
    a = 0
    while 3 * a * a <= limit:
        b = a
        while a * a + 2 * b * b <= limit:
            c = b
            while (z := a * a + b * b + c * c) <= limit:
                out[z].append(Triple(a, b, c))
                c += 1
            b += 1
        a += 1
    return out


GRID_CELLS = 1 << 18  # (a, b) cells per block of triples_grid


def triples_grid(z: int) -> list[Triple]:
    """The numpy scan of the (a, b) grid that enumerate_triples once was.

    Runs over the (a, b) grid in blocks of rows.  c is the square root of
    rem = z - a^2 - b^2 in floating point, corrected by one step either way
    in int64, so it is the exact integer square root and c^2 == rem is an
    exact test.
    """
    b = np.arange(isqrt(z // 2) + 1, dtype=np.int64)
    a_max = isqrt(z // 3)
    rows = max(1, GRID_CELLS // len(b))
    out: list[Triple] = []
    for a0 in range(0, a_max + 1, rows):
        a = np.arange(a0, min(a0 + rows, a_max + 1), dtype=np.int64)[:, None]
        rem = z - a * a - b * b
        ok = (b >= a) & (rem >= b * b)  # b <= c
        c = np.sqrt(np.maximum(rem, 0)).astype(np.int64)
        c -= c * c > rem
        c += (c + 1) * (c + 1) <= rem
        ok &= c * c == rem
        ai, bi = np.nonzero(ok)
        out += map(Triple, a[ai, 0].tolist(), b[bi].tolist(), c[ai, bi].tolist())
    return out


def prime_row(c: int, residue: int) -> int:
    """z = c^2 + q for the largest prime q = residue (mod 4) with 3c^2 >= z:
    the row of c is a prime above sqrt(z)."""
    q = sympy.prevprime(2 * c * c + 1)
    while q % 4 != residue:
        q = sympy.prevprime(q)
    assert q * q > c * c + q
    return c * c + q


SINGLE_ANCHORS = (2062, 2542, 2566, 3634, 4558, 4678, 7282, 8710, 99994, 999994)

# Values near the end of the trial-prime table, where enumerate_triples
# starts to sieve with odd_primes, or whose factorizations are unusual,
# each compared with triples_grid.
GRID_CASES = [
    # the trial-prime table ends at 1024
    1024**2 - 1, 1024**2, 1024**2 + 1, 1025**2,
    # every small odd prime divides z, so it marks rows along the one root 0
    2 * 3 * 5 * 7 * 11 * 13 * 17 * 19, 2 * 3**2 * 5**2 * 7**2 * 11**2,
    # perfect squares: a row with n = 0
    1, 4, 9, 10**6, 2187**2, 4321**2,
    # powers of 2 and 2q^2 with q = 3 (mod 4)
    2, 8, 2**20, 2**21, 2**23, 2 * 3**2, 2 * 7**2, 2 * 1019**2, 2 * 1031**2,
    # a prime = 1 (mod 4) to a high power
    2 * 5**10, 2 * 13**6 * 5**2,
    # a row whose cofactor is a prime above sqrt(z)
    prime_row(100, 1), prime_row(1000, 1), prime_row(1000, 3), prime_row(4099, 1),
    # seeded values in (10^6, 10^8)
    *random.Random(20261019).sample(range(10**6, 10**8), 5),
]


class TestEnumerateTriples:
    def test_1002(self):
        assert enumerate_triples(1002) == [
            Triple(4, 5, 31),
            Triple(4, 19, 25),
            Triple(7, 13, 28),
            Triple(11, 16, 25),
        ]

    def test_empty_for_7(self):
        assert enumerate_triples(7) == []

    def test_22(self):
        assert enumerate_triples(22) == [Triple(2, 3, 3)]

    @given(st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=150)
    def test_matches_double_loop_oracle(self, z):
        assert enumerate_triples(z) == triples_oracle(z)

    def test_small_range_exhaustive(self):
        for z in range(1, 500):
            assert enumerate_triples(z) == triples_oracle(z)

    def test_matches_loop_on_every_z_to_20000(self):
        for z, want in enumerate(triples_up_to(20000)):
            if z:
                got = enumerate_triples(z)
                assert got == want, z
                assert all(type(x) is int for tr in got for x in tr), z

    @pytest.mark.parametrize("z", SINGLE_ANCHORS)
    def test_matches_loop_at_single_anchors(self, z):
        assert enumerate_triples(z) == triples_loop(z)

    def test_rows_get_exactly_their_odd_primes_to_the_root(self, monkeypatch):
        calls = []
        add_row = arith._add_row

        def spy(out, n, c, primes):
            calls.append((n, c, list(primes)))
            add_row(out, n, c, primes)

        monkeypatch.setattr(arith, "_add_row", spy)
        rng = random.Random(20261020)
        decades = [rng.randrange(10**k, 10 ** (k + 1)) + 1 for k in range(3, 9)]
        for z in [*range(1, 2000), *decades, 10**10 + 2]:
            calls.clear()
            enumerate_triples(z)
            c_lo = isqrt((z - 1) // 3) + 1
            root = isqrt(z - c_lo * c_lo)
            rows = []
            for c in range(c_lo, isqrt(z) + 1):
                if (m := z - c * c) > 0:
                    while m % 2 == 0:
                        m //= 2
                    if m % 4 == 1:
                        rows.append(c)
            assert [c for _, c, _ in calls] == rows, z
            checked = calls if z < 10**10 else rng.sample(calls, 2000)
            for n, c, primes in checked:
                assert n == z - c * c
                want = [p for p, _ in factorize(n) if p != 2 and p <= root]
                assert primes == want, (z, c)

    @pytest.mark.parametrize("z", GRID_CASES)
    def test_matches_grid(self, z):
        assert enumerate_triples(z) == triples_grid(z)

    def test_sqrt_mod_matches_brute_force_below_1000(self):
        for p in odd_primes(1000):
            roots: list[list[int]] = [[] for _ in range(p)]
            for c in range(p):
                roots[c * c % p].append(c)
            for a in range(p):
                assert sorted(arith._sqrt_mod(a, p)) == roots[a], (a, p)

    @pytest.mark.parametrize("p", [65537, 786433, 998244353, 2**31 - 19, 2**31 - 1])
    def test_sqrt_mod_large_primes(self, p):
        # p - 1 has 2-power 2^16, 2^18, 2^23, 4 and 2: Tonelli-Shanks steps
        # longest on the first three
        rng = random.Random(p)
        for _ in range(200):
            x = rng.randrange(1, p)
            assert sorted(arith._sqrt_mod(x * x % p, p)) == sorted({x, p - x})
            a = rng.randrange(1, p)
            if pow(a, (p - 1) // 2, p) == p - 1:
                assert arith._sqrt_mod(a, p) == ()
            else:
                r, s = arith._sqrt_mod(a, p)
                assert r * r % p == a and r + s == p

    def test_prime_split(self):
        top = MAX_INPUT - 2  # the largest 63-bit prime = 1 (mod 4)
        while not sympy.isprime(top):
            top -= 4
        for p in [p for p in odd_primes(10**5) if p % 4 == 1] + [top]:
            x, y = arith._prime_split(p)
            assert x * x + y * y == p, p

    @pytest.mark.parametrize("z", [1, 22, 1002, 10**6, 10**6 + 1])
    def test_row_bound_is_inclusive(self, monkeypatch, z):
        rows = isqrt(z) - isqrt((z - 1) // 3)  # c from isqrt((z-1)/3) + 1 to isqrt(z)
        want = enumerate_triples(z)
        monkeypatch.setattr(arith, "MAX_ROWS", rows)
        assert enumerate_triples(z) == want
        monkeypatch.setattr(arith, "MAX_ROWS", rows - 1)
        with pytest.raises(ValueError, match=f"has {rows} rows, more than MAX_ROWS"):
            enumerate_triples(z)

    def test_row_bound_admits_every_t_the_five_cycle_key_takes(self):
        # the n = 5 key (span 3) takes t exactly while isqrt(t) <= 349525
        top = 349526**2 - 1
        _key_base(top, np.array([[isqrt(top), 0, 0]]), 3)
        with pytest.raises(ValueError):
            _key_base(top + 1, np.array([[isqrt(top + 1), 0, 0]]), 3)
        assert isqrt(top) - isqrt((top - 1) // 3) <= MAX_ROWS

    def test_row_bound_refuses_before_allocating(self):
        proc = subprocess.run(
            [sys.executable, "-c", ROW_BOUND_UNDER_2GIB],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines() == [
            "vector_set ValueError", "enumerate_triples ValueError", "vectors exit 2",
        ]
        assert "453816692 rows, more than MAX_ROWS = 524288" in proc.stderr


def counts_up_to(limit: int) -> np.ndarray:
    """P(z) for all z <= limit via one sweep over sorted (a, b, c)."""
    counts = np.zeros(limit + 1, dtype=np.int64)
    a = 0
    while 3 * a * a <= limit:
        b = a
        while a * a + 2 * b * b <= limit:
            cs = np.arange(b, isqrt(limit - a * a - b * b) + 1)
            np.add.at(counts, a * a + b * b + cs * cs, 1)
            b += 1
        a += 1
    return counts


class TestCountReps:
    @pytest.mark.parametrize(
        "z,expected",
        [(190, 1), (1002, 4), (1978, 3), (99994, 49), (999994, 126)],
    )
    def test_table_values(self, z, expected):
        assert count_reps(z) == expected

    def test_legendre_criterion_up_to_1e5(self):
        counts = counts_up_to(10**5)
        for z in range(1, 10**5 + 1):
            core = z
            while core % 4 == 0:
                core //= 4
            assert (counts[z] == 0) == (core % 8 == 7), z

    def test_counts_sweep_agrees_with_enumeration(self):
        counts = counts_up_to(3000)
        for z in range(1, 3001):
            assert counts[z] == count_reps(z), z

    @given(st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=60)
    def test_invariant_under_times_four(self, z):
        assert count_reps(z) == count_reps(4 * z)


def four_square_scan(x: int, x1: int = 0) -> tuple[int, int, int, int]:
    """four_square_decomposition as it was before the Legendre skip: every
    x1 level from ``x1`` on scanned, O(x) time when x - x1^2 is no sum of
    three squares."""
    while 4 * x1 * x1 <= x:
        r1 = x - x1 * x1
        x2 = x1
        while 3 * x2 * x2 <= r1:
            r2 = r1 - x2 * x2
            x3 = x2
            while 2 * x3 * x3 <= r2:
                r3 = r2 - x3 * x3
                x4 = isqrt(r3)
                if x4 * x4 == r3 and x4 >= x3:
                    return (x1, x2, x3, x4)
                x3 += 1
            x2 += 1
        x1 += 1
    raise AssertionError(f"no four-square decomposition found for {x}")


class TestFourSquares:
    def test_matches_scan_to_20000(self):
        for x in range(1, 20001):
            assert four_square_decomposition(x) == four_square_scan(x), x

    def test_matches_scan_where_three_squares_fail(self):
        # x = 4^a (8b + 7), whose x1 = 0 level the skip leaves out
        rng = random.Random(25)
        for _ in range(40):
            a = rng.randint(0, 4)
            x = 4**a * (8 * rng.randint(0, (10**5 // 4**a - 7) // 8) + 7)
            assert four_square_decomposition(x) == four_square_scan(x), x

    @pytest.mark.parametrize("x,expected", [(1, (0, 0, 0, 1)), (7, (1, 1, 1, 2))])
    def test_known_values(self, x, expected):
        assert four_square_decomposition(x) == expected

    def test_matches_scan_on_seeded_decades(self):
        # 10 x per decade from 10^4 to 10^9.  At x = 4^a (8b + 7) the scan's
        # x1 = 0 level takes O(x) steps to find nothing, as Legendre's theorem
        # says (the test above checks that below 10^5), so there it starts at 1
        rng = random.Random(30)
        for k in range(4, 9):
            for _ in range(10):
                x = rng.randrange(10**k, 10 ** (k + 1))
                x1 = 1 if reduce_mod4(x)[0] % 8 == 7 else 0
                assert four_square_decomposition(x) == four_square_scan(x, x1), x

    @pytest.mark.parametrize(
        "x,expected",
        [
            # each checked once against an O(sqrt x)-per-level scan with the
            # Legendre skip, too slow for the suite (about 6 minutes at 2^60 - 1)
            (10**14 + 3, (0, 7, 833265, 9965223)),
            (2**60 - 1, (1, 3, 364889, 1073741762)),
            (2**62 - 1, (1, 1, 337817755, 2120746374)),
        ],
    )
    def test_large_values_pinned(self, x, expected):
        assert four_square_decomposition(x) == expected

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=100)
    def test_sums_correctly_and_sorted(self, x):
        quad = four_square_decomposition(x)
        assert sum(v * v for v in quad) == x
        assert list(quad) == sorted(quad)
        assert quad[0] >= 0

    def test_lexicographically_least(self):
        # exhaustive cross-check on a small value with several representations
        x = 310
        best = None
        for a in range(isqrt(x) + 1):
            for b in range(a, isqrt(x) + 1):
                for c in range(b, isqrt(x) + 1):
                    rem = x - a * a - b * b - c * c
                    if rem < 0:
                        break
                    d = isqrt(rem)
                    if d * d == rem and d >= c:
                        cand = (a, b, c, d)
                        if best is None or cand < best:
                            best = cand
        assert four_square_decomposition(x) == best
