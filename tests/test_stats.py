"""Density of class T, cross-checked against the direct classifier."""

import io
import random
import threading
from math import isqrt

import numpy as np
import pytest
import sympy
from test_constructions import triangle_witness_via_triples

from oddcycles import stats
from oddcycles.arith import STClass, classify
from oddcycles.stats import DensityRow, density_table, write_density_csv

UMAX = 5 * 10**7
PRIMES = list(sympy.primerange(3, isqrt(UMAX) + 1))


def sieve_block_by_division(u_lo: int, u_hi: int, primes) -> np.ndarray:
    """Reference sieve: divide every odd prime out of each u, tracking the
    exponent parity of the primes = 2 (mod 3); the survivor is 1 or one
    large prime."""
    us = np.arange(u_lo, u_hi, 2, dtype=np.int64)
    res = us.copy()
    is_t = np.zeros(len(us), dtype=bool)
    for p in primes:
        p = int(p)
        inv2 = (p + 1) // 2
        i0 = ((-u_lo % p) * inv2) % p
        idx = np.arange(i0, len(us), p)
        track = p % 3 == 2
        if track:
            parity = np.zeros(len(us), dtype=bool)
        sub = idx
        while len(sub):
            res[sub] //= p
            if track:
                parity[sub] ^= True
            sub = sub[res[sub] % p == 0]
        # T needs *some* prime = 2 (mod 3) at odd exponent, so odd-exponent
        # parity is accumulated per prime and OR-ed, never XOR-ed across primes
        if track:
            is_t |= parity
    # survivor > 1 is a single prime with exponent 1
    is_t |= (res > 1) & (res % 3 == 2)
    return is_t


def assert_blocks_agree(blocks, primes=PRIMES):
    for lo, hi in blocks:
        assert lo % 2 == 1 and hi <= UMAX + 1
        got = stats._sieve_block(lo, hi, primes)
        want = sieve_block_by_division(lo, hi, primes)
        assert got.dtype == bool and np.array_equal(got, want), (lo, hi)


class TestSieveBlock:
    """The division-free kernel against the division-based reference."""

    def test_seeded_random_blocks(self):
        rng = random.Random(7)
        blocks = []
        for _ in range(24):
            lo = rng.randrange(1, UMAX - (1 << 16)) | 1
            blocks.append((lo, lo + 2 * rng.randrange(1, 1 << 15)))
        assert_blocks_agree(blocks)

    def test_random_blocks_with_their_own_prime_bound(self):
        rng = random.Random(8)
        for _ in range(12):
            umax = rng.randrange(10, UMAX)
            primes = list(sympy.primerange(3, isqrt(umax) + 1))
            lo = rng.randrange(1, umax + 1) | 1
            hi = min(umax + 1, lo + 2 * rng.randrange(1, 1 << 14))
            assert_blocks_agree([(lo, hi)], primes)

    @pytest.mark.parametrize(
        "power",
        [
            3**16, 5**11, 11**7, 17**6,
            7069**2, 7057**2, 7043**2, 7019**2,  # p just under sqrt(UMAX)
            367**3, 359**3, 353**3,  # p just under the cube root of UMAX
        ],
    )
    def test_blocks_at_high_prime_powers(self, power):
        assert_blocks_agree([
            (power, min(power + 2 * 4099, UMAX + 1)),  # starts at the power
            (power - 2 * 1000, power + 2 * 999),  # holds it inside
            (power - 2 * 4095, power + 1),  # ends at it
        ])

    def test_short_and_odd_length_blocks(self):
        starts = [1, 3, 9, 27, 25, 3**16, 5**11, 7043**2, UMAX - 7]
        # 1, 1, 2, 3, 4 and 1001 odd u per block
        spans = (1, 2, 3, 6, 7, 2001)
        blocks = [(lo, lo + span) for lo in starts for span in spans]
        assert_blocks_agree([(lo, min(hi, UMAX + 1)) for lo, hi in blocks])

    def test_every_block_at_block_size_4096(self, monkeypatch):
        umax, block = 3 * 10**5 + 17, 1 << 12
        primes = list(sympy.primerange(3, isqrt(umax) + 1))
        blocks = [
            (lo, min(lo + 2 * block, umax + 1)) for lo in range(1, umax + 1, 2 * block)
        ]
        assert_blocks_agree(blocks, primes)
        whole = density_table([2 * umax])
        monkeypatch.setattr(stats, "BLOCK", block)
        assert density_table([2 * umax]) == whole


class TestDensityTable:
    def test_hand_enumeration_n10(self):
        (row,) = density_table([10])
        assert row.t_count == 1  # T = {10}; S = {2, 6}
        assert row.g.numerator == 1 and row.g.denominator == 3

    def test_n2000(self):
        (row,) = density_table([2000])
        assert row.t_count == 303
        assert row.g_decimal == "0.6060"

    def test_multiple_checkpoints_single_pass(self):
        rows = density_table([10, 2000, 10**4])
        assert [r.n for r in rows] == [10, 2000, 10**4]
        assert rows[1].t_count == 303

    def test_monotone_counts(self):
        rows = density_table(list(range(100, 5000, 300)))
        counts = [r.t_count for r in rows]
        assert counts == sorted(counts)

    def test_agrees_with_direct_classifier(self):
        rows = density_table([10**4])
        direct = sum(1 for t in range(2, 10**4 + 1, 4) if classify(t) is STClass.T)
        assert rows[0].t_count == direct

    def test_cumulative_counts_match_classify_at_every_n(self, monkeypatch):
        limit = 2 * 10**4
        rows = density_table(list(range(2, limit + 1)))
        count, want = 0, []
        for n in range(2, limit + 1):
            count += n % 4 == 2 and classify(n) is STClass.T
            want.append(count)
        assert [r.t_count for r in rows] == want
        monkeypatch.setattr(stats, "BLOCK", 1 << 8)  # checkpoints across 20 blocks
        assert density_table(list(range(2, limit + 1))) == rows

    def test_agrees_with_triple_rule(self):
        # second independent classifier: S iff some a^2+b^2+c^2 = t has a+b = c
        limit = 2000
        rows = density_table([limit])
        via_triples = sum(
            1
            for t in range(2, limit + 1, 4)
            if triangle_witness_via_triples(t) is None
        )
        assert rows[0].t_count == via_triples

    def test_parallel_matches_sequential(self, monkeypatch):
        seq = density_table([10**5])
        monkeypatch.setattr(stats, "BLOCK", 1 << 12)
        par = density_table([10**5], workers=4)
        assert seq == par

    def test_failing_block_shuts_the_pool_down(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("block failed")

        monkeypatch.setattr(stats, "_sieve_block", fail)
        monkeypatch.setattr(stats, "BLOCK", 1 << 12)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="block failed"):
            density_table([10**5], workers=2)
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            density_table([10**5], workers=workers)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            density_table([100, 50])

    def test_rejects_too_large(self):
        with pytest.raises(ValueError):
            density_table([10**9])


class TestCsvOutput:
    def test_format(self):
        rows = density_table([10, 2000])
        buf = io.StringIO()
        write_density_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,t_count,g_exact_num,g_exact_den,g_decimal"
        assert lines[1] == "10,1,1,3,0.3333"
        assert lines[2] == "2000,303,303,500,0.6060"

    def test_fraction_is_reduced(self):
        row = DensityRow(n=2000, t_count=303, g=__import__("fractions").Fraction(303, 500))
        assert row.g.denominator == 500
