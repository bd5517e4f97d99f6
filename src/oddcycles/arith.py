"""Integer arithmetic foundations.

Factorization, three- and four-square decompositions, and the S/T
classifier for integers congruent to 2 mod 4.  Everything here is exact
integer arithmetic; the one floating-point square root, in
enumerate_triples, is corrected to the exact integer root.

factorize works in three stages on a 63-bit input:

- trial division by 2 and by the odd primes below 1024; a cofactor left
  below 1024^2 then has no factor to split and is 1 or prime;
- a Miller-Rabin test with the twelve prime bases 2, 3, ..., 37, which is
  deterministic for n < 3.3 * 10^24 and so exact here;
- Pollard's rho (Pollard 1975) with Brent's cycle finding and batched
  gcds (Brent 1980) on each composite cofactor, which takes about
  sqrt(p) steps to split off its least prime factor p.
"""

from __future__ import annotations

import enum
from collections import Counter
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

# Inputs whose intermediate squares could leave 64-bit signed range are
# rejected up front rather than silently promoted to bignums.
MAX_INPUT = 2**63 - 1


class Triple(NamedTuple):
    """Canonical representation a <= b <= c of z = a^2 + b^2 + c^2."""

    a: int
    b: int
    c: int

    @property
    def value(self) -> int:
        return self.a * self.a + self.b * self.b + self.c * self.c


class STClass(enum.Enum):
    S = "S"
    T = "T"


def _check_positive(n: int, name: str = "n") -> None:
    if n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n}")
    if n > MAX_INPUT:
        raise ValueError(f"{name} exceeds 63-bit range: {n}")


_TRIAL_LIMIT = 1024
_TRIAL_PRIMES = tuple(
    p for p in range(3, _TRIAL_LIMIT, 2) if all(p % d for d in range(3, isqrt(p) + 1, 2))
)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive 63-bit integer into (prime, exponent), primes increasing."""
    _check_positive(n)
    factors: Counter[int] = Counter()
    twos = (n & -n).bit_length() - 1
    if twos:
        factors[2] = twos
        n >>= twos
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            factors[p] += 1
    # a cofactor with no prime factor below the limit is prime below its square
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT:
        if n > 1:
            factors[n] += 1
    else:
        _split(n, factors)
    return tuple(sorted(factors.items()))


def _split(n: int, factors: Counter[int]) -> None:
    """Add the prime factors of odd n > 1 to ``factors``."""
    if _is_prime(n):
        factors[n] += 1
        return
    d = _rho(n)
    _split(d, factors)
    _split(n // d, factors)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37: exact for odd n > 37
    below 3.3 * 10^24."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n: Pollard's rho on
    x -> x^2 + c with Brent's cycle finding, the differences multiplied
    together and tested by one gcd per batch of 128 steps."""
    batch = 128
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: step through it again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def classify(t: int) -> STClass:
    """Classify t = 2 (mod 4) as S or T.

    S: no odd prime congruent to 2 mod 3 divides the square-free part of t.
    T: at least one does.
    """
    _check_positive(t, "t")
    if t % 4 != 2:
        raise ValueError(f"classify requires t = 2 (mod 4), got {t}")
    for p, e in factorize(t):
        if p != 2 and e % 2 == 1 and p % 3 == 2:
            return STClass.T
    return STClass.S


def reduce_mod4(r: int) -> tuple[int, int]:
    """Write r = 4^k * core with core not divisible by 4.

    Scaling a cycle by 2 in each coordinate multiplies the squared magnitude
    by 4 and the map is invertible on magnitude-sq = 0 (mod 4) vectors, so
    the minimum odd cycle length at r equals the one at core.
    """
    _check_positive(r, "r")
    k = 0
    while r % 4 == 0:
        r //= 4
        k += 1
    return r, k


_GRID_CELLS = 1 << 18  # (a, b) cells per block of enumerate_triples


def enumerate_triples(z: int) -> list[Triple]:
    """All triples 0 <= a <= b <= c with a^2 + b^2 + c^2 = z, lexicographic.

    Runs over the (a, b) grid in blocks of rows.  c is the square root of
    rem = z - a^2 - b^2 in floating point, corrected by one step either way
    in int64, so it is the exact integer square root and c^2 == rem is an
    exact test.
    """
    _check_positive(z, "z")
    b = np.arange(isqrt(z // 2) + 1, dtype=np.int64)
    a_max = isqrt(z // 3)
    rows = max(1, _GRID_CELLS // len(b))
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


def count_reps(z: int) -> int:
    """Number of representations z = a^2 + b^2 + c^2 with 0 <= a <= b <= c."""
    return len(enumerate_triples(z))


def four_square_decomposition(x: int) -> tuple[int, int, int, int]:
    """Lexicographically least 0 <= x1 <= x2 <= x3 <= x4 with sum of squares x."""
    _check_positive(x, "x")
    x1 = 0
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
