"""Integer arithmetic foundations.

Factorization, a sieve for the odd primes, three- and four-square
decompositions, and the S/T classifier for integers congruent to 2 mod 4.
Everything here is exact integer arithmetic, with no floating point.

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
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, NamedTuple

import numpy as np

# Inputs whose intermediate squares could leave 64-bit signed range are
# rejected up front rather than silently promoted to bignums.
MAX_INPUT = 2**63 - 1

# enumerate_triples keeps a list per row c, about 0.42*sqrt(z) rows, so it
# refuses a z with more rows than this (z past about 1.5*10**12) before it
# allocates: V(t) at t = 10**12 + 2 (422,650 rows) already peaks at 650 MB,
# while the largest t the n = 5 search key takes (about 1.2*10**11) has
# about 146,000 rows.
MAX_ROWS = 1 << 19


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


def odd_primes(limit: int) -> list[int]:
    """The odd primes p <= limit, increasing."""
    # index i stands for 2i + 1; the odd multiples of p from p^2 on are struck
    is_prime = np.ones((limit + 1) // 2, dtype=bool)
    is_prime[:1] = False
    for i in range(1, (isqrt(limit) + 1) // 2):
        if is_prime[i]:
            p = 2 * i + 1
            is_prime[p * p // 2 :: p] = False
    return (2 * np.flatnonzero(is_prime) + 1).tolist()


_TRIAL_LIMIT = 1024
_TRIAL_PRIMES = tuple(odd_primes(_TRIAL_LIMIT))
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


@lru_cache(maxsize=1 << 12)  # record validation classifies each record's core again
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


def enumerate_triples(z: int) -> list[Triple]:
    """All triples 0 <= a <= b <= c with a^2 + b^2 + c^2 = z, lexicographic.

    One row per c with 3c^2 >= z, so O(sqrt z) rows, in each of which
    a^2 + b^2 = n = z - c^2 is solved from the factorization of n.  n is a
    sum of two squares exactly when every prime q = 3 (mod 4) divides it to
    an even power, and then its representations are the Gaussian integers
    of norm n: products of (1 + i)^e for the power of 2, of
    pi^k conj(pi)^(e - k) for each p = pi conj(pi) = 1 (mod 4), where pi
    comes from Cornacchia's algorithm (see _prime_split), and of q^(e/2).

    A row whose odd part is 3 (mod 4) has such a q to an odd power, so it
    is dropped.  The odd primes up to sqrt(max n) are sieved onto the rows
    as in the quadratic sieve (Pomerance 1984): p divides z - c^2 exactly
    when c^2 = z (mod p), so each root of _sqrt_mod(z % p, p) marks a stride.
    A z with more than MAX_ROWS rows raises ValueError before any of that.
    """
    _check_positive(z, "z")
    c_lo = isqrt((z - 1) // 3) + 1  # least c with 3c^2 >= z
    c_hi = isqrt(z)
    if c_hi - c_lo + 1 > MAX_ROWS:
        raise ValueError(f"z={z} has {c_hi - c_lo + 1} rows, more than MAX_ROWS = {MAX_ROWS}")
    out: list[Triple] = []
    if c_hi * c_hi == z:
        out.append(Triple(0, 0, c_hi))
        c_hi -= 1
    root = isqrt(z - c_lo * c_lo)
    if root < _TRIAL_LIMIT:
        primes = _TRIAL_PRIMES[: bisect_right(_TRIAL_PRIMES, root)]
    else:
        primes = odd_primes(root)
    divisors: list[list[int]] = [[] for _ in range(c_lo, c_hi + 1)]
    for p in primes:
        for r in _sqrt_mod(z % p, p):
            for i in range((r - c_lo) % p, len(divisors), p):
                divisors[i].append(p)
    for c, row_primes in zip(range(c_lo, c_hi + 1), divisors):
        n = z - c * c
        if n & (n & -n) << 1 == 0:  # odd part = 1 (mod 4)
            _add_row(out, n, c, row_primes)
    out.sort()
    return out


@lru_cache(maxsize=1 << 10)  # a small prime's (z mod p, p) recurs across nearby z
def _sqrt_mod(a: int, p: int) -> tuple[int, ...]:
    """The roots of c^2 = a (mod p) in [0, p), for an odd prime p and a in
    [0, p), by Tonelli-Shanks (Shanks 1973); one pow when p = 3 (mod 4)."""
    if a == 0:
        return (0,)
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return (r, p - r) if r * r % p == a else ()
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q 2^s with q odd
    q = (p - 1) >> s
    g = next(g for g in range(2, p) if pow(g, p >> 1, p) == p - 1)
    c, t, r = pow(g, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:  # r^2 = a t, and t has order 2^i
        i = next(i for i in range(1, s + 1) if pow(t, 1 << i, p) == 1)
        if i == s:  # only at the first step, for a non-residue
            return ()
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return (r, p - r)


def _add_row(out: list[Triple], n: int, c: int, primes: Iterable[int]) -> None:
    """Append Triple(a, b, c) for every a <= b <= c with a^2 + b^2 = n > 0.

    ``primes`` holds, increasing, exactly the odd primes up to some bound
    b >= sqrt(n) that divide n, so what is left of n is 1 or a prime.
    """
    twos = (n & -n).bit_length() - 1
    m = n >> twos
    scale = 1 << (twos // 2)
    splits = []
    for p in primes:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if p % 4 == 1:
            splits.append((p, e))
        elif e % 2:
            return
        else:
            scale *= p ** (e // 2)
    if m > 1:
        if m % 4 == 3:
            return
        splits.append((m, 1))
    gauss = [(1, 0)]
    for i, (p, e) in enumerate(splits):
        x, y = _prime_split(p)
        # pi^k conj(pi^(e-k)); conjugating every prime at once maps k to
        # e - k and keeps each (|a|, |b|), so the first prime needs k <= e/2
        if e == 1:
            terms = [(x, -y)] if i == 0 else [(x, -y), (x, y)]
        else:
            powers = [(1, 0), (x, y)]
            for _ in range(e - 1):
                u, v = powers[-1]
                powers.append((u * x - v * y, u * y + v * x))
            terms = []
            for k in range(e // 2 + 1 if i == 0 else e + 1):
                (u, v), (s, t) = powers[k], powers[e - k]
                terms.append((u * s + v * t, v * s - u * t))
        gauss = [(u * s - v * t, u * t + v * s) for u, v in gauss for s, t in terms]
    pairs = set()
    for x, y in gauss:
        x, y = abs(x), abs(y)
        if twos % 2:
            x, y = abs(x - y), x + y  # times 1 + i
        x, y = x * scale, y * scale
        pairs.add((x, y) if x <= y else (y, x))
    out += [Triple(a, b, c) for a, b in pairs if b <= c]


@lru_cache(maxsize=1 << 12)  # the same primes recur in the rows of one z and of nearby z
def _prime_split(p: int) -> tuple[int, int]:
    """x, y with x^2 + y^2 = p, for a prime p = 1 (mod 4).

    Cornacchia's algorithm as Hermite and Serret gave it: r = g^((p-1)/4)
    is a square root of -1 mod p when g is a quadratic non-residue, and the
    Euclidean algorithm on (p, r) reaches x as its first remainder below
    sqrt(p).
    """
    g = 2
    while (r := pow(g, (p - 1) // 4, p)) * r % p != p - 1:
        g += 1
    a, b = p, r
    while b * b > p:
        a, b = b, a % b
    return b, isqrt(p - b * b)


def count_reps(z: int) -> int:
    """Number of representations z = a^2 + b^2 + c^2 with 0 <= a <= b <= c."""
    return len(enumerate_triples(z))


def four_square_decomposition(x: int) -> tuple[int, int, int, int]:
    """Lexicographically least 0 <= x1 <= x2 <= x3 <= x4 with sum of squares x."""
    _check_positive(x, "x")
    for x1 in range(isqrt(x // 4) + 1):
        r1 = x - x1 * x1
        odd4 = r1
        while odd4 % 4 == 0:
            odd4 //= 4
        if odd4 % 8 == 7:  # Legendre: 4^a (8b + 7) is no sum of three squares
            continue
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
    raise AssertionError(f"no four-square decomposition found for {x}")
