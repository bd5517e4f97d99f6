"""Integer arithmetic foundations.

Factorization, three- and four-square decompositions, and the S/T
classifier for integers congruent to 2 mod 4.  Everything here is exact
integer arithmetic; the one floating-point square root, in
enumerate_triples, is corrected to the exact integer root.
"""

from __future__ import annotations

import enum
from math import isqrt
from typing import NamedTuple

import numpy as np
import sympy

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


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive 63-bit integer into (prime, exponent), primes increasing."""
    _check_positive(n)
    return tuple(sorted(sympy.factorint(n).items()))


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
