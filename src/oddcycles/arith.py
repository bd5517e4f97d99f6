"""Integer arithmetic foundations.

Factorization, square-free parts, three- and four-square decompositions,
and the S/T classifier for integers congruent to 2 mod 4.  Everything here
is exact integer arithmetic; no floating point anywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

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


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as a tuple of (prime, exponent), primes increasing."""

    prime_powers: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = 1
        for p, e in self.prime_powers:
            out *= p**e
        return out


def _check_positive(n: int, name: str = "n") -> None:
    if n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n}")
    if n > MAX_INPUT:
        raise ValueError(f"{name} exceeds 63-bit range: {n}")


def factorize(n: int) -> Factorization:
    """Factor a positive 63-bit integer."""
    _check_positive(n)
    if n == 1:
        return Factorization(())
    fac = sympy.factorint(n)
    return Factorization(tuple(sorted(fac.items())))


def squarefree_part(n: int) -> int:
    """Product of the primes dividing n to an odd power."""
    _check_positive(n)
    out = 1
    for p, e in factorize(n).prime_powers:
        if e % 2 == 1:
            out *= p
    return out


def classify(t: int) -> STClass:
    """Classify t = 2 (mod 4) as S or T.

    S: no odd prime congruent to 2 mod 3 divides the square-free part of t.
    T: at least one does.
    """
    _check_positive(t, "t")
    if t % 4 != 2:
        raise ValueError(f"classify requires t = 2 (mod 4), got {t}")
    for p, e in factorize(t).prime_powers:
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
    """All triples 0 <= a <= b <= c with a^2 + b^2 + c^2 = z, lexicographic."""
    _check_positive(z, "z")
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
