"""Empirical density of the class-T integers among those = 2 (mod 4).

t = 2u with u odd is in class T when some prime p = 2 (mod 3) divides u
to an odd power.  Classification at scale runs a blockwise sieve over the
odd u up to umax = n / 2, with only slices of bool arrays, no division:

- Small primes, p <= sqrt(umax).  Only p = 2 (mod 3) can decide the
  class.  The exponent of p in u is the number of k >= 1 with p^k | u, so
  one bool per multiple of p, toggled along the stride of each p^k with
  k >= 2, holds its parity.  A u with some small p at odd exponent is in T.
- The cofactor.  What is left of u after the small primes is 1 or a single
  prime q > sqrt(umax), at exponent 1.  Let u' = u / 3^v with 3^v || u.
  Primes = 1 (mod 3) leave u' mod 3 alone, and each prime = 2 (mod 3)
  flips it once per unit of exponent.  So when every small p = 2 (mod 3)
  has even exponent, u' = q (mod 3), with q = 1 when no cofactor is left,
  and u is in T exactly when u' = 2 (mod 3).  Hence T is the union of the
  two tests: a small p = 2 (mod 3) at odd exponent, or u' = 2 (mod 3).
  Along the multiples of 3^k, u / 3^k mod 3 has period 3, so u' mod 3 is
  filled in by strided slices, one 3^k level at a time.

The odd primes up to sqrt(umax), at most 7,071 at the largest checkpoint,
come from arith.odd_primes, a sieve of Eratosthenes over the odd numbers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import IO, Iterable, Sequence

import numpy as np

from .arith import odd_primes

MAX_CHECKPOINT = 10**8
BLOCK = 1 << 19  # odd u values per sieve block

CSV_HEADER = "n,t_count,g_exact_num,g_exact_den,g_decimal"


@dataclass(frozen=True)
class DensityRow:
    n: int
    t_count: int
    g: Fraction

    @property
    def g_decimal(self) -> str:
        return f"{float(self.g):.4f}"


def _first_multiple(u_lo: int, m: int) -> int:
    """Least i >= 0 with m | u_lo + 2i, for odd m."""
    return (-u_lo * ((m + 1) // 2)) % m


def _sieve_block(u_lo: int, u_hi: int, primes: Sequence[int]) -> np.ndarray:
    """Boolean T-membership for t = 2u over odd u in [u_lo, u_hi).

    Index i stands for u = u_lo + 2i, and ``primes`` holds every odd prime
    up to the square root of the largest u.  The module docstring gives
    the argument.
    """
    n = len(range(u_lo, u_hi, 2))
    # Cofactor test: u / 3^v = 2 (mod 3) with 3^v || u, set level by level
    # along the 3^k strides.  Along one stride the quotient runs c, c + 2,
    # c + 4, ... (mod 3), so it is 2 at every third entry from (c + 1) mod 3.
    is_t = np.zeros(n, dtype=bool)
    is_t[(u_lo + 1) % 3 :: 3] = True
    q = 3
    while q < u_hi:
        i = _first_multiple(u_lo, q)
        level = is_t[i::q]
        level[:] = False
        level[((u_lo + 2 * i) // q + 1) % 3 :: 3] = True
        q *= 3
    # Small primes = 2 (mod 3) at odd exponent
    for p in primes:
        if p % 3 != 2:
            continue
        i0 = _first_multiple(u_lo, p)
        q = p * p
        if q >= u_hi or _first_multiple(u_lo, q) >= n:
            is_t[i0::p] = True  # no p^2 divides a u here
            continue
        # one entry per multiple of p, toggled once for each k >= 2 with p^k | u
        odd = np.ones(len(range(i0, n, p)), dtype=bool)
        while q < u_hi:
            odd[(_first_multiple(u_lo, q) - i0) // p :: q // p] ^= True
            q *= p
        is_t[i0::p] |= odd
    return is_t


def density_table(checkpoints: Sequence[int], workers: int = 1) -> list[DensityRow]:
    """One row per checkpoint n: |T_n| and g(n) = |T_n| / |(S u T)_n|."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not checkpoints:
        return []
    cps = list(checkpoints)
    if cps != sorted(cps) or len(set(cps)) != len(cps):
        raise ValueError("checkpoints must be strictly ascending")
    if cps[0] < 2:
        raise ValueError("checkpoints must be >= 2")
    if cps[-1] > MAX_CHECKPOINT:
        raise ValueError(f"checkpoint {cps[-1]} exceeds limit {MAX_CHECKPOINT}")

    umax = cps[-1] // 2
    primes = odd_primes(isqrt(umax))
    blocks = [
        (lo, min(lo + 2 * BLOCK, umax + 1)) for lo in range(1, umax + 1, 2 * BLOCK)
    ]

    rows: list[DensityRow] = []
    cp_idx = 0
    t_total = 0
    # the pool starts threads only on submit, so workers = 1 starts none
    with ThreadPoolExecutor(max_workers=workers) as pool:
        run = pool.map if workers > 1 else map
        results = run(lambda b: _sieve_block(*b, primes), blocks)
        for (lo, hi), is_t in zip(blocks, results):
            # each stretch of the block between checkpoints is counted once
            done = 0
            while cp_idx < len(cps) and cps[cp_idx] // 2 < hi:
                n = cps[cp_idx]
                k = (n // 2 - lo) // 2 + 1
                t_total += int(np.count_nonzero(is_t[done:k]))
                done = k
                denom = (n + 2) // 4
                rows.append(DensityRow(n=n, t_count=t_total, g=Fraction(t_total, denom)))
                cp_idx += 1
            t_total += int(np.count_nonzero(is_t[done:]))
    return rows


def write_density_csv(rows: Iterable[DensityRow], out: IO[str]) -> None:
    out.write(CSV_HEADER + "\n")
    for row in rows:
        g = row.g
        out.write(
            f"{row.n},{row.t_count},{g.numerator},{g.denominator},{row.g_decimal}\n"
        )
