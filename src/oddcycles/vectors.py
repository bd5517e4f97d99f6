"""Magnitude-sqrt(t) lattice vector sets in Z^3, with their B3 orbits.

vector_set applies B3, the 48 signed coordinate permutations, to every
triple of R = enumerate_triples(t) in one numpy pass.  np.unique sorts and
deduplicates the images (x, y, z) by one int64 key, ((x + c)*(2c + 1) +
y + c)*2 + (z > 0) with c = isqrt(t): its order is the rows' lexicographic
order, and it is exact because x and y fix |z|.  The position of each
triple in V(t) comes out of the same pass.  The largest key, 8c^2 + 8c + 1,
is below 2**63 exactly when t < 2**60, about 1.15*10**18.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations, product
from math import comb, isqrt

import numpy as np

from .arith import enumerate_triples

LatticeVector = tuple[int, ...]

# B3 as 6 coordinate permutations times 8 sign patterns, the identity first in each
_PERMS = np.array(list(permutations(range(3))))
_SIGNS = np.array(list(product((1, -1), repeat=3)))


def magnitude_sq(v: LatticeVector) -> int:
    return sum(x * x for x in v)


@dataclass(frozen=True)
class VectorSet:
    """V(t), deduplicated and lexicographically sorted, as the int64 rows of coords.

    reps[i] is the row of triple i of R; vectors, the rows as tuples, is
    built on first use.  Equality is on t and coords (reps follows from them).
    """

    t: int
    coords: np.ndarray = field(compare=False, repr=False)
    reps: np.ndarray = field(compare=False, repr=False)

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, VectorSet) and self.t == other.t
        return same and np.array_equal(self.coords, other.coords)

    def __len__(self) -> int:
        return len(self.coords)

    @cached_property
    def vectors(self) -> tuple[LatticeVector, ...]:
        return tuple(map(tuple, self.coords.tolist()))


def vector_set(t: int) -> VectorSet:
    """Build V(t), every Z^3 vector with squared magnitude exactly t, and R in it."""
    if t >= 1 << 60:
        raise ValueError(f"t={t} is 2**60 or more, past the int64 sort key")
    triples = np.array(enumerate_triples(t), dtype=np.int64).reshape(-1, 3)
    c = isqrt(t)
    # row 48*i + 8*p + s is triple i, permuted by _PERMS[p] and signed by _SIGNS[s]
    images = (triples[:, _PERMS][:, :, None] * _SIGNS[None, None]).reshape(-1, 3)
    x, y, z = images.T
    # a repeat is an image of the same triple, so np.unique's first row for each key
    # is triple i itself at row 48*i; R is lexicographic as V is, so reps ascends
    first = np.unique(((x + c) * (2 * c + 1) + y + c) * 2 + (z > 0), return_index=True)[1]
    return VectorSet(t, images[first], np.flatnonzero(first % 48 == 0))


def search_space_size(n_vectors: int, cycle_len: int) -> int:
    """Number of multisets of size cycle_len over n_vectors items (exact)."""
    if n_vectors < 1 or cycle_len < 1:
        raise ValueError("both arguments must be positive")
    return comb(n_vectors + cycle_len - 1, cycle_len)
