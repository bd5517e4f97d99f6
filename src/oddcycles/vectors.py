"""Magnitude-sqrt(t) lattice vector sets in Z^3, with their B3 orbits.

vector_set applies B3, the 48 signed coordinate permutations, to every
triple of R = enumerate_triples(t) in one numpy pass, sorts the images
with np.lexsort over the columns and drops repeated rows.  The sort keys
are the coordinates themselves, so it has no bound to overflow; the
position of each triple in V(t) comes out of the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product
from math import comb

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
    """Deduplicated, lexicographically sorted vectors of squared magnitude t.

    coords[j] is vectors[j] as an int64 row; reps[i] is the position of
    triple i of R.
    """

    t: int
    vectors: tuple[LatticeVector, ...]
    coords: np.ndarray = field(compare=False, repr=False)
    reps: np.ndarray = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.vectors)


def vector_set(t: int) -> VectorSet:
    """Build V(t), every Z^3 vector with squared magnitude exactly t, and R in it."""
    triples = np.array(enumerate_triples(t), dtype=np.int64).reshape(-1, 3)
    # row 48*i + 8*p + s is triple i, permuted by _PERMS[p] and signed by _SIGNS[s]
    images = (triples[:, _PERMS][:, :, None] * _SIGNS[None, None]).reshape(-1, 3)
    order = np.lexsort(images.T[::-1])
    images = images[order]
    keep = np.ones(len(images), dtype=bool)
    keep[1:] = (images[1:] != images[:-1]).any(axis=1)
    # a repeat is an image of the same triple and the sort is stable, so row
    # 48*i, triple i itself, is kept; R is lexicographic as V is, so reps ascends
    coords = images[keep]
    reps = np.flatnonzero(order[keep] % 48 == 0)
    return VectorSet(t, tuple(zip(*coords.T.tolist())), coords, reps)


def search_space_size(n_vectors: int, cycle_len: int) -> int:
    """Number of multisets of size cycle_len over n_vectors items (exact)."""
    if n_vectors < 1 or cycle_len < 1:
        raise ValueError("both arguments must be positive")
    return comb(n_vectors + cycle_len - 1, cycle_len)
