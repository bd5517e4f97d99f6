"""Top-level dispatcher for the minimum odd cycle length C(m, r).

``reason_of`` is the single place the dispatch rules live, for compute_C
and record validation alike.  For m = 3 with an even core it classifies
the core once: class S gets the triangle construction, class T the search
ladder, entered through search.min_odd_cycle.  Every nonzero answer
carries a certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt
from typing import Optional

from .arith import STClass, classify, reduce_mod4
from .search import OddCycle, min_odd_cycle
from .constructions import k4_triangle, triangle_cycle


class Reason(enum.Enum):
    ODD_R = "OddR"
    DIM1 = "Dim1"
    DIM2 = "Dim2"
    K4_CONSTRUCTION = "K4Construction"
    TRIANGLE = "Triangle"
    SEARCHED = "Searched"
    UNRESOLVED = "Unresolved"


NONEXISTENT_REASONS = {Reason.ODD_R, Reason.DIM1, Reason.DIM2}


@dataclass(frozen=True)
class CmResult:
    m: int
    r: int
    value: Optional[int]  # 0 = no odd cycle exists; None only when unresolved
    reason: Reason
    certificate: Optional[OddCycle]
    reduced_r: int
    nodes_examined: int = 0


def reason_of(m: int, r: int) -> tuple[Reason, int]:
    """The rule that settles C_m(r), and the reduced r it is read at;
    SEARCHED also stands for a search that ends UNRESOLVED."""
    if m < 1 or r < 1:
        raise ValueError(f"m and r must be positive, got ({m}, {r})")
    if r % 2 == 1:
        # Coordinate-sum parity bipartitions Z^m for odd r: no odd closed walk.
        return Reason.ODD_R, r
    if m == 1:
        # A magnitude-sqrt(r) step in Z^1 is +/-k with k^2 = r; an odd count
        # of them sums to an odd multiple of k, never zero.
        return Reason.DIM1, r
    if m == 2:
        return Reason.DIM2, r
    if m >= 4:
        return Reason.K4_CONSTRUCTION, r
    core, _ = reduce_mod4(r)
    if core % 2 == 1:
        return Reason.ODD_R, core
    # an even core is 2 (mod 4): class S has an equilateral triangle, class
    # T has C_3 >= 5 and goes to the search
    return (Reason.TRIANGLE if classify(core) is STClass.S else Reason.SEARCHED), core


def compute_C(m: int, r: int) -> CmResult:
    """Resolve the minimum odd cycle length for magnitude-sq r in Z^m."""
    reason, core = reason_of(m, r)
    if reason in NONEXISTENT_REASONS:
        return CmResult(m, r, 0, reason, None, core)
    if reason is Reason.K4_CONSTRUCTION:
        return CmResult(m, r, 3, reason, k4_triangle(m, r), r)
    if reason is Reason.TRIANGLE:
        found, nodes = triangle_cycle(core), 0
    else:
        outcomes = min_odd_cycle(core)
        found, nodes = outcomes[-1].found, sum(out.nodes_examined for out in outcomes)
    if found is None:
        return CmResult(m, r, None, Reason.UNRESOLVED, None, core, nodes)
    if r != core:  # doubling every coordinate takes a cycle at core to one at 4 * core
        k = isqrt(r // core)
        found = OddCycle.from_vectors(r, [tuple(k * x for x in v) for v in found.vectors])
    return CmResult(m, r, len(found), reason, found, core, nodes)
