"""Top-level dispatcher for the minimum odd cycle length C(m, r).

``reason_of`` is the single place the closed-form rules live, for
compute_C and record validation alike.  For m = 3 with an even core the
core's S/T class decides: class S gets the triangle construction, class T
the search ladder.  Every nonzero answer carries a certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt
from typing import Optional

from .arith import STClass, classify, reduce_mod4
from .search import NotClassT, OddCycle, min_odd_cycle
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
    SEARCHED stands for m = 3 with an even core, whose class decides."""
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
    return (Reason.ODD_R if core % 2 == 1 else Reason.SEARCHED), core


def settled_reason(m: int, r: int) -> Reason:
    """compute_C's reason for C_m(r), SEARCHED also for UNRESOLVED, with no search."""
    reason, core = reason_of(m, r)
    triangle = reason is Reason.SEARCHED and classify(core) is STClass.S
    return Reason.TRIANGLE if triangle else reason


def compute_C(m: int, r: int) -> CmResult:
    """Resolve the minimum odd cycle length for magnitude-sq r in Z^m."""
    reason, core = reason_of(m, r)
    if reason in NONEXISTENT_REASONS:
        return CmResult(m, r, 0, reason, None, core)
    if reason is Reason.K4_CONSTRUCTION:
        return CmResult(m, r, 3, reason, k4_triangle(m, r), r)
    try:
        # min_odd_cycle's guard is the resolve's one classify: a class-T core
        # goes to the ladder, and a class-S core, refused, to the triangle
        # construction, so the O(sqrt t) triangle loop never runs on class T
        outcomes = min_odd_cycle(core)
    except NotClassT:
        found, reason, nodes = triangle_cycle(core), Reason.TRIANGLE, 0
    else:
        found, nodes = outcomes[-1].found, sum(out.nodes_examined for out in outcomes)
    if found is None:
        return CmResult(m, r, None, Reason.UNRESOLVED, None, core, nodes)
    if r != core:  # doubling every coordinate takes a cycle at core to one at 4 * core
        k = isqrt(r // core)
        found = OddCycle.from_vectors(r, [tuple(k * x for x in v) for v in found.vectors])
    return CmResult(m, r, len(found), reason, found, core, nodes)
