"""Top-level dispatcher for the minimum odd cycle length C(m, r).

Closed-form cases are answered directly; dimension 3 with a class-T
reduced magnitude falls through to the search engines.  Every nonzero
answer carries a machine-checkable certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .arith import reduce_mod4
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


def compute_C(m: int, r: int) -> CmResult:
    """Resolve the minimum odd cycle length for magnitude-sq r in Z^m."""
    if m < 1 or r < 1:
        raise ValueError(f"m and r must be positive, got ({m}, {r})")

    if r % 2 == 1:
        # Coordinate-sum parity bipartitions Z^m for odd r: no odd closed walk.
        return CmResult(m, r, 0, Reason.ODD_R, None, r)
    if m == 1:
        # A magnitude-sqrt(r) step in Z^1 is +/-k with k^2 = r; an odd count
        # of them sums to an odd multiple of k, never zero.
        return CmResult(m, r, 0, Reason.DIM1, None, r)
    if m == 2:
        return CmResult(m, r, 0, Reason.DIM2, None, r)
    if m >= 4:
        cert = k4_triangle(m, r)
        return CmResult(m, r, 3, Reason.K4_CONSTRUCTION, cert, r)

    core, _ = reduce_mod4(r)
    if core % 2 == 1:
        return CmResult(m, r, 0, Reason.ODD_R, None, core)
    try:
        # triangle_cycle's search is the class-S test: it raises ValueError
        # on a class-T core, so classify runs once, as min_odd_cycle's guard
        return CmResult(m, r, 3, Reason.TRIANGLE, triangle_cycle(core), core)
    except ValueError:
        pass
    outcomes = min_odd_cycle(core)
    nodes = sum(out.nodes_examined for out in outcomes)
    found = outcomes[-1].found
    if found is None:
        return CmResult(m, r, None, Reason.UNRESOLVED, None, core, nodes)
    return CmResult(m, r, len(found), Reason.SEARCHED, found, core, nodes)

