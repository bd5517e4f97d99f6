"""Closed-form cycle builders.

Equilateral-triangle 3-cycles for class S, solved directly from
x^2 + xy + y^2 = t/2; the K4 point set that settles every even r in
dimension >= 4; and two 5-cycle template families driven by binary
quadratic forms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt
from typing import Callable

from .arith import four_square_decomposition
from .search import OddCycle, verify_cycle
from .vectors import LatticeVector, magnitude_sq


K4_M_MAX = 1 << 20  # largest dimension k4_points pads its points to


class ConstructionError(RuntimeError):
    """A closed-form builder failed where theory says it cannot."""


@dataclass(frozen=True)
class QuadraticForm:
    """F(x, y) = a x^2 + b x y + c y^2."""

    a: int
    b: int
    c: int

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y


class ParamId(enum.Enum):
    TRIANGLE = "triangle"
    PARAM1 = "param1"
    PARAM2 = "param2"


FORMS: dict[ParamId, QuadraticForm] = {
    ParamId.TRIANGLE: QuadraticForm(2, 2, 2),
    ParamId.PARAM1: QuadraticForm(6, 2, 6),
    ParamId.PARAM2: QuadraticForm(98, 154, 110),
}

# Vector templates as functions of (x, y); repeated rows are genuine repeats.
_TEMPLATES: dict[ParamId, tuple[Callable[[int, int], LatticeVector], ...]] = {
    ParamId.TRIANGLE: (
        lambda x, y: (-x, -y, x + y),
        lambda x, y: (-y, x + y, -x),
        lambda x, y: (x + y, -x, -y),
    ),
    ParamId.PARAM1: (
        lambda x, y: (-2 * x - y, -x - y, -x + 2 * y),
        lambda x, y: (-2 * x - y, -x - y, -x + 2 * y),
        lambda x, y: (x + y, 2 * x + y, x - 2 * y),
        lambda x, y: (x + 2 * y, -x - y, 2 * x - y),
        lambda x, y: (2 * x - y, x + 2 * y, -x - y),
    ),
    ParamId.PARAM2: (
        lambda x, y: (7 * x + 10 * y, 7 * x + y, 3 * y),
        lambda x, y: (7 * x + 10 * y, 7 * x + y, 3 * y),
        lambda x, y: (-7 * x - 6 * y, 7 * y, 7 * x + 5 * y),
        lambda x, y: (-3 * x - 9 * y, -5 * x - 2 * y, -8 * x - 5 * y),
        lambda x, y: (-4 * x - 5 * y, -9 * x - 7 * y, x - 6 * y),
    ),
}


def triangle_cycle(s: int) -> OddCycle:
    """Verified 3-cycle (equilateral triangle edge vectors) for s in class S.

    The edge vectors have squared length 2(x^2 + xy + y^2), and
    x^2 + xy + y^2 = s/2 is (2y + x)^2 = 2s - 3x^2.  The pair taken is the
    least x >= 0, then the root y of least |y|, positive first: with
    r = isqrt(2s - 3x^2) that is y = (r - x)/2, an integer because
    s = 2 (mod 4) gives r = x (mod 2).  Class S is the s = 2 (mod 4) with
    s/2 = x^2 + xy + y^2, so a loop that finds no root proves s is in
    class T; that raises, for a caller that has not classified s.
    """
    if s % 4 != 2:
        raise ValueError(f"triangle_cycle requires s = 2 (mod 4), got {s}")
    x = 0
    while 3 * x * x <= 2 * s:
        d = 2 * s - 3 * x * x
        r = isqrt(d)
        if r * r == d:
            return param_cycle(ParamId.TRIANGLE, x, (r - x) // 2)
        x += 1
    raise ValueError(f"triangle_cycle requires s in class S, got {s}")


def param_cycle(p: ParamId, x: int, y: int) -> OddCycle:
    """Instantiate a template family at (x, y); verified before return."""
    if x == 0 and y == 0:
        raise ValueError("(0, 0) would produce zero vectors")
    vecs = [row(x, y) for row in _TEMPLATES[p]]
    cycle = OddCycle.from_vectors(FORMS[p](x, y), vecs)
    diag = verify_cycle(cycle)
    if not diag.valid:
        raise ConstructionError(f"template {p} failed at ({x}, {y}): {diag.reason}")
    return cycle


def k4_points(m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Four points of Z^m with all six pairwise squared distances r.  Their
    cost grows with m, so m is refused outside 4 <= m <= K4_M_MAX = 2^20."""
    if not 4 <= m <= K4_M_MAX:
        raise ValueError(f"m must be in 4..{K4_M_MAX}, got {m}")
    if r < 2 or r % 2 != 0:
        raise ValueError(f"r must be even and positive, got {r}")
    x1, x2, x3, x4 = four_square_decomposition(r // 2)
    pad = (0,) * (m - 4)
    p1 = (0, 0, 0, 0) + pad
    p2 = (x1 - x2, x1 + x2, x3 - x4, x3 + x4) + pad
    p3 = (x1 - x3, x2 + x4, x1 + x3, -x2 + x4) + pad
    p4 = (x1 + x4, x2 + x3, -x2 + x3, -x1 + x4) + pad
    points = (p1, p2, p3, p4)
    for i in range(4):
        for j in range(i + 1, 4):
            d = magnitude_sq(tuple(a - b for a, b in zip(points[i], points[j])))
            if d != r:
                raise ConstructionError(
                    f"K4 points for (m={m}, r={r}) have distance^2 {d} between "
                    f"P{i + 1} and P{j + 1}"
                )
    return points


def k4_triangle(m: int, r: int) -> OddCycle:
    """3-cycle certificate extracted from the K4 point set."""
    p1, p2, p3, _ = k4_points(m, r)
    v1 = tuple(a - b for a, b in zip(p2, p1))
    v2 = tuple(a - b for a, b in zip(p3, p2))
    v3 = tuple(a - b for a, b in zip(p1, p3))
    return OddCycle.from_vectors(r, [v1, v2, v3])
