"""Closed-form builders: triangles, K4 points, template families, forms."""

import ast
import random
from math import ceil, isqrt
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcycles import constructions
from oddcycles.arith import STClass, Triple, classify, enumerate_triples
from oddcycles.constructions import (
    FORMS,
    ParamId,
    QuadraticForm,
    k4_points,
    k4_triangle,
    param_cycle,
    triangle_cycle,
)
from oddcycles.search import verify_cycle
from oddcycles.vectors import magnitude_sq


def triangle_witness_via_triples(s: int) -> Triple | None:
    """Independent S witness: a triple a^2+b^2+c^2 = s with a+b = c up to signs."""
    for tr in enumerate_triples(s):
        for x, y, z in ((tr.a, tr.b, tr.c), (tr.a, tr.c, tr.b), (tr.b, tr.c, tr.a)):
            if x + y == z or abs(x - y) == z:
                return tr
    return None


def form_represents(f: QuadraticForm, t: int) -> Optional[tuple[int, int]]:
    """Least (x, |y|) with x >= 0 and F(x, y) = t (positive y first), else None.

    The smaller eigenvalue of the form matrix bounds |x|, |y| by
    sqrt(t / lambda_min), so the scan region is complete.
    """
    if not (f.a > 0 and 4 * f.a * f.c - f.b * f.b > 0):
        raise ValueError(f"form {f} is not positive definite")
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    # lambda_min = (a + c - sqrt((a-c)^2 + b^2)) / 2, computed conservatively
    disc = (f.a - f.c) ** 2 + f.b * f.b
    lam_twice = f.a + f.c - isqrt(disc) - 1  # lower bound on 2*lambda_min
    if lam_twice <= 0:
        lam_twice = 1
    bound = ceil(isqrt(2 * t // lam_twice)) + 2
    for x in range(0, bound + 1):
        for ay in range(0, bound + 1):
            for y in ((ay, -ay) if ay else (0,)):
                if f(x, y) == t:
                    return (x, y)
    return None


class TestTriangleCycle:
    def test_smallest_case(self):
        cycle = triangle_cycle(2)
        assert verify_cycle(cycle).valid
        assert cycle.t == 2 and len(cycle) == 3

    @pytest.mark.parametrize("s", [6, 14, 18, 26, 1998])
    def test_verified_three_cycle(self, s):
        cycle = triangle_cycle(s)
        assert verify_cycle(cycle).valid
        assert cycle.t == s

    def test_rejects_class_t(self):
        with pytest.raises(ValueError):
            triangle_cycle(10)

    def test_pair_matches_form_oracle(self, monkeypatch):
        # The (x, y) that triangle_cycle passes to param_cycle is the pair
        # the generic form search returns: least x, then least |y|, y > 0 first.
        pairs = []

        def spy(p, x, y):
            pairs.append((x, y))
            return param_cycle(p, x, y)

        monkeypatch.setattr(constructions, "param_cycle", spy)
        s_values = [t for t in range(2, 20000, 4) if classify(t) is STClass.S]
        near_million = random.Random(31).sample(range(900002, 10**6, 4), 40)
        s_values += [t for t in near_million if classify(t) is STClass.S][:5]
        for s in s_values:
            rep = form_represents(FORMS[ParamId.TRIANGLE], s)
            cycle = triangle_cycle(s)
            assert pairs.pop() == rep, s
            assert cycle == param_cycle(ParamId.TRIANGLE, *rep), s
        for t in range(2, 4000, 4):
            if classify(t) is STClass.T:
                assert form_represents(FORMS[ParamId.TRIANGLE], t) is None, t
                with pytest.raises(ValueError):
                    triangle_cycle(t)
        assert not pairs

    def test_witness_rule_matches_classification(self):
        # Independent S test: s = a^2+b^2+c^2 with a+b = c (up to signs).
        for t in range(2, 2000, 4):
            witness = triangle_witness_via_triples(t)
            assert (witness is not None) == (classify(t) is STClass.S), t


class TestK4Points:
    def test_r2_m4(self):
        points = k4_points(4, 2)
        for i in range(4):
            for j in range(i + 1, 4):
                d = sum((a - b) ** 2 for a, b in zip(points[i], points[j]))
                assert d == 2

    def test_rejects_odd_r(self):
        with pytest.raises(ValueError):
            k4_points(4, 5)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            k4_points(3, 2)

    def test_random_even_r(self):
        rng = random.Random(20240817)
        for _ in range(100):
            r = 2 * rng.randint(1, 5000)
            m = rng.choice((4, 5, 6))
            points = k4_points(m, r)  # raises if any pairwise distance is off
            assert len(points) == 4 and all(len(p) == m for p in points)

    def test_triangle_extraction(self):
        cycle = k4_triangle(5, 10)
        assert verify_cycle(cycle).valid
        assert cycle.t == 10


class TestParamCycle:
    def test_param1_unit(self):
        cycle = param_cycle(ParamId.PARAM1, 1, 0)
        assert cycle.t == 6 and len(cycle) == 5

    def test_param2_unit(self):
        cycle = param_cycle(ParamId.PARAM2, 0, 1)
        assert cycle.t == 110 and len(cycle) == 5

    def test_param1_can_hit_class_s_values(self):
        assert param_cycle(ParamId.PARAM1, 1, 1).t == 14
        assert classify(14) is STClass.S

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            param_cycle(ParamId.PARAM1, 0, 0)

    @given(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
    )
    @settings(max_examples=200)
    def test_grid_instantiations_verify(self, x, y):
        if x == 0 and y == 0:
            return
        for pid in (ParamId.PARAM1, ParamId.PARAM2):
            cycle = param_cycle(pid, x, y)
            want = FORMS[pid](x, y)
            assert cycle.t == want
            assert all(magnitude_sq(v) == want for v in cycle.vectors)


class TestFormRepresents:
    def test_triangle_form_six(self):
        assert form_represents(QuadraticForm(2, 2, 2), 6) == (1, 1)

    def test_param1_parity_obstruction(self):
        assert form_represents(QuadraticForm(6, 2, 6), 7) is None

    def test_param1_ten(self):
        assert form_represents(QuadraticForm(6, 2, 6), 10) == (1, -1)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            form_represents(QuadraticForm(1, 5, 1), 10)

    def test_soundness_and_completeness(self):
        # wider-bound oracle: scan a box twice the derived bound
        rng = random.Random(7)
        for _ in range(40):
            t = rng.randint(1, 5000)
            for f in (QuadraticForm(2, 2, 2), QuadraticForm(6, 2, 6)):
                got = form_represents(f, t)
                wide = 2 * (int(t**0.5) + 2)
                oracle = None
                for x in range(0, wide + 1):
                    for y in range(-wide, wide + 1):
                        if f(x, y) == t:
                            oracle = (x, y)
                            break
                    if oracle:
                        break
                assert (got is not None) == (oracle is not None), (f, t)
                if got is not None:
                    assert f(*got) == t


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every runtime check in the
    # package must raise explicitly
    found = []
    for path in sorted(Path(constructions.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
