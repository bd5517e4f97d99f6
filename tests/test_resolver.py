"""Dispatcher behavior and certificate discipline."""

import random

import pytest

from oddcycles import arith, resolver, search
from oddcycles.arith import STClass, classify, enumerate_triples
from oddcycles.constructions import triangle_cycle
from oddcycles.resolver import Reason, compute_C
from oddcycles.search import verify_cycle


class TestComputeC:
    @pytest.mark.parametrize(
        "m,r,value",
        [
            (3, 22, 9),
            (5, 10, 3),
            (2, 50, 0),
            (3, 9, 0),
            (3, 40, 5),   # reduces to C_3(10)
            (3, 58, 11),
            (1, 4, 0),
            (4, 7, 0),    # odd r wins over the K4 construction
            (3, 4, 0),    # reduces to odd core 1
        ],
    )
    def test_known_values(self, m, r, value):
        res = compute_C(m, r)
        assert res.value == value

    def test_reasons(self):
        assert compute_C(3, 9).reason is Reason.ODD_R
        assert compute_C(1, 4).reason is Reason.DIM1
        assert compute_C(2, 50).reason is Reason.DIM2
        assert compute_C(6, 12).reason is Reason.K4_CONSTRUCTION
        assert compute_C(3, 18).reason is Reason.TRIANGLE
        assert compute_C(3, 10).reason is Reason.SEARCHED

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            compute_C(0, 5)
        with pytest.raises(ValueError):
            compute_C(3, 0)

    def test_reduction_invariance(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(1, 500)
            assert compute_C(3, 4 * n).value == compute_C(3, n).value

    def test_certificates_verify(self):
        rng = random.Random(99)
        cases = [(3, 2), (3, 10), (3, 22), (4, 8), (5, 34), (3, 8), (3, 40), (3, 352)]
        cases += [(3, rng.randrange(2, 400, 4)) for _ in range(8)]
        for m, r in cases:
            res = compute_C(m, r)
            if res.value == 0:
                assert res.certificate is None
            else:
                assert res.certificate is not None
                diag = verify_cycle(res.certificate)
                assert diag.valid, (m, r, diag.reason)
                assert res.certificate.t == r, (m, r)  # at r, not at the reduced r
                assert len(res.certificate) == res.value

    def test_values_never_even_or_one(self):
        for r in range(1, 200):
            for m in (1, 2, 3, 4):
                v = compute_C(m, r).value
                assert v == 0 or (v % 2 == 1 and v >= 3), (m, r, v)

    def test_unresolved_outcome(self, monkeypatch):
        monkeypatch.setattr(search, "N_MAX", 9)  # C_3(58) = 11
        res = compute_C(3, 58)
        assert res.reason is Reason.UNRESOLVED and res.value is None



def seeded_sample(cls: STClass, lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    """One seeded t = 2 (mod 4) of class cls in each of count log strata of (lo, hi)."""
    out = []
    for i in range(count):
        a = int(lo * (hi / lo) ** (i / count))
        b = int(lo * (hi / lo) ** ((i + 1) / count))
        while True:
            t = rng.randrange(a + (2 - a) % 4, b, 4)
            if t > lo and classify(t) is cls:
                out.append(t)
                break
    return out


class TestRangeGuard:
    """Seeded guard on C_3 up to 10^6: every class-T t above 1978 gives 5."""

    def test_class_t_log_strata_resolve_to_five(self):
        for t in seeded_sample(STClass.T, 1978, 10**6, 30, random.Random(1978)):
            res = compute_C(3, t)
            assert (res.value, res.reason) == (5, Reason.SEARCHED), t
            assert verify_cycle(res.certificate).valid, t

    def test_class_s_near_million_are_triangles(self):
        for t in seeded_sample(STClass.S, 900000, 10**6, 10, random.Random(3)):
            res = compute_C(3, t)
            assert (res.value, res.reason) == (3, Reason.TRIANGLE), t
            assert verify_cycle(res.certificate).valid, t


class TestCertifyRoundRange:
    """Class-T values with at least 32 triples: meet_in_middle's certify rounds run."""

    def test_seeded_sample_resolves_to_five(self):
        rng = random.Random(32)
        lo, hi, count = 6254, 10**6, 6
        sample = []
        for i in range(count):
            a = int(lo * (hi / lo) ** (i / count))
            b = int(lo * (hi / lo) ** ((i + 1) / count))
            while True:
                t = rng.randrange(a + (2 - a) % 4, b, 4)
                if classify(t) is STClass.T and len(enumerate_triples(t)) >= 32:
                    sample.append(t)
                    break
        for t in sample:
            res = compute_C(3, t)
            assert (res.value, res.reason) == (5, Reason.SEARCHED), t
            assert res.certificate.t == t and len(res.certificate) == 5, t
            assert verify_cycle(res.certificate).valid, t


def test_classifies_at_most_once_per_resolve():
    # min_odd_cycle checks the class again for outside callers; inside
    # compute_C that check is a hit in the cache reason_of has just filled
    for r in [*range(2, 400, 4), 40, 99994, 999994, 999998]:
        arith.classify.cache_clear()
        res = compute_C(3, r)
        assert arith.classify.cache_info().misses <= 1, r
        core = res.reduced_r
        if core % 2 == 0:
            cls = arith.classify(core)
            assert res.reason is (Reason.TRIANGLE if cls is STClass.S else Reason.SEARCHED), r


def test_class_t_cores_never_reach_the_triangle_loop(monkeypatch):
    def class_s_only(s):
        if arith.classify(s) is STClass.T:
            raise AssertionError(f"triangle_cycle ran on the class-T core {s}")
        return triangle_cycle(s)

    monkeypatch.setattr(resolver, "triangle_cycle", class_s_only)
    reasons = {compute_C(3, t).reason for t in range(1, 2000)}
    assert reasons == {Reason.ODD_R, Reason.TRIANGLE, Reason.SEARCHED}


def test_class_s_cores_never_reach_the_ladder(monkeypatch):
    laddered = []

    def spy(t):
        laddered.append(t)
        return search.min_odd_cycle(t)

    monkeypatch.setattr(resolver, "min_odd_cycle", spy)
    results = [compute_C(3, t) for t in range(1, 2000)]
    assert laddered and all(arith.classify(t) is STClass.T for t in laddered)
    class_s = [res for res in results if res.reduced_r % 2 == 0
               and arith.classify(res.reduced_r) is STClass.S]
    assert class_s and all(res.reason is Reason.TRIANGLE for res in class_s)
