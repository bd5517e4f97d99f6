"""Engine behavior: verification, exhaustion, agreement, special-form search."""

import csv
import os
import random
import subprocess
import sys
from itertools import combinations_with_replacement, permutations, product
from math import comb, isqrt
from pathlib import Path

import numpy as np
import pytest

from oddcycles import search
from oddcycles.arith import STClass, classify, enumerate_triples
from oddcycles.resolver import compute_C
from oddcycles.search import (
    _FIRST_CHUNK,
    _LAST_CHUNK,
    OddCycle,
    _canon,
    _closing_pair,
    _first_hit,
    _half_sums,
    _key_base,
    _keys,
    _probe_chunks,
    _rebuild,
    _seed_chunks,
    _signed_perm,
    _unrank,
    brute_force,
    meet_in_middle,
    min_odd_cycle,
    modified_five_cycle,
    verify_cycle,
)
from oddcycles.vectors import VectorSet, vector_set

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "data" / "c3_chart_golden.csv"

# Known certificates (t = 22 nine-cycle, t = 82 seven-cycle).
NINE_CYCLE_22 = [
    (2, -3, -3), (2, -3, -3), (2, -3, -3),
    (-3, 2, -3), (-3, 2, 3), (-3, 2, 3),
    (-3, -3, 2), (3, 3, 2), (3, 3, 2),
]
SEVEN_CYCLE_82 = [
    (-9, 0, -1), (-1, -9, 0), (8, -3, 3), (-9, 0, 1),
    (3, 8, 3), (8, 3, 3), (0, 1, -9),
]


class TestVerifyCycle:
    def test_nine_cycle_22(self):
        assert verify_cycle(OddCycle.from_vectors(22, NINE_CYCLE_22)).valid

    def test_seven_cycle_82(self):
        assert verify_cycle(OddCycle.from_vectors(82, SEVEN_CYCLE_82)).valid

    def test_perturbed_cycle_invalid(self):
        bad = [(-v[0], v[1], v[2]) if i == 0 else v for i, v in enumerate(SEVEN_CYCLE_82)]
        diag = verify_cycle(OddCycle.from_vectors(82, bad))
        assert not diag.valid
        assert "sum" in diag.reason

    def test_even_length_invalid(self):
        diag = verify_cycle(OddCycle.from_vectors(2, [(1, 1, 0), (-1, -1, 0)]))
        assert not diag.valid
        assert "odd" in diag.reason

    def test_magnitude_mismatch_invalid(self):
        diag = verify_cycle(
            OddCycle.from_vectors(2, [(1, 1, 0), (0, -1, -1), (-1, 0, 1)])
        )
        assert diag.valid
        diag = verify_cycle(
            OddCycle.from_vectors(3, [(1, 1, 0), (0, -1, -1), (-1, 0, 1)])
        )
        assert not diag.valid

    def test_forged_outcome_rejected_under_optimize(self):
        # python -O strips asserts; the certificate check must still run
        code = (
            "from oddcycles.search import OddCycle, SearchOutcome\n"
            "SearchOutcome(length_tried=3, found=OddCycle(2, ((1, 1, 0),) * 3),"
            " nodes_examined=0)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert "invalid cycle" in proc.stderr


class TestBruteForce:
    def test_no_five_cycle_at_22(self):
        out = brute_force(vector_set(22), 5)
        assert out.found is None and out.exhausted

    def test_finds_nine_cycle_at_22(self):
        out = brute_force(vector_set(22), 9)
        assert out.found is not None and len(out.found) == 9

    def test_finds_three_cycle_at_2(self):
        out = brute_force(vector_set(2), 3)
        assert out.found is not None
        assert verify_cycle(out.found).valid

    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            brute_force(vector_set(2), 4)

    def test_budget_exceeded_is_flagged(self):
        out = brute_force(vector_set(190), 7, node_budget=1000)
        assert out.found is None and not out.exhausted and out.budget_exceeded

    def test_toy_enumeration_is_complete(self):
        # A node is an index prefix.  It is visited when every shorter
        # prefix passes the bound |partial sum| <= (n - length) * isqrt(t)
        # in each coordinate; a prefix that fails it is visited but cut.
        rows = ((1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, -1))  # not closed under B3
        toy = VectorSet(9, np.array(rows), np.array([0]))
        for vs, n in ((toy, 3), (vector_set(22), 3), (vector_set(22), 5)):
            vecs, nv, cmax = vs.vectors, len(vs.vectors), isqrt(vs.t)

            def psum(prefix):
                return [sum(vecs[i][j] for i in prefix) for j in range(3)]

            def admitted(prefix):
                return all(abs(x) <= (n - len(prefix)) * cmax for x in psum(prefix))

            visited = sum(
                all(admitted(p[:j]) for j in range(1, k))
                for k in range(1, n + 1)
                for p in combinations_with_replacement(range(nv), k)
            )
            unpruned = sum(comb(nv + k - 1, k) for k in range(1, n + 1))
            out = brute_force(vs, n)
            assert out.exhausted and out.found is None
            assert out.nodes_examined == visited < unpruned, (vs.t, n)
            assert not any(
                psum(p) == [0, 0, 0] for p in combinations_with_replacement(range(nv), n)
            )


def set_join_oracle(vs: VectorSet, n: int) -> bool:
    """Whether some n-multiset of vs sums to zero, with no orbit quotient.

    D_h, the distinct h-sums, is built as a sorted key array; a cycle is a
    sum s in D_h1 and a vector v with -(s + v) in D_h1 (h2 = h1 + 1).
    """
    keys = _keys(vs.vectors, _key_base(vs.t, vs.coords, n))
    sums = np.zeros(1, dtype=np.int64)
    for _ in range(n // 2):
        sums = np.sort((sums[:, None] + keys[None, :]).ravel())
        sums = sums[np.r_[True, sums[1:] != sums[:-1]]]
    for k in keys:
        probe = -(sums + k)
        idx = np.minimum(np.searchsorted(sums, probe), len(sums) - 1)
        if (sums[idx] == probe).any():
            return True
    return False


class TestMeetInMiddle:
    def test_quotient_verdicts_match_set_join_oracle(self):
        for t in range(2, 400, 4):
            if classify(t) is not STClass.T:
                continue
            vs = vector_set(t)
            for n in (5, 7):
                out = meet_in_middle(vs, n)
                assert (out.found is not None) == set_join_oracle(vs, n), (t, n)
                assert out.exhausted == (out.found is None), (t, n)
                if out.found is not None:
                    assert len(out.found) == n and verify_cycle(out.found).valid

    def test_golden_exhaustions_match_set_join_oracle(self):
        # every length below C_3 on the chart's values above 5 is an exhaustion
        # claim; the oracle checks each, and the length C_3 itself, unquotiented
        with open(GOLDEN) as fh:
            golden = [(int(r["n"]), int(r["c3"])) for r in csv.DictReader(fh)]
        above_five = [(t, c3) for t, c3 in golden if c3 > 5]
        assert len(above_five) == 16
        for t, c3 in above_five:
            vs = vector_set(t)
            for n in range(3, c3 + 1, 2):
                found = set_join_oracle(vs, n)
                assert found == (n == c3), (t, n)
                out = meet_in_middle(vs, n)
                assert (out.found is not None) == found, (t, n)
                assert out.exhausted == (not found), (t, n)

    def test_exhausts_nine_at_58(self):
        out = meet_in_middle(vector_set(58), 9)
        assert out.found is None and out.exhausted

    def test_finds_eleven_at_58(self):
        out = meet_in_middle(vector_set(58), 11)
        assert out.found is not None and len(out.found) == 11

    def test_190_seven_exhausted_nine_found(self):
        vs = vector_set(190)
        assert meet_in_middle(vs, 7).found is None
        assert meet_in_middle(vs, 9).found is not None

    def test_memory_budget_error(self, monkeypatch):
        monkeypatch.setattr(search, "MEMORY_BUDGET", 1000)
        out = meet_in_middle(vector_set(1002), 9)
        assert out.budget_exceeded and out.found is None and not out.exhausted
        assert (out.length_tried, out.nodes_examined) == (9, 0)

    def test_budget_counts_quotient_left_keys(self, monkeypatch):
        # n = 5: the left side is canon(r + v), |R| * |V| keys before dedupe
        vs = vector_set(1002)
        size = 4 * 192
        assert len(vs.reps) == 4
        monkeypatch.setattr(search, "MEMORY_BUDGET", size)
        assert meet_in_middle(vs, 5).nodes_examined >= size
        monkeypatch.setattr(search, "MEMORY_BUDGET", size - 1)
        out = meet_in_middle(vs, 5)
        assert out.budget_exceeded and out.nodes_examined == 0


class TestModifiedFiveCycle:
    def test_finds_at_1002(self):
        out = modified_five_cycle(1002)
        assert out.found is not None
        assert verify_cycle(out.found).valid

    def test_exhausts_at_22(self):
        out = modified_five_cycle(22)
        assert out.found is None and out.exhausted

    def test_finds_at_2010(self):
        out = modified_five_cycle(2010)
        assert out.found is not None

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            modified_five_cycle(12)

    def test_memory_budget_outcome(self, monkeypatch):
        # the left side is canon(r + v), |R| * |V| = 4 * 192 keys at 1002
        monkeypatch.setattr(search, "MEMORY_BUDGET", 4 * 192)
        assert modified_five_cycle(1002).found is not None
        built = []
        monkeypatch.setattr(search, "_first_hit", lambda *a: built.append(a))
        monkeypatch.setattr(search, "MEMORY_BUDGET", 4 * 192 - 1)
        out = modified_five_cycle(1002)
        assert out.budget_exceeded and out.found is None and not out.exhausted
        assert (out.length_tried, out.nodes_examined, built) == (5, 0, [])

    def test_found_cycle_contains_closing_pair(self):
        out = modified_five_cycle(1002)
        vecs = out.found.vectors
        pairs = [
            (u, w)
            for i, u in enumerate(vecs)
            for w in vecs[i + 1 :]
            if sum(a != b for a, b in zip(u, w)) == 1
            and all(a == -b or a == b for a, b in zip(u, w))
        ]
        assert pairs, vecs

    @pytest.mark.parametrize("t", [1002, 2010, 106, 406])
    def test_success_implies_general_five_cycle(self, t):
        assert modified_five_cycle(t).found is not None
        assert meet_in_middle(vector_set(t), 5).found is not None

    @pytest.mark.parametrize("t", [58, 1002, 2062])
    def test_closing_pair_of_every_target(self, t):
        # V(58) holds (0,3,7), so some targets there have two zero coordinates
        targets = set()
        for v in vector_set(t).vectors:
            for axis in range(3):
                d = [2 * x for x in v]
                d[axis] = 0
                if any(d):
                    targets.add(tuple(d))
        assert targets
        for s in targets:
            u1, u2 = _closing_pair(t, s)
            assert tuple(a + b for a, b in zip(u1, u2)) == tuple(-x for x in s)
            assert sum(x * x for x in u1) == t and sum(x * x for x in u2) == t


class TestMinOddCycle:
    @pytest.mark.parametrize("t,n", [(82, 7), (10, 5), (330, 7)])
    def test_known_minima(self, t, n):
        found = min_odd_cycle(t)[-1].found
        assert verify_cycle(found).valid
        assert len(found) == n

    def test_rejects_class_s(self):
        with pytest.raises(ValueError):
            min_odd_cycle(18)

    def test_unresolved_below_ceiling(self, monkeypatch):
        monkeypatch.setattr(search, "N_MAX", 9)  # C_3(58) = 11
        outcomes = min_odd_cycle(58)
        assert outcomes[-1].found is None
        assert [(o.length_tried, o.exhausted) for o in outcomes] == [
            (5, True), (7, True), (9, True),
        ]

    def test_memory_error_ends_ladder_unresolved(self, monkeypatch):
        def over_budget(vs, n):
            return search.SearchOutcome(n, None, 7, budget_exceeded=True)

        monkeypatch.setattr(search, "meet_in_middle", over_budget)
        outcomes = min_odd_cycle(10)
        assert outcomes[-1].found is None
        assert [(o.length_tried, o.budget_exceeded) for o in outcomes] == [(5, True)]


class TestCertifyRounds:
    """meet_in_middle joins a few representatives against all of V(t) first."""

    @staticmethod
    def spy_on_join(monkeypatch) -> list[dict]:
        """Record every join: its left representatives, cap, hit and keys built."""
        calls = []
        join = search._join

        def spy(keys, left_reps, reps, h1, h2, base, cap):
            hit, built = join(keys, left_reps, reps, h1, h2, base, cap)
            per_rep = comb(len(keys) + h1 - 2, h1 - 1)
            calls.append(dict(
                left=left_reps.tolist(), cap=cap, hit=hit, built=built, per_rep=per_rep,
            ))
            return hit, built

        monkeypatch.setattr(search, "_join", spy)
        return calls

    @pytest.mark.parametrize(
        "t,nr,nv",
        [(999994, 126, 6048), (99994, 49, 2280), (6254, 35, 1680)],
        ids=["999994", "99994", "6254"],
    )
    def test_first_round_hits(self, monkeypatch, t, nr, nv):
        vs = vector_set(t)
        assert (len(vs.reps), len(vs)) == (nr, nv)
        joins = self.spy_on_join(monkeypatch)
        out = meet_in_middle(vs, 5)
        assert out.found is not None and verify_cycle(out.found).valid
        [join] = joins
        assert join["left"] == [int(vs.reps[i * nr // 8]) for i in range(8)]
        assert join["cap"] == 8 * nv and join["hit"] is not None
        assert out.nodes_examined == join["built"] <= 2 * 8 * nv

    def test_no_round_below_6254(self):
        # rounds need 32 representatives, one per triple; 6254, the first
        # class-T value with 32, is a case of test_first_round_hits
        small = [
            t for t in range(2, 6254, 4)
            if classify(t) is STClass.T and len(enumerate_triples(t)) >= 32
        ]
        assert small == []

    @pytest.mark.parametrize("t,first", [(999994, 32), (99994, 2)])
    def test_round_left_sides_are_chosen_representatives(self, monkeypatch, t, first):
        # every certify round is made to miss, so the whole schedule runs
        monkeypatch.setattr(search, "_FIRST_LEFT", first)
        monkeypatch.setattr(search, "_ROUND_SHARE", first)
        vs = vector_set(t)
        nr, nv = len(vs.reps), len(vs)
        join = search._join
        monkeypatch.setattr(
            search, "_join",
            lambda keys, *args: (None, 0) if args[-1] is not None else join(keys, *args),
        )
        joins = self.spy_on_join(monkeypatch)
        out = meet_in_middle(vs, 5)
        assert out.found is not None and verify_cycle(out.found).valid
        want = []
        k = first
        while first * k <= nr:
            want.append(([int(vs.reps[i * nr // k]) for i in range(k)], k * nv))
            k *= 2
        want.append((vs.reps.tolist(), None))
        assert [(j["left"], j["cap"]) for j in joins] == want
        assert [len(left) for left, _ in want] == ([2, 4, 8, 16, 49] if t == 99994 else [126])

    def test_rounds_keep_verdicts(self, monkeypatch):
        # one representative in the first round, and rounds up to all of R,
        # make rounds run on the chart's small t
        monkeypatch.setattr(search, "_ROUND_SHARE", 1)
        with open(GOLDEN) as fh:
            values = [int(r["n"]) for r in csv.DictReader(fh) if int(r["c3"]) > 5]
        joins = self.spy_on_join(monkeypatch)
        for t in values:
            monkeypatch.setattr(search, "_FIRST_LEFT", 10**9)
            plain = min_odd_cycle(t)
            monkeypatch.setattr(search, "_FIRST_LEFT", 1)
            joins.clear()
            rounds = min_odd_cycle(t)
            certify = [j for j in joins if j["cap"] is not None]
            assert certify, t
            for j in certify:  # a certify round probes at most its left side
                assert j["built"] <= 2 * len(j["left"]) * j["per_rep"], t
            assert len(rounds[-1].found) == len(plain[-1].found) > 5, t
            assert [(o.length_tried, o.exhausted) for o in rounds] == [
                (o.length_tried, o.exhausted) for o in plain
            ], t
            assert len(rounds[-1].found) == rounds[-1].length_tried, t
            assert verify_cycle(rounds[-1].found).valid, t

    def test_missed_round_is_not_exhaustion(self, monkeypatch):
        # C_3(82) = 7, so the one-representative round at n = 5 misses; the
        # next round's left side is the full one, over budget, so the call
        # must end budget_exceeded, not exhausted
        monkeypatch.setattr(search, "_FIRST_LEFT", 1)
        monkeypatch.setattr(search, "_ROUND_SHARE", 1)
        vs = vector_set(82)
        full = len(vs.reps) * len(vs)
        monkeypatch.setattr(search, "MEMORY_BUDGET", full - 1)
        joins = self.spy_on_join(monkeypatch)
        out = meet_in_middle(vs, 5)
        assert out.budget_exceeded and out.found is None and not out.exhausted
        [join] = joins
        assert len(join["left"]) == 1 < len(vs.reps) and join["hit"] is None
        assert join["built"] <= 2 * len(vs)  # |V| left keys, at most as many probes
        # the budget outcome keeps the keys the missed round built
        assert out.nodes_examined == join["built"] == 96
        outcomes = min_odd_cycle(82)
        assert outcomes[-1].found is None
        assert [
            (o.length_tried, o.exhausted, o.budget_exceeded, o.nodes_examined)
            for o in outcomes
        ] == [(5, False, True, join["built"])]

    def test_round_settles_a_value_over_budget(self, monkeypatch):
        vs = vector_set(999994)
        assert len(vs.reps) * len(vs) == 126 * 6048
        monkeypatch.setattr(search, "MEMORY_BUDGET", 200_000)
        out = meet_in_middle(vs, 5)
        assert out.found is not None and not out.exhausted
        assert len(out.found) == 5 and verify_cycle(out.found).valid
        assert out.nodes_examined <= 2 * 8 * 6048
        # below the first round's left side, 8 representatives * 6048 vectors
        monkeypatch.setattr(search, "MEMORY_BUDGET", 8 * 6048 - 1)
        out = meet_in_middle(vs, 5)
        assert out.budget_exceeded and out.found is None and out.nodes_examined == 0

    def test_certifies_five_at_100000002(self):
        # the full n = 5 left side, |R| * |V| = 988 * 47232 keys, is over budget
        res = compute_C(3, 100000002)
        assert res.value == 5 and verify_cycle(res.certificate).valid
        assert res.nodes_examined < search.MEMORY_BUDGET


class TestEngineAgreementSmall:
    @pytest.mark.parametrize("t", [10, 22, 34])
    def test_verdicts_match(self, t):
        vs = vector_set(t)
        for n in (3, 5, 7):
            bf = brute_force(vs, n, node_budget=2_000_000)
            if bf.budget_exceeded:
                continue
            mm = meet_in_middle(vs, n)
            assert (bf.found is None) == (mm.found is None), (t, n)
            assert bf.exhausted == mm.exhausted, (t, n)


def unrank_by_scan(nv: int, h: int, row: int) -> tuple[int, ...]:
    """_unrank by skipping one smallest index at a time: the slow reference."""
    idx = []
    lo = 0
    for k in range(h, 0, -1):
        # k-multisets over [lo, nv) whose smallest index is lo
        while row >= (cnt := comb(nv - lo + k - 2, k - 1)):
            row -= cnt
            lo += 1
        idx.append(lo)
    return tuple(idx)


def sorted_first_hit(left: np.ndarray, probes) -> tuple:
    """_first_hit by sorting each probe chunk: the reference for the filter."""
    ordered = np.sort(left)
    nodes = len(left)
    row0 = 0
    for keys in probes:
        nodes += len(keys)
        probe = np.sort(keys)
        idx = np.searchsorted(ordered, probe)
        np.minimum(idx, len(ordered) - 1, out=idx)
        common = probe[ordered[idx] == probe]
        if len(common):
            j = int(np.argmax(np.isin(keys, common)))
            return (row0 + j, int(np.argmax(left == keys[j]))), nodes
        row0 += len(keys)
    return None, nodes


class TestFirstHitFilter:
    """_first_hit returns what sorting every probe chunk would."""

    SIZES = (64, 128, 256, 512, 1024)  # probe chunks, doubling as _probe_chunks' do

    @staticmethod
    def stream(rng, left, pool, plants):
        """Probe chunks of SIZES drawn from pool (no key of left), with
        left keys planted at the probe rows in plants."""
        probes = rng.choice(pool[~np.isin(pool, left)], sum(TestFirstHitFilter.SIZES))
        probes[plants] = rng.choice(left, len(plants))
        return np.split(probes, np.cumsum(TestFirstHitFilter.SIZES)[:-1])

    @pytest.mark.parametrize("case", [
        "no_hit", "first_chunk", "later_chunk", "several_in_chunk",
        "repeated_left", "one_key_left", "largest_base",
    ])
    def test_matches_sort_oracle(self, case):
        rng = np.random.default_rng(sum(map(ord, case)))
        ends = np.cumsum((0,) + self.SIZES)
        for _ in range(20):
            left = rng.integers(-(2**62), 2**62, 3000)
            pool = rng.integers(-(2**62), 2**62, 5000)
            plants = []
            if case == "first_chunk":
                plants = [rng.integers(ends[1])]
            elif case == "later_chunk":
                k = rng.integers(1, len(self.SIZES))
                plants = [rng.integers(ends[k], ends[k + 1])]
            elif case == "several_in_chunk":
                k = rng.integers(len(self.SIZES))
                plants = rng.choice(np.arange(ends[k], ends[k + 1]), 4, replace=False)
            elif case == "repeated_left":
                left = rng.integers(-40, 40, 300)  # every key about 4 times
                pool = np.arange(-200, 200)
                plants = rng.choice(ends[-1], 3, replace=False)
            elif case == "one_key_left":
                left = left[:1]
                plants = rng.choice(ends[-1], rng.integers(0, 3), replace=False)
            elif case == "largest_base":
                # raw and canon keys of sums with digits up to offset = B/2 - 1
                base = 2**21
                offset = base // 2 - 1
                digits = rng.integers(-offset, offset + 1, (8000, 3))
                digits[rng.random((8000, 3)) < 0.3] = offset
                digits[rng.random((8000, 3)) < 0.3] = -offset
                keys = _keys(digits, base)
                if rng.random() < 0.5:
                    keys = _canon(keys, base)
                left, pool = keys[:3000], keys[3000:]
                plants = rng.choice(ends[-1], rng.integers(0, 3), replace=False)
            chunks = self.stream(rng, left, pool, plants)
            got = _first_hit(left, iter(chunks))
            assert got == sorted_first_hit(left, iter(chunks)), case
            # the planted keys are the only hits: the first of them wins
            first = min(plants, default=None)
            assert (None if got[0] is None else got[0][0]) == first, case
            if got[0] is not None:
                j, i = got[0]
                assert left[i] == np.concatenate(chunks)[j] and left[i] not in left[:i]


class TestJoinKernel:
    @pytest.mark.parametrize("nv,h", [
        (1, 1), (1, 4), (5, 1), (4, 2), (5, 3), (3, 5), (6, 4),
        *((6048, h) for h in range(1, 7)),  # |V(999994)|
    ])
    def test_unrank_is_lexicographic(self, nv, h):
        total = comb(nv + h - 1, h)
        if total <= 10**4:
            expected = list(combinations_with_replacement(range(nv), h))
            assert [_unrank(nv, h, row) for row in range(total)] == expected
            return
        assert _unrank(nv, h, 0) == (0,) * h
        assert _unrank(nv, h, total - 1) == (nv - 1,) * h
        rng = random.Random(nv * 10 + h)
        rows = [0, 1, total - 2, total - 1, *(rng.randrange(total) for _ in range(20))]
        for row in rows:
            assert _unrank(nv, h, row) == unrank_by_scan(nv, h, row), row
        rows.sort()
        assert [_unrank(nv, h, r) for r in rows] == sorted(unrank_by_scan(nv, h, r) for r in rows)

    @pytest.mark.parametrize(
        "nv,h,target", [(5, 2, 4), (6, 3, 10), (7, 4, 1), (4, 3, 100), (30, 2, 8)]
    )
    def test_chunk_rows_unrank_in_order(self, monkeypatch, nv, h, target):
        # chunk k's target is _FIRST_CHUNK * 2**k sums, capped at _SUMS_CHUNK
        monkeypatch.setattr(search, "_FIRST_CHUNK", target)
        monkeypatch.setattr(search, "_SUMS_CHUNK", 4 * target)
        # key (h+1)**i writes a multiset's index counts as base-(h+1) digits
        keys = (h + 1) ** np.arange(nv, dtype=np.int64)
        chunks = _seed_chunks(nv, h)
        assert iter(chunks) is chunks  # made as they are asked for
        row0 = 0
        for k, (lo, hi) in enumerate(chunks):
            cap = min(target << k, 4 * target)
            sums = _half_sums(keys, h, lo, hi)
            assert len(sums) == sum(comb(nv - i + h - 2, h - 1) for i in range(lo, hi))
            assert len(sums) <= cap or hi - lo == 1
            if hi < nv:  # the chunk took every seed that fits its target
                assert len(sums) + comb(nv - hi + h - 2, h - 1) > cap
            rows = [_unrank(nv, h, row0 + r) for r in range(len(sums))]
            assert all(lo <= row[0] < hi for row in rows)
            assert sums.tolist() == [sum((h + 1) ** i for i in row) for row in rows]
            row0 += len(sums)
        assert row0 == comb(nv + h - 1, h)

    def test_key_of_sum_at_largest_base(self):
        # the largest power-of-two base the guard admits, at span 3
        # (modified engine): 3 * bits <= 63, and sums reach -offset and
        # offset = B/2 - 1, the widest digits below B/2
        base = 2**21
        assert base**3 <= 2**63 < (2 * base) ** 3
        offset = base // 2 - 1
        c = offset // 3
        assert 3 * c == offset
        vecs = ((c, -c, c), (c, -c, 0), (-c, c, -c), (0, c, -c), (c, 0, c))
        assert _key_base(0, np.array(vecs), 3) == base
        # one more, and 2*offset needs a 22nd bit
        with pytest.raises(ValueError, match="too large"):
            _key_base(0, np.array(vecs + ((c + 1, 0, 0),)), 3)

        def key(v):
            return (v[0] * base + v[1]) * base + v[2]

        rows = list(combinations_with_replacement(range(len(vecs)), 3))
        sums = [tuple(sum(vecs[i][j] for i in row) for j in range(3)) for row in rows]
        assert (offset, -offset, offset) in sums and (-offset, offset, -offset) in sums
        keys = _keys(vecs, base)
        assert _half_sums(keys, 3, 0, len(vecs)).tolist() == [key(s) for s in sums]
        ends = (-offset, offset)
        edge = [(x, y, z) for x in ends for y in ends for z in (-offset, 0, offset)]
        points = sorted(set(sums) | set(edge))
        assert _keys(points, base).tolist() == [key(p) for p in points]
        assert len({key(p) for p in points}) == len(points)

    def test_first_hit_rows(self):
        left = np.array([7, 3, 9, 3, 5], dtype=np.int64)
        probes = [np.array([1, 2], dtype=np.int64), np.array([4, 3, 9], dtype=np.int64)]
        # probe row 3 (key 3) is the first hit; left rows 1 and 3 hold 3
        assert _first_hit(left, iter(probes)) == ((3, 1), 10)
        assert _first_hit(left, iter([np.array([10, 0], dtype=np.int64)])) == (None, 7)


    @pytest.mark.parametrize("t", [22, 58, 1002, 99994])
    def test_representatives_are_the_triples(self, t):
        vs = vector_set(t)
        reps = [vs.vectors[i] for i in vs.reps]
        assert reps == [tuple(tr) for tr in enumerate_triples(t)]

    def test_canon_key_sorts_absolute_values(self):
        # V(58) holds (0, 3, 7) and V(22) holds (2, 3, 3): sums with zero
        # and with equal-magnitude coordinates
        for t in (22, 58):
            vs = vector_set(t)
            base = _key_base(vs.t, vs.coords, 3)
            rows = list(combinations_with_replacement(range(len(vs)), 3))
            sums = [[sum(vs.vectors[i][j] for i in row) for j in range(3)] for row in rows]
            want = _keys([sorted(map(abs, w)) for w in sums], base)
            got = _canon(_half_sums(_keys(vs.vectors, base), 3, 0, len(vs)), base)
            assert got.tolist() == want.tolist()

    def test_canon_at_largest_base(self):
        # with every digit moved up by B/2, (offset, offset, offset) is 2**63 - 1
        base = 2**21
        offset = base // 2 - 1
        assert _key_base(0, np.array([[offset, 0, 0]]), 1) == base
        with pytest.raises(ValueError, match="too large"):
            _key_base(0, np.array([[offset + 1, 0, 0]]), 1)
        top = (offset * base + offset) * base + offset
        assert top + base // 2 * (base * base + base + 1) == 2**63 - 1
        ends = (-offset, -1, 0, 1, offset)
        points = [(x, y, z) for x in ends for y in ends for z in ends]
        got = _canon(_keys(points, base), base)
        assert got.tolist() == _keys([sorted(map(abs, p)) for p in points], base).tolist()

    @pytest.mark.parametrize("src", [
        (0, 0, 0), (0, 0, 5), (0, 3, -3), (2, 2, 2), (1, -1, 0), (4, -4, 7), (-6, 9, -9),
    ])
    def test_signed_perm_maps_src_to_every_image(self, src):
        images = set()
        for perm in permutations(range(3)):
            for signs in product((1, -1), repeat=3):
                images.add(tuple(signs[k] * src[perm[k]] for k in range(3)))
        for dst in images:
            g = _signed_perm(src, dst)
            assert g(src) == dst, (src, dst)
            units = [g(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            assert sorted(map(abs, sum(units, ()))) == [0] * 6 + [1] * 3
            assert {tuple(map(abs, u)).index(1) for u in units} == {0, 1, 2}

    @pytest.mark.parametrize("t,cycle", [(22, NINE_CYCLE_22), (82, SEVEN_CYCLE_82)])
    def test_rebuild_from_any_moved_left_part(self, t, cycle):
        # split a cycle, move its left part by any signed permutation h:
        # the rebuild must undo h far enough to close the cycle again
        for k in range(1, len(cycle)):
            left, probe = cycle[:k], cycle[k:]
            for perm in permutations(range(3)):
                for signs in product((1, -1), repeat=3):
                    moved = [tuple(signs[j] * v[perm[j]] for j in range(3)) for v in left]
                    out = _rebuild(t, moved, probe)
                    assert verify_cycle(out).valid and len(out) == len(cycle)
                    assert set(probe) <= set(out.vectors)

    def test_probe_chunk_rows_and_sizes(self):
        rng = np.random.default_rng(5)
        base = 64  # the sums' coordinates lie in [-30, 30], inside [-32, 32)
        assert _key_base(0, np.array([[30, 0, 0]]), 1) == base
        bvecs = rng.integers(-10, 11, size=(7, 3))
        avecs = [rng.integers(-20, 21, size=(m, 3)) for m in (3, 900, 5000)]
        arrays = [_keys(a, base) for a in avecs]
        chunks = list(_probe_chunks(iter(arrays), _keys(bvecs, base), base))
        sums = [a + b for a in np.concatenate(avecs) for b in bvecs]
        want = _keys([sorted(map(abs, w)) for w in sums], base)
        assert np.concatenate(chunks).tolist() == want.tolist()
        assert all(len(c) % len(bvecs) == 0 for c in chunks)
        sizes = [len(c) // len(bvecs) for c in chunks]
        full = [max(1, min(_FIRST_CHUNK << i, _LAST_CHUNK) // 7) for i in range(len(chunks))]
        # each chunk is its doubling target, cut short only where an array ends
        assert all(got <= cap for got, cap in zip(sizes, full))
        assert sizes[0] == 3 and sizes[1] == full[1]
        # a cap ends the chunks at the last whole row that keeps them within it
        for cap in (6, 7, 100, 7 * 4000 + 3):
            capped = list(_probe_chunks(iter(arrays), _keys(bvecs, base), base, cap))
            got = np.concatenate(capped) if capped else np.zeros(0, dtype=np.int64)
            assert got.tolist() == want[: cap // 7 * 7].tolist()


class TestRepeatability:
    """An engine called twice on the same input gives equal outcomes."""

    @pytest.mark.parametrize(
        "engine",
        [
            lambda: brute_force(vector_set(22), 9),
            lambda: meet_in_middle(vector_set(999994), 5),
            lambda: modified_five_cycle(1002),
            lambda: min_odd_cycle(2062),
        ],
        ids=["brute_force", "meet_in_middle", "modified_five_cycle", "min_odd_cycle"],
    )
    def test_same_input_same_outcome(self, engine):
        first = engine()
        assert engine() == first


class TestPinnedCertificates:
    """Exact certificates; a change in which witness the join returns fails here."""

    def test_mitm_nine_at_22(self):
        out = meet_in_middle(vector_set(22), 9)
        assert out.found.t == 22 and len(out.found) == 9
        assert out.found.vectors == (
            (-3, -3, -2), (-3, -3, -2), (-3, -3, -2), (-3, 2, -3), (2, -3, 3),
            (2, 3, 3), (2, 3, 3), (3, 2, -3), (3, 2, 3),
        )

    def test_mitm_eleven_at_58(self):
        out = meet_in_middle(vector_set(58), 11)
        assert out.found.t == 58 and len(out.found) == 11
        assert out.found.vectors == (
            (-7, -3, 0), (-7, -3, 0), (-7, 3, 0), (0, 3, 7), (3, -7, 0), (3, -7, 0),
            (3, -7, 0), (3, 0, -7), (3, 7, 0), (3, 7, 0), (3, 7, 0),
        )

    def test_modified_at_1002(self):
        out = modified_five_cycle(1002)
        assert out.found.t == 1002 and len(out.found) == 5
        assert out.found.vectors == (
            (-25, -11, -16), (-16, -25, 11), (5, 31, -4), (11, 16, 25), (25, -11, -16),
        )

    def test_modified_exhausts_then_mitm_at_2062(self):
        # the ladder starts at meet_in_middle n=5; the special form has no
        # 5-cycle at 2062, though MITM finds one
        assert modified_five_cycle(2062).exhausted
        outcomes = min_odd_cycle(2062)
        assert [(o.length_tried, o.exhausted) for o in outcomes] == [(5, False)]
        found = outcomes[-1].found
        assert found.t == 2062 and len(found) == 5
        assert found.vectors == (
            (-45, -6, -1), (-3, -42, 17), (-1, 6, -45), (10, 21, 39), (39, 21, -10),
        )
