"""Vector-set generation and search-space sizing."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcycles.arith import Triple, count_reps, enumerate_triples
from oddcycles.cli import main
from oddcycles.search import meet_in_middle
from oddcycles.vectors import magnitude_sq, search_space_size, vector_set


def canon(v):
    """The B3 representative of v's orbit: its absolute values, sorted."""
    return Triple(*sorted(map(abs, v)))


class TestOrbitArrays:
    @pytest.mark.parametrize(
        "triple,expected",
        [
            (Triple(2, 3, 3), 24),   # repeated entry halves the permutations
            (Triple(0, 3, 7), 24),   # zero entry halves the sign choices
            (Triple(11, 16, 25), 48),
        ],
    )
    def test_counts(self, triple, expected):
        assert len(_orbit_of(triple)) == expected

    @given(st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=60, deadline=None)
    def test_arrays_match_vectors(self, t):
        vs = vector_set(t)
        triples = enumerate_triples(t)
        assert vs.coords.dtype == np.int64 and vs.coords.shape == (len(vs), 3)
        assert vs.coords.tolist() == [list(v) for v in vs.vectors]
        assert vs.coords[vs.reps].tolist() == [list(tr) for tr in triples]
        assert {canon(v) for v in vs.vectors} == set(triples)

    @pytest.mark.parametrize("t", [7, 28])
    def test_empty(self, capsys, t):
        vs = vector_set(t)
        assert len(vs) == 0 and vs.coords.shape == (0, 3) and len(vs.reps) == 0
        assert main(["vectors", str(t)]) == 0
        assert capsys.readouterr().out == f"|V({t})| = 0\n"
        out = meet_in_middle(vs, 5)
        assert out.exhausted and out.nodes_examined == 0


def _orbit_of(triple):
    """The vectors of V(triple.value) in the B3 orbit of ``triple``, in V(t) order."""
    assert triple in enumerate_triples(triple.value)
    return [v for v in vector_set(triple.value).vectors if canon(v) == triple]


class TestExpandTriple:
    """One triple's orbit, as the vectors of V(t) whose canon it is."""

    def test_all_have_right_magnitude(self):
        tr = Triple(2, 3, 3)
        for v in _orbit_of(tr):
            assert magnitude_sq(v) == 22

    def test_sorted_and_distinct(self):
        vecs = _orbit_of(Triple(0, 3, 7))
        assert vecs == sorted(set(vecs))


class TestVectorSet:
    @pytest.mark.parametrize("t,size", [(1002, 192), (99994, 2280), (22, 24)])
    def test_known_sizes(self, t, size):
        assert len(vector_set(t)) == size

    @given(st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=60, deadline=None)
    def test_membership_and_symmetry(self, t):
        vs = vector_set(t)
        members = set(vs.vectors)
        for v in vs.vectors:
            assert magnitude_sq(v) == t
            assert tuple(-x for x in v) in members
            for perm in permutations(v):
                assert perm in members

    @given(st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=60, deadline=None)
    def test_size_formula(self, t):
        triples = enumerate_triples(t)
        all_distinct = all(0 < tr.a < tr.b < tr.c for tr in triples)
        size = len(vector_set(t))
        if all_distinct:
            assert size == 48 * count_reps(t)
        else:
            assert size < 48 * count_reps(t) or not triples

    def test_sorted_deterministic(self):
        vs = vector_set(1002)
        assert list(vs.vectors) == sorted(vs.vectors)


def multiset_coefficient_oracle(n_items: int, size: int) -> int:
    """Pascal-style recurrence, no factorials."""
    row = [1] * (size + 1)  # n_items = 1: one multiset of every size
    for _ in range(2, n_items + 1):
        for k in range(1, size + 1):
            row[k] += row[k - 1]
    return row[size]


class TestSearchSpaceSize:
    def test_large_scale_values(self):
        assert search_space_size(192, 5) == 2289653184
        assert search_space_size(48, 5) == 2598960
        assert search_space_size(1, 1) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            search_space_size(0, 5)
        with pytest.raises(ValueError):
            search_space_size(5, 0)

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=9),
    )
    def test_matches_recurrence_oracle(self, n_items, size):
        assert search_space_size(n_items, size) == multiset_coefficient_oracle(
            n_items, size
        )
