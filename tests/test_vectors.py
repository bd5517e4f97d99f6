"""Vector-set generation and search-space sizing."""

import random
from itertools import permutations, product
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcycles.arith import Triple, count_reps, enumerate_triples
from oddcycles import search, vectors
from oddcycles.cli import main
from oddcycles.resolver import compute_C
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


def vector_set_by_lexsort(t):
    """V(t) and R's rows in it, built as before the one-key sort: the 48
    B3 images of every triple, np.lexsort over the columns and a row-by-row
    repeat check."""
    triples = np.array(enumerate_triples(t), dtype=np.int64).reshape(-1, 3)
    perms = np.array(list(permutations(range(3))))
    signs = np.array(list(product((1, -1), repeat=3)))
    images = (triples[:, perms][:, :, None] * signs[None, None]).reshape(-1, 3)
    order = np.lexsort(images.T[::-1])
    images = images[order]
    keep = np.ones(len(images), dtype=bool)
    keep[1:] = (images[1:] != images[:-1]).any(axis=1)
    return images[keep], np.flatnonzero(order[keep] % 48 == 0)


def _assert_matches_lexsort(t):
    vs = vector_set(t)
    coords, reps = vector_set_by_lexsort(t)
    assert vs.coords.dtype == coords.dtype and vs.coords.shape == coords.shape, t
    assert np.array_equal(vs.coords, coords) and np.array_equal(vs.reps, reps), t


# above 2*10**4: zero coordinates (10**8 = 0 + 0 + 10**8, 2k^2 = 0 + k^2 + k^2),
# repeated ones (3k^2), empty sets (4^a (8b + 7)) and the benchmark's class-T values
_PINNED_LARGE = [
    10**8, 2 * 7071**2, 3 * 5000**2, 7 * 4**11, 8 * 10**7 + 7,
    99994, 999994, 10**7 + 2, 10**8 + 2,
]


class TestOneKeySort:
    """vector_set's one-key np.unique sort against the lexsort oracle."""

    def test_every_t_to_20000(self):
        for t in range(1, 20001):
            _assert_matches_lexsort(t)

    @pytest.mark.parametrize("t", _PINNED_LARGE)
    def test_pinned_large(self, t):
        _assert_matches_lexsort(t)

    def test_seeded_sample_to_1e8(self):
        rng = random.Random(20261019)
        for _ in range(24):  # log-uniform over (2*10**4, 10**8]
            _assert_matches_lexsort(int(2 * 10**4 * 5000 ** rng.random()))

    def test_pinned_values_cover_zeros_repeats_and_empty_sets(self):
        def r(t):
            vs = vector_set(t)
            return vs.coords[vs.reps]

        assert len(r(7)) == len(r(7 * 4**11)) == len(r(8 * 10**7 + 7)) == 0
        assert (r(25) == 0).any() and (r(10**8) == 0).any()
        assert (r(2 * 7071**2) == [0, 7071, 7071]).all(axis=1).any()
        assert (r(22) == [2, 3, 3]).all(axis=1).any()
        assert (r(3 * 5000**2) == 5000).all(axis=1).any()

    def test_key_bound(self):
        # the largest key, 8c^2 + 8c + 1 with c = isqrt(t), fits an int64
        # exactly while t < 2**60
        for t, fits in ((2**60 - 1, True), (2**60, False)):
            c = isqrt(t)
            assert (8 * c * c + 8 * c + 1 < 2**63) == fits

    @pytest.mark.parametrize("t", [2**60, 2**62])
    def test_rejects_t_past_the_key_bound(self, monkeypatch, t):
        def never(z):
            raise AssertionError("enumerate_triples ran before the bound check")

        monkeypatch.setattr(vectors, "enumerate_triples", never)
        with pytest.raises(ValueError, match="2\\*\\*60"):
            vector_set(t)


class TestVectorSetValue:
    def test_equality_is_t_and_coords(self):
        assert vector_set(1002) == vector_set(1002)
        assert vector_set(1002) != vector_set(1006)
        assert vector_set(7) != vector_set(28)  # both empty
        assert vector_set(22) != vector_set(22).coords

    def test_tuple_view_is_built_once_on_demand(self):
        vs = vector_set(22)
        assert "vectors" not in vs.__dict__
        assert vs.vectors is vs.vectors
        assert vs.vectors == tuple(map(tuple, vs.coords.tolist()))
        assert all(type(x) is int for v in vs.vectors for x in v)

    def test_cli_lists_the_rows_in_order(self, capsys):
        assert main(["vectors", "22", "--list"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows == ["(" + ",".join(map(str, v)) + ")" for v in vector_set(22).vectors]

    def test_resolves_never_build_the_tuple_view(self, monkeypatch):
        built = []

        def spy(t):
            built.append(vector_set(t))
            return built[-1]

        monkeypatch.setattr(search, "vector_set", spy)
        assert compute_C(3, 999994).value == 5
        vs = vector_set(10**8 + 2)
        assert meet_in_middle(vs, 5).found is not None
        assert len(built) == 1 and built[0].t == 999994
        assert all("vectors" not in v.__dict__ for v in (*built, vs))


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
