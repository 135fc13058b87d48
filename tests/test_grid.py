"""Grid geometry and snake-path tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lslab.errors import BudgetExceeded
from lslab.grid import (
    DEFAULT_SCAN_LIMIT,
    GridShape,
    _snake_path,
    l1_distance,
    neighbors,
    snake_predecessor,
    snake_rank,
    snake_successor,
    snake_unrank,
)


def snake_path(shape):
    return [snake_unrank(shape, t) for t in range(1, shape.vertex_count + 1)]


class TestShape:
    def test_vertex_count(self):
        assert GridShape(3, 2).vertex_count == 9
        assert GridShape(2, 10).vertex_count == 1024

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            GridShape(1, 3)
        with pytest.raises(ValueError):
            GridShape(4, 0)

    def test_contains(self):
        s = GridShape(3, 2)
        assert s.contains((1, 3))
        assert not s.contains((0, 2))
        assert not s.contains((1, 1, 1))
        # a coordinate must equal an integer of 1..k, so 1.0 and True pass
        assert not s.contains((1.5, 2))
        assert not s.contains((2, 2.5))
        assert s.contains((1.0, True))

    def test_wide_side_checked_without_a_coordinate_set(self):
        # a side over the scan limit gets no coordinate set (checked first,
        # on a side whose set would still be affordable), so on k = 10^12
        # the check compares coordinates and builds nothing
        assert len(GridShape(DEFAULT_SCAN_LIMIT, 2).coords) == DEFAULT_SCAN_LIMIT
        assert GridShape(DEFAULT_SCAN_LIMIT + 1, 2).coords is None
        s = GridShape(10**12, 2)
        assert s.contains((10**12, 1)) and s.contains((1.0, True))
        for v in [(1.5, 2), (0, 1), (1, 10**12 + 1), (1,)]:
            assert not s.contains(v)
            with pytest.raises(ValueError):
                snake_rank(s, v)
            with pytest.raises(ValueError):
                neighbors(s, v)
        assert snake_rank(s, (10**12, 2)) == 10**12 + 1
        assert neighbors(s, (1, 10**12)) == [(2, 10**12), (1, 10**12 - 1)]
        assert s.coords is None

    def test_iter_budget(self):
        with pytest.raises(BudgetExceeded):
            list(GridShape(2, 20).iter_vertices())


class TestNeighbors:
    def test_hypercube_corner(self):
        assert set(neighbors(GridShape(2, 2), (1, 1))) == {(2, 1), (1, 2)}

    def test_line_interior(self):
        assert set(neighbors(GridShape(3, 1), (2,))) == {(1,), (3,)}

    def test_interior_degree(self):
        assert set(neighbors(GridShape(3, 2), (2, 2))) == {(1, 2), (3, 2), (2, 1), (2, 3)}

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            neighbors(GridShape(3, 2), (0, 1))

    def test_symmetric(self):
        shape = GridShape(4, 2)
        for v in shape.iter_vertices():
            for w in neighbors(shape, v):
                assert v in neighbors(shape, w)


class TestL1Distance:
    def test_identity(self):
        assert l1_distance((1, 1), (1, 1)) == 0

    def test_example(self):
        assert l1_distance((1, 3), (2, 1)) == 3

    def test_hamming_on_bits(self):
        assert l1_distance((1, 2, 2), (2, 2, 1)) == 2

    def test_mismatch(self):
        with pytest.raises(ValueError):
            l1_distance((1, 2), (1, 2, 3))

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=6).flatmap(
            lambda a: st.tuples(
                st.just(tuple(a)),
                st.lists(st.integers(1, 9), min_size=len(a), max_size=len(a)).map(tuple),
                st.lists(st.integers(1, 9), min_size=len(a), max_size=len(a)).map(tuple),
            )
        )
    )
    def test_metric(self, triple):
        u, v, w = triple
        assert l1_distance(u, v) == l1_distance(v, u)
        assert (l1_distance(u, v) == 0) == (u == v)
        assert l1_distance(u, w) <= l1_distance(u, v) + l1_distance(v, w)


class TestSnakePath:
    def test_base_line(self):
        shape = GridShape(3, 1)
        assert snake_successor(shape, (1,)) == (2,)
        assert snake_successor(shape, (3,)) is None
        assert snake_unrank(shape, 3) == (3,)

    def test_square_order(self):
        shape = GridShape(2, 2)
        assert snake_path(shape) == [(1, 1), (2, 1), (2, 2), (1, 2)]
        assert snake_successor(shape, (2, 1)) == (2, 2)
        assert snake_rank(shape, (1, 2)) == 4
        assert snake_unrank(shape, 1) == (1, 1)

    def test_rank_unrank_roundtrip(self):
        shape = GridShape(3, 2)
        for v in shape.iter_vertices():
            assert snake_unrank(shape, snake_rank(shape, v)) == v

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            snake_unrank(GridShape(2, 2), 5)
        with pytest.raises(ValueError):
            snake_unrank(GridShape(2, 2), 0)

    def test_rank_must_equal_an_integer(self):
        # ranks follow GridShape.require's rule for coordinates
        shape = GridShape(3, 2)
        for t in (2.5, 1.5, 8.999):
            with pytest.raises(ValueError, match="not an integer"):
                snake_unrank(shape, t)
        for t, want in ((2.0, (2, 1)), (True, (1, 1)), (9.0, (3, 3))):
            v = snake_unrank(shape, t)
            assert v == want
            assert all(type(c) is int for c in v)
        # a float rank that equals a large integer is read exactly
        wide = GridShape(2, 70)
        assert snake_rank(wide, snake_unrank(wide, 1e20)) == 10**20

    @pytest.mark.parametrize(
        "shape",
        [
            GridShape(2, 2),
            GridShape(2, 8),
            GridShape(3, 4),
            GridShape(4, 3),
            GridShape(5, 3),
            GridShape(7, 2),
            GridShape(10, 4),
            GridShape(2, 16),
        ],
    )
    def test_hamiltonicity(self, shape):
        # every vertex exactly once, consecutive vertices adjacent
        path = snake_path(shape)
        assert len(set(path)) == shape.vertex_count
        for a, b in zip(path, path[1:]):
            assert l1_distance(a, b) == 1

    def test_successor_matches_unrank(self):
        shape = GridShape(3, 3)
        for v in shape.iter_vertices():
            t = snake_rank(shape, v)
            succ = snake_successor(shape, v)
            if t == shape.vertex_count:
                assert succ is None
            else:
                assert succ == snake_unrank(shape, t + 1)
                assert snake_predecessor(shape, succ) == v

    @pytest.mark.parametrize("k", range(2, 6))
    @pytest.mark.parametrize("l", range(1, 5))
    def test_whole_path_matches_unrank(self, k, l):
        assert _snake_path(k, l) == snake_path(GridShape(k, l))

    def test_no_materialization_needed(self):
        # ranks stay addressable on grids far beyond enumeration size
        shape = GridShape(2, 64)
        t = 123456789012345678
        v = snake_unrank(shape, t)
        assert snake_rank(shape, v) == t

    @given(st.integers(2, 6), st.integers(1, 5), st.data())
    @settings(max_examples=80)
    def test_rank_bijection_random(self, k, l, data):
        shape = GridShape(k, l)
        t = data.draw(st.integers(1, shape.vertex_count))
        v = snake_unrank(shape, t)
        assert shape.contains(v)
        assert snake_rank(shape, v) == t
