"""Coordinate geometry for finite grids [k]^l and their snake-order Hamilton path.

Vertices are 1-based coordinate tuples; the Boolean hypercube on n bits is the
k=2, l=n case with bit b stored as coordinate b+1.  The snake path is the
recursive boustrophedon order: the path for [k]^(l+1) walks the [k]^l path with
the last coordinate fixed at 1, then walks it backwards at 2, forwards at 3,
and so on.  Ranking and unranking use closed-form mixed-radix arithmetic with
per-level reversal, so a single step costs O(l) and never materializes the
path; grids far too large to enumerate remain addressable.  A caller that
needs a whole path it can afford (an instance's clock) builds it level by
level with ``_snake_path``.  A vertex of [k]^l has l coordinates, each equal
to an integer in 1..k, so (1.5, 2) lies in no grid.  The check costs O(l)
whatever k is: a shape with k up to DEFAULT_SCAN_LIMIT keeps the set of its
coordinate values, built on its first check, and a wider one compares each
coordinate arithmetically.  The same bound splits ``_distance_maps``, the
per-axis maps through which lslab reads a distance to a fixed vertex.

Everything here is pure and deterministic; a shape's only state besides k
and l is that set, and every value is safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import sub
from typing import Iterator

from .errors import BudgetExceeded

Vertex = tuple[int, ...]

#: Exhaustive vertex scans refuse to run above this many vertices.
DEFAULT_SCAN_LIMIT = 1 << 16


@dataclass(frozen=True)
class GridShape:
    """The grid [k]^l: l axes, each with coordinates 1..k."""

    k: int
    l: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"side length must be >= 2, got k={self.k}")
        if self.l < 1:
            raise ValueError(f"axis count must be >= 1, got l={self.l}")

    @property
    def vertex_count(self) -> int:
        return self.k ** self.l

    @cached_property
    def coords(self) -> frozenset[int] | None:
        """The coordinate values 1..k, built on the first vertex check; None
        when k is over DEFAULT_SCAN_LIMIT, so the set stays small."""
        return frozenset(range(1, self.k + 1)) if self.k <= DEFAULT_SCAN_LIMIT else None

    def _in_range(self, v: Vertex) -> bool:
        # the check without the set: every coordinate in 1..k and equal to an integer
        return 1 <= min(v) and max(v) <= self.k and all(c == int(c) for c in v)

    def contains(self, v: Vertex) -> bool:
        coords = self.coords
        return len(v) == self.l and (
            self._in_range(v) if coords is None else coords.issuperset(v)
        )

    def require(self, v: Vertex) -> None:
        # contains() written out: this runs once per public read
        coords = self.coords
        if len(v) != self.l or not (
            self._in_range(v) if coords is None else coords.issuperset(v)
        ):
            raise ValueError(f"vertex {v!r} is not in [{self.k}]^{self.l}")

    def iter_vertices(self) -> Iterator[Vertex]:
        """Every vertex, the last coordinate running fastest; BudgetExceeded
        for shapes with more than DEFAULT_SCAN_LIMIT vertices."""
        if self.vertex_count > DEFAULT_SCAN_LIMIT:
            raise BudgetExceeded(
                f"[{self.k}]^{self.l} has {self.vertex_count} vertices, "
                f"over the scan limit {DEFAULT_SCAN_LIMIT}"
            )
        return product(range(1, self.k + 1), repeat=self.l)


def neighbors(shape: GridShape, v: Vertex) -> list[Vertex]:
    """Grid neighbors of v: one coordinate moved by +/-1, staying in bounds.

    Degree ranges from l at a corner to 2l in the interior.
    """
    shape.require(v)
    return _neighbors(shape.k, v)


def _neighbors(k: int, v: Vertex) -> list[Vertex]:
    # trusts v to lie in [k]^len(v)
    out: list[Vertex] = []
    for i, c in enumerate(v):
        if c > 1:
            out.append(v[:i] + (c - 1,) + v[i + 1 :])
        if c < k:
            out.append(v[:i] + (c + 1,) + v[i + 1 :])
    return out


def l1_distance(u: Vertex, v: Vertex) -> int:
    """Sum of per-coordinate absolute differences; Hamming distance when k=2."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return _l1(u, v)


def _l1(u: Vertex, v: Vertex) -> int:
    # trusts u and v to have the same length
    return sum(map(abs, map(sub, u, v)))


class _AxisDistance(dict):
    """An empty map that reads c as |int(c) - s| + b and stores nothing."""

    __slots__ = ("s", "b")

    def __init__(self, s: int, b: int) -> None:
        self.s, self.b = s, b

    def __missing__(self, c) -> int:
        return abs(int(c) - self.s) + self.b


def _distance_maps(shape: GridShape, p: Vertex, base: int = 0) -> tuple[dict, ...]:
    """Per-axis maps c -> |c - p_i| over 1..k, with ``base`` added on axis 0,
    so that base + l1(v, p) is ``sum(map(getitem, maps, v))`` for v in the
    grid: one dict read per axis, and a coordinate equal to an integer (1.0,
    True) reads as that integer.  Listed up to DEFAULT_SCAN_LIMIT entries
    (l * k); a wider shape gets ``_AxisDistance`` maps, which hold nothing."""
    k = shape.k
    bases = (base,) + (0,) * (len(p) - 1)
    if k * shape.l > DEFAULT_SCAN_LIMIT:
        return tuple(map(_AxisDistance, p, bases))
    coords = range(1, k + 1)
    return tuple({c: abs(c - s) + b for c in coords} for s, b in zip(p, bases))


def snake_rank(shape: GridShape, v: Vertex) -> int:
    """Position of v on the snake path, in 1..k^l.

    Bijection onto [1..N]; inverse of snake_unrank.
    """
    shape.require(v)
    return _snake_rank(shape.k, v)


def _snake_rank(k: int, v: Vertex) -> int:
    # trusts v to lie in [k]^len(v)
    r = v[0] - 1  # 0-based rank within the innermost line
    size = k
    for c in v[1:]:
        c -= 1
        # odd 0-based digit means the lower levels are traversed in reverse
        r = c * size + (r if c % 2 == 0 else size - 1 - r)
        size *= k
    return r + 1


def snake_unrank(shape: GridShape, t: int) -> Vertex:
    """The t-th vertex (1-based) of the snake path, in O(l) time.  Like a
    coordinate, a rank must equal an integer: 2.0 reads as 2, 2.5 is refused."""
    n = shape.vertex_count
    if not 1 <= t <= n:
        raise ValueError(f"rank {t} out of range 1..{n}")
    r = int(t)
    if r != t:
        raise ValueError(f"rank {t!r} is not an integer")
    r -= 1
    k = shape.k
    coords = [0] * shape.l
    size = n // k
    for i in range(shape.l - 1, 0, -1):
        c, r = divmod(r, size)
        if c % 2 == 1:
            r = size - 1 - r
        coords[i] = c + 1
        size //= k
    coords[0] = r + 1
    return tuple(coords)


def _snake_path(k: int, l: int) -> list[Vertex]:
    """The whole snake path of [k]^l, in order: the [k]^(j+1) path is the
    [k]^j path with last coordinate 1, reversed with 2, forward with 3, ...
    Trusted: the caller's budget bounds k^l."""
    path = [(c,) for c in range(1, k + 1)]
    for _ in range(l - 1):
        back = path[::-1]
        path = [v + (c,) for c in range(1, k + 1) for v in (back if c % 2 == 0 else path)]
    return path


def snake_successor(shape: GridShape, v: Vertex) -> Vertex | None:
    """Next vertex on the snake path, or None at the final vertex."""
    t = snake_rank(shape, v)
    if t == shape.vertex_count:
        return None
    return snake_unrank(shape, t + 1)


def snake_predecessor(shape: GridShape, v: Vertex) -> Vertex | None:
    """Previous vertex on the snake path, or None at the first vertex."""
    t = snake_rank(shape, v)
    if t == 1:
        return None
    return snake_unrank(shape, t - 1)
