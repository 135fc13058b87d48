"""A pair-by-pair reader of adversary weight schemes, for tests.

The library evaluators read only build_scheme's schemes, from the walks
(`lslab.adversary._FamilyReader`).  This reader assumes nothing about the
scheme: it reads `relation.pairs`, the `w` table and `uv` pair by pair, so
it serves hand-built schemes and families listed in any order.  Tests drive
the library evaluators with it by monkeypatching `lslab.adversary._reader`
(see the `pairwise` fixture in `test_adversary.py`).
"""

from functools import cached_property
from math import lcm

from lslab.adversary import _SHORTLIST_TOL, differing_positions


class Relation:
    """Ordered pairs (x, y) of walk indices."""

    def __init__(self, pairs) -> None:
        self.pairs = tuple(pairs)

    def __len__(self) -> int:
        return len(self.pairs)


class TableScheme:
    """A hand-built scheme: w from a table over the pairs, (u, v) from
    `uv(pair, pos)`."""

    def __init__(self, family, pairs, w: dict, uv) -> None:
        self.family = family
        self.relation = Relation(pairs)
        self.w = w
        self.uv = uv


class PairwiseReader:
    """A scheme read pair by pair, with the reader interface of
    `_FamilyReader`: a pair's term key is (w, u, v) on its u side and
    (w, v, u) on its v side, positions are vertices, each side's rows map
    walk -> position -> (scan key, value), and the shortlist lists every
    candidate within _SHORTLIST_TOL of the least key, in relation order."""

    def __init__(self, scheme) -> None:
        self.scheme = scheme

    @cached_property
    def weight_sums(self) -> tuple[int, dict, dict]:
        w = self.scheme.w
        pairs = self.scheme.relation.pairs
        scale = lcm(*{w[pair].denominator for pair in pairs})
        row: dict[int, int] = {}
        col: dict[int, int] = {}
        for pair in pairs:
            scaled = w[pair].numerator * (scale // w[pair].denominator)
            row[pair[0]] = row.get(pair[0], 0) + scaled
            col[pair[1]] = col.get(pair[1], 0) + scaled
        return scale, row, col

    def rows(self, reduce) -> tuple[dict, dict]:
        scheme = self.scheme
        sides: tuple[dict, dict] = ({}, {})
        for pair in scheme.relation.pairs:
            w = scheme.w[pair]
            for pos in differing_positions(scheme.family, pair):
                u, v = scheme.uv(pair, pos)
                for walk, key, cells in zip(pair, ((w, u, v), (w, v, u)), sides):
                    cell = cells.setdefault(walk, {}).setdefault(pos, {})
                    cell[key] = cell.get(key, 0) + 1
        _, row, col = self.weight_sums
        return tuple(
            {walk: reduce(tops[walk], c) for walk, c in side.items()}
            for side, tops in zip(sides, (row, col))
        )

    def shortlist(self, u_rows, v_rows, combine) -> list:
        family = self.scheme.family
        listed = [
            (combine(u_rows[ix][pos][0], v_rows[iy][pos][0]), ix, iy, pos)
            for ix, iy in self.scheme.relation.pairs
            for pos in differing_positions(family, (ix, iy))
        ]
        limit = min(key for key, *_ in listed) * (1 + _SHORTLIST_TOL)
        return [
            (ix, iy, pos, u_rows[ix][pos][1], v_rows[iy][pos][1])
            for key, ix, iy, pos in listed
            if key <= limit
        ]

    @staticmethod
    def weight(key):
        return key[0]

    @staticmethod
    def terms(key) -> tuple:
        return key

    @staticmethod
    def vertex(pos):
        return pos
