"""A pair-by-pair reader of adversary weight schemes, for tests.

The library evaluators read only build_scheme's schemes, from the integer
tables of `enumerate_paths`' families (`lslab.adversary._FamilyReader`).
This reader assumes nothing about the scheme: it reads `relation.pairs`, the
`w` table and `uv` pair by pair, so it serves hand-built schemes and
families listed in any order (`ListedFamily`).  Tests drive the library
evaluators with it by monkeypatching `lslab.adversary._reader` (see the
`pairwise` fixture in `test_adversary.py`).
"""

from math import lcm

from lslab.adversary import _SHORTLIST_TOL, differing_positions


class ListedFamily:
    """A family given by its walks, `WalkRecord`s listed in any order: what
    schemes, relations and this reader read of a family."""

    def __init__(self, kind: str, m: int, T: int, side: int, walks=()) -> None:
        self.kind, self.m, self.T, self.side = kind, m, T, side
        self.walks = tuple(walks)
        self.ends = [walk.endpoint for walk in self.walks]

    def __len__(self) -> int:
        return len(self.walks)


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
    (w, v, u) on its v side, and positions are vertices.  Unlike the
    library reader it keeps both sides, since a hand-built scheme need not
    have v(x, y, pos) == u(y, x, pos) or a symmetric w: `rows` holds, per
    side, walk -> (row or column sum of w times `scale`, position -> (scan
    key, value)), and `shortlist` lists every candidate within
    _SHORTLIST_TOL of the least key, in relation order, with x's u side and
    y's v side."""

    def __init__(self, scheme) -> None:
        self.scheme = scheme
        w = scheme.w
        self.scale = lcm(*{w[pair].denominator for pair in scheme.relation.pairs})

    def rows(self, reduce) -> tuple[dict, dict]:
        scheme = self.scheme
        sides: tuple[dict, dict] = ({}, {})
        sums: tuple[dict, dict] = ({}, {})
        for pair in scheme.relation.pairs:
            w = scheme.w[pair]
            scaled = w.numerator * (self.scale // w.denominator)
            for walk, side_sums in zip(pair, sums):
                side_sums[walk] = side_sums.get(walk, 0) + scaled
            for pos in differing_positions(scheme.family, pair):
                u, v = scheme.uv(pair, pos)
                for walk, key, cells in zip(pair, ((w, u, v), (w, v, u)), sides):
                    cell = cells.setdefault(walk, {}).setdefault(pos, {})
                    cell[key] = cell.get(key, 0) + 1
        return tuple(
            {walk: (tops[walk], reduce(tops[walk], c)) for walk, c in side.items()}
            for side, tops in zip(sides, sums)
        )

    def shortlist(self, rows, combine) -> list:
        u_rows, v_rows = rows
        family = self.scheme.family
        listed = [
            (combine(u_rows[ix][1][pos][0], v_rows[iy][1][pos][0]), ix, iy, pos)
            for ix, iy in self.scheme.relation.pairs
            for pos in differing_positions(family, (ix, iy))
        ]
        limit = min(key for key, *_ in listed) * (1 + _SHORTLIST_TOL)
        out = []
        for key, ix, iy, pos in listed:
            if key <= limit:
                (x_top, x_cells), (y_top, y_cells) = u_rows[ix], v_rows[iy]
                out.append((ix, iy, pos, x_top, x_cells[pos][1], y_top, y_cells[pos][1]))
        return out

    @staticmethod
    def weight(key):
        return key[0]

    @staticmethod
    def terms(key) -> tuple:
        return key

    @staticmethod
    def vertex(pos):
        return pos
