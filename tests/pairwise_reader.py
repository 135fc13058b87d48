"""A pair-by-pair reader of adversary weight schemes, for tests.

The library evaluators read only build_scheme's schemes, from the integer
tables of `enumerate_paths`' families (`lslab.adversary._FamilyReader`).
This reader assumes nothing about the scheme: it reads `relation.pairs`, the
`w` table and `uv` pair by pair, so it serves hand-built schemes and
families listed in any order (`ListedFamily`).  It has the library reader's
interface: `tally()` numbers the distinct tallies per row and position,
each evaluator maps each distinct tally once through `units` or `terms`
and hands the row sums, the tally numbers and those values to `shortlist`,
and reads `witness`.
Tests drive the library evaluators with it by monkeypatching
`lslab.adversary._reader` (see the `pairwise` fixture in
`test_adversary.py`).
"""

from math import inf, lcm

from lslab.adversary import _SHORTLIST_TOL, BoundWitness, differing_positions


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
    (w, v, u) on its v side, and positions are numbered in sorted vertex
    order.  Unlike the library reader it keeps both sides, since a
    hand-built scheme need not have v(x, y, pos) == u(y, x, pos) or a
    symmetric w: `tally` lists a row per walk and side, the u sides (row
    sums of w times `scale`) of walks 0..n-1 first, then their v sides
    (column sums), and interns the tallies of both; `shortlist` lists every
    candidate within _SHORTLIST_TOL of the least key, in relation order,
    pairing x's u row with y's v row, which `witness` maps back to y.  A
    row's key at a position is its row sum over its tally's value there,
    inf where it has no tally."""

    def __init__(self, scheme) -> None:
        self.scheme = scheme
        w = scheme.w
        self.scale = lcm(*{w[pair].denominator for pair in scheme.relation.pairs})
        self.n = len(scheme.family)
        self.verts = sorted(set().union(*(walk.point_set for walk in scheme.family.walks)))
        self.vid = {v: i for i, v in enumerate(self.verts)}
        self.units = {}  # term key -> w times scale, filled by `tally`

    def tally(self) -> tuple[list, list, list]:
        scheme, n = self.scheme, self.n
        tops = [0] * (2 * n)
        cells = [{} for _ in range(2 * n)]
        for pair in scheme.relation.pairs:
            w = scheme.w[pair]
            scaled = w.numerator * (self.scale // w.denominator)
            rows = (pair[0], n + pair[1])
            for row in rows:
                tops[row] += scaled
            for pos in differing_positions(scheme.family, pair):
                u, v = scheme.uv(pair, pos)
                for row, key in zip(rows, ((w, u, v), (w, v, u))):
                    self.units[key] = scaled
                    cell = cells[row].setdefault(self.vid[pos], {})
                    cell[key] = cell.get(key, 0) + 1
        numbered = {(): 0}
        numbers = [[0] * len(self.verts) for _ in cells]
        for row, row_cells in zip(numbers, cells):
            for p, cell in row_cells.items():
                row[p] = numbered.setdefault(tuple(cell.items()), len(numbered))
        return tops, numbers, list(numbered)

    def shortlist(self, tops, numbers, divisors, combine) -> list:
        n, family = self.n, self.scheme.family
        keys = [[top / divisors[i] if i else inf for i in row] for top, row in zip(tops, numbers)]
        listed = [
            (combine(keys[ix][p], keys[n + iy][p]), ix, n + iy, p)
            for ix, iy in self.scheme.relation.pairs
            for p in map(self.vid.__getitem__, differing_positions(family, (ix, iy)))
        ]
        limit = min(key for key, *_ in listed) * (1 + _SHORTLIST_TOL)
        return [(x, y, p) for key, x, y, p in listed if key <= limit]

    @staticmethod
    def terms(key) -> tuple:
        return key

    def witness(self, x, y, p) -> BoundWitness:
        return BoundWitness(x, y - self.n, self.verts[p])
