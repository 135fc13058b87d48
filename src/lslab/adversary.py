"""Adversary-bound evaluators over fully enumerated walk families.

The randomized bound takes, over a relation of walk pairs with different
endpoints, the minimum over pairs and differing positions of
max(w_x / w_{x,i}, w_y / w_{y,i}); the quantum bound takes the minimum of
sqrt(w_x * w_y / (u_{x,i} * v_{y,i})).  Positions are vertices: the inputs
being bounded are membership functions, so two walks differ exactly on the
symmetric difference of their point sets.

Weights follow the divergence structure of the family: w(X, Y) is the
reciprocal of the number of walks sharing X's step prefix up to the first
index where X and Y part ways.  The quantum schemes scale u and v by a
reciprocal pair of multipliers keyed to how long a differing position
survived past the divergence, so u*v = w^2 holds exactly.

Multipliers involve fractional powers (m^(+/-c/2), side^(+/-m/2), and
quarter powers for odd grid walk dimensions).  They are kept symbolic as
products of prime powers with rational exponents; sums of such terms have a
canonical form (distinct radical monomials are linearly independent over the
rationals), so scheme validity and bound-value equality are exact, never
floating point.  Floats appear only in reported decimals and in the scan
that shortlists the candidates within a relative 1e-9 of the float minimum;
the shortlist is then compared exactly (canonical-form equality, then
high-precision decimals), so the reported radicand is the certified minimum.

The evaluators take only build_scheme's schemes over endpoint_relation of
their own family, its walks in enumerate_paths' order, and refuse any other
scheme with ValueError.  Such a scheme is evaluated without its O(N^2)
tables (see `_FamilyReader`).  w comes from the divergence index and the
row sums from endpoint counts per prefix class.  The u tally per (walk,
position) is counted over ranges of walk indices, the partners that diverge
from the walk at one step, and serves as the v tally too, since v(x, y, pos)
== u(y, x, pos); each distinct tally is summed once, in integers.  The scan
visits x < y only, since (y, x, pos) has the same radicand; the quantum
certification takes the mirrors of the shortlisted candidates back.  On
every hypercube family x runs over orbit representatives under permutations
of the flip coordinates (see `quantum_adversary_value` for why that keeps
its floats).  The witness is the one the full scan picks: the first minimal
candidate in relation order for the relational bound; the float-smallest,
then first, exact tie for the quantum bound.

Enumeration and evaluation are single-threaded, and the scans are pure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import ceil, gcd, inf, lcm
from operator import itemgetter

from .errors import BudgetExceeded
from .grid import Vertex, _snake_path
from .instances import _hypercube_step

#: Cap on the number of enumerated walks.
DEFAULT_FAMILY_LIMIT = 1 << 17


# ---------------------------------------------------------------------------
# exact arithmetic on sums of radicals
# ---------------------------------------------------------------------------


def _factorize(x: int) -> dict[int, int]:
    if x <= 0:
        raise ValueError("radical bases must be positive")
    out: dict[int, int] = {}
    p = 2
    while p * p <= x:
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
        p += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


Monomial = tuple[tuple[int, Fraction], ...]  # ((prime, exponent in (0,1)), ...)


def _canonical(coef: Fraction, exps) -> "Surd":
    """coef * prod(p^e) over the (prime, e) pairs, in canonical form: each
    exponent's whole part is folded into the coefficient, so the monomial
    keeps exponents in (0, 1) only, in prime order."""
    mono = []
    for prime, e in sorted(exps):
        whole = e.numerator // e.denominator
        if whole:
            coef *= Fraction(prime) ** whole
        if e != whole:
            mono.append((prime, e - whole))
    return Surd(coef, tuple(mono))


@dataclass(frozen=True)
class Surd:
    """An exact positive number coef * prod(p^e) with fractional exponents."""

    coef: Fraction
    mono: Monomial = ()

    @classmethod
    def of(cls, value: Fraction | int) -> "Surd":
        return cls(Fraction(value))

    @classmethod
    def power(cls, base: Fraction | int, exponent: Fraction) -> "Surd":
        """base ** exponent with the integer part folded into the coefficient."""
        base = Fraction(base)
        if base <= 0:
            raise ValueError("radical bases must be positive")
        exps = [(p, mult * exponent) for p, mult in _factorize(base.numerator).items()]
        exps += [(p, -mult * exponent) for p, mult in _factorize(base.denominator).items()]
        return _canonical(Fraction(1), exps)

    def __mul__(self, other: "Surd") -> "Surd":
        exps = dict(self.mono)
        for prime, e in other.mono:
            exps[prime] = exps.get(prime, 0) + e
        return _canonical(self.coef * other.coef, exps.items())

    @property
    def is_rational(self) -> bool:
        return not self.mono or self.coef == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.coef

    def __float__(self) -> float:
        value = float(self.coef)
        for prime, e in self.mono:
            value *= prime ** float(e)
        return value

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.coef)
        parts = "*".join(f"{p}^({e})" for p, e in self.mono)
        return f"{self.coef}*{parts}"


#: Bound on the number of monomial products SurdSum.__mul__ remembers.
_PRODUCT_MEMO_LIMIT = 4096
_products: dict[tuple[Monomial, Monomial], Surd] = {}


class SurdSum:
    """A finite sum of Surds in canonical form (one coefficient per monomial)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None) -> None:
        self._terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                if coef:
                    self._terms[mono] = coef

    @classmethod
    def of(cls, value: Surd | Fraction | int) -> "SurdSum":
        if not isinstance(value, Surd):
            value = Surd.of(value)
        return cls({value.mono: value.coef})

    def add(self, value: Surd) -> None:
        coef = self._terms.get(value.mono, Fraction(0)) + value.coef
        if coef:
            self._terms[value.mono] = coef
        else:
            self._terms.pop(value.mono, None)

    def __add__(self, other: "SurdSum") -> "SurdSum":
        out = SurdSum(dict(self._terms))
        for mono, coef in other._terms.items():
            out.add(Surd(coef, mono))
        return out

    def __mul__(self, other: "SurdSum") -> "SurdSum":
        """The product, term pair by term pair; each monomial pair's product
        comes from a bounded memo, so `_canonical` runs once per pair."""
        out = SurdSum()
        for mono_a, coef_a in self._terms.items():
            for mono_b, coef_b in other._terms.items():
                product = _products.get((mono_a, mono_b))
                if product is None:
                    if len(_products) >= _PRODUCT_MEMO_LIMIT:
                        _products.clear()
                    product = Surd(Fraction(1), mono_a) * Surd(Fraction(1), mono_b)
                    _products[mono_a, mono_b] = product
                out.add(Surd(coef_a * coef_b * product.coef, product.mono))
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SurdSum):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __float__(self) -> float:
        return sum(float(Surd(coef, mono)) for mono, coef in self._terms.items())

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(
            str(Surd(coef, mono)) for mono, coef in sorted(self._terms.items())
        )


# ---------------------------------------------------------------------------
# enumerated walk families
# ---------------------------------------------------------------------------

HYPERCUBE_KIND = "hypercube"
GRID_KIND = "grid"


@dataclass(frozen=True)
class WalkRecord:
    steps: tuple[int, ...]
    points: tuple[Vertex, ...]
    point_set: frozenset
    endpoint: Vertex
    role: dict  # vertex -> (tick, post_step_bit), first occurrence


@dataclass(frozen=True)
class PathFamily:
    """Every walk of a small parameterized family, fully enumerated."""

    kind: str
    m: int
    T: int
    side: int  # walk-space side length (2 for hypercube families)
    walks: tuple[WalkRecord, ...]

    def __len__(self) -> int:
        return len(self.walks)


def _record(steps, points) -> WalkRecord:
    role = {}
    for idx, p in enumerate(points):
        if p not in role:
            role[p] = (idx // 2, idx % 2)
    return WalkRecord(
        steps=tuple(steps),
        points=tuple(points),
        point_set=frozenset(points),
        endpoint=points[-1],
        role=role,
    )


def enumerate_paths(kind: str, m: int, T: int, side: int | None = None) -> PathFamily:
    """All step sequences of the family, with derived point sets.

    Hypercube families step as the instance generator does, take no `side`
    and need T+1 to be a power of two, at least 2 (the clock is a hypercube
    snake path); grid families take an explicit walk-space side (default
    T+2) and run their clock on a line of T+1 points.  Grid steps at a
    border stand still when aimed outward, which keeps distinct sign
    sequences on distinct point sequences.  Families of more than
    DEFAULT_FAMILY_LIMIT walks are refused with BudgetExceeded, before any
    other size check.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if m < 1:
        raise ValueError(f"walk dimensions need m >= 1, got m={m}")
    if kind == HYPERCUBE_KIND:
        alphabet = range(m)
    elif kind == GRID_KIND:
        alphabet = (-1, 1)
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    count = len(alphabet) ** (T + 1)
    if count > DEFAULT_FAMILY_LIMIT:
        raise BudgetExceeded(f"{count} walks exceed the family limit {DEFAULT_FAMILY_LIMIT}")
    if kind == HYPERCUBE_KIND:
        if side is not None:
            raise ValueError(f"side applies to grid families only, got side={side}")
        if T < 1 or T & (T + 1):
            raise ValueError(
                f"hypercube clocks require T+1 to be a power of two, at least 2; got T={T}"
            )
        side, start, step = 2, (1,) * m, _hypercube_step
        clocks = _snake_path(2, T.bit_length())
    else:
        if side is None:
            side = T + 2
        if side < 2:
            raise ValueError("grid walk side must be at least 2")
        start = (side // 2,) * m
        clocks = [(t + 1,) for t in range(T + 1)]

        def step(w: Vertex, t: int, sign: int) -> Vertex:
            dim = t % m
            c = w[dim] + sign
            if not 1 <= c <= side:
                return w  # blocked at the border: stand still
            return w[:dim] + (c,) + w[dim + 1 :]

    walks = []
    for steps in product(alphabet, repeat=T + 1):
        points = []
        w = start
        for t, s in enumerate(steps):
            points.append(w + clocks[t])
            w = step(w, t, s)
            points.append(w + clocks[t])
        walks.append(_record(steps, points))
    return PathFamily(kind=kind, m=m, T=T, side=side, walks=tuple(walks))


def diverge_index(x: WalkRecord, y: WalkRecord) -> int | None:
    """First step index where the two walks' step sequences part ways;
    None when the sequences are identical."""
    if len(x.steps) != len(y.steps):
        raise ValueError("walks come from different families")
    for idx, (a, b) in enumerate(zip(x.steps, y.steps)):
        if a != b:
            return idx
    return None


class EndpointRelation:
    """Every ordered pair (x, y) of a family's walk indices whose endpoints
    differ.

    The evaluators read the family, not the pairs: `pairs` is listed only
    when read, and the length comes from the endpoint counts.
    """

    def __init__(self, family: PathFamily) -> None:
        self.family = family

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        walks = self.family.walks
        return tuple(
            (ix, iy)
            for ix, x in enumerate(walks)
            for iy, y in enumerate(walks)
            if x.endpoint != y.endpoint
        )

    def __len__(self) -> int:
        counts = Counter(x.endpoint for x in self.family.walks)
        return len(self.family) ** 2 - sum(c * c for c in counts.values())


def endpoint_relation(family: PathFamily) -> EndpointRelation:
    return EndpointRelation(family)


# ---------------------------------------------------------------------------
# weight schemes
# ---------------------------------------------------------------------------

RANDOMIZED = "randomized"
QUANTUM_HYPERCUBE = "quantum-hypercube"
QUANTUM_GRID = "quantum-grid"


def prefix_class_size(family: PathFamily, k: int) -> int:
    """Number of walks agreeing with a given walk on steps 0..k-1 and
    differing at step k."""
    free = family.T - k
    if family.kind == HYPERCUBE_KIND:
        return (family.m - 1) * family.m**free
    return 2**free


def _hypercube_multiplier(family: PathFamily, s: int) -> Surd:
    m = family.m
    if s <= 10:
        return Surd.power(m, Fraction(-ceil(Fraction(s, 2)), 2))
    if s <= m * m:
        return Surd.power(m, Fraction(-5, 2))
    return Surd.power(2, Fraction(-m, 2))


def _grid_multiplier(family: PathFamily, s: int) -> Surd:
    m, side = family.m, family.side
    if s == 1:
        return Surd.of(1)
    if s <= m * side * side:
        return Surd.power(s - 1, Fraction(-m, 4))
    return Surd.power(side, Fraction(-m, 2))


#: scheme kind -> (the family kind it needs, None for any; its multiplier
#: rule a(family, s) for a position that survived s ticks)
_SCHEMES = {
    RANDOMIZED: (None, lambda family, s: Surd.of(1)),
    QUANTUM_HYPERCUBE: (HYPERCUBE_KIND, _hypercube_multiplier),
    QUANTUM_GRID: (GRID_KIND, _grid_multiplier),
}


def _reciprocal(surd: Surd) -> Surd:
    return _canonical(1 / surd.coef, [(prime, -e) for prime, e in surd.mono])


class WeightScheme:
    """w on the relation plus the u/v multiplier rule.

    For a pair (X, Y) diverging at k and a differing position held by X at
    role (j, b), the position survived s = j - k + b ticks past the
    divergence: u(X,Y,i) = a(s) * w and v(X,Y,i) = w / a(s); when Y holds
    the position the factors swap.  The randomized scheme has a = 1, i.e.
    u = v = w.

    The relation must be endpoint_relation of this very family object; any
    other is refused with ValueError.  w(X, Y) is the divergence weight
    1 / prefix_class_size(family, k); the `diverge` and `w` tables are
    listed over the relation only when read.

    (u, v) depends only on the integers (k, s, which walk holds the
    position); the multiplier pair is memoized on s and (u, v) on those
    keys, so equal inputs share one Surd object.
    """

    def __init__(self, kind: str, family: PathFamily, relation: EndpointRelation) -> None:
        if not isinstance(relation, EndpointRelation) or relation.family is not family:
            raise ValueError("the relation must be endpoint_relation of the scheme's own family")
        self.kind = kind
        self.family = family
        self.relation = relation
        self._pair_memo: dict = {}
        self._uv_memo: dict = {}

    @cached_property
    def diverge(self) -> dict:
        walks = self.family.walks
        return {(ix, iy): diverge_index(walks[ix], walks[iy]) for ix, iy in self.relation.pairs}

    @cached_property
    def w(self) -> dict:
        return {pair: self.divergence_weights[k] for pair, k in self.diverge.items()}

    @cached_property
    def divergence_weights(self) -> list[Fraction]:
        """1 / prefix_class_size(family, k) for k = 0..T, one object per k."""
        return [
            Fraction(1, prefix_class_size(self.family, k)) for k in range(self.family.T + 1)
        ]

    def multiplier_pair(self, s: int) -> tuple[Surd, Surd]:
        """The scaling factor for survival s and its exact reciprocal."""
        hit = self._pair_memo.get(s)
        if hit is None:
            a = _SCHEMES[self.kind][1](self.family, s)
            hit = self._pair_memo[s] = (a, _reciprocal(a))
        return hit

    def uv(self, pair: tuple[int, int], pos: Vertex) -> tuple[Surd, Surd]:
        """(u, v) at a differing position of the pair."""
        ix, iy = pair
        x, y = self.family.walks[ix], self.family.walks[iy]
        k = self.diverge[pair]
        x_holds = pos in x.point_set
        j, b = (x if x_holds else y).role[pos]
        return self.uv_at(k, j - k + b, x_holds)

    def uv_at(self, k: int, s: int, x_holds: bool) -> tuple[Surd, Surd]:
        """(u, v) for a pair diverging at k and a position that survived s
        ticks, held by the pair's first walk or not."""
        key = (k, s, x_holds)
        hit = self._uv_memo.get(key)
        if hit is None:
            wxy = Surd.of(self.divergence_weights[k])
            a, a_inv = self.multiplier_pair(s)
            hit = (wxy * a, wxy * a_inv) if x_holds else (wxy * a_inv, wxy * a)
            self._uv_memo[key] = hit
        return hit


def build_scheme(kind: str, family: PathFamily, relation: EndpointRelation) -> WeightScheme:
    """The scheme of `kind` over the relation with the divergence weights.

    w(X, Y) = 1 / #{Z : Z diverges from X exactly where Y does}, which is
    1 / prefix_class_size(family, k) for the divergence index k; pairs with
    the same k share one weight object.
    """
    if kind not in _SCHEMES:
        raise ValueError(f"unknown scheme kind {kind!r}")
    needs = _SCHEMES[kind][0]
    if needs not in (None, family.kind):
        raise ValueError(f"{kind} scheme on a {family.kind} family")
    return WeightScheme(kind, family, relation)


# ---------------------------------------------------------------------------
# reading a scheme
# ---------------------------------------------------------------------------


def differing_positions(family: PathFamily, pair: tuple[int, int]) -> list[Vertex]:
    x, y = family.walks[pair[0]], family.walks[pair[1]]
    return sorted(x.point_set.symmetric_difference(y.point_set))


class _FamilyReader:
    """A scheme read from its family's walks; no per-pair table is built or
    read.  The walks are in enumerate_paths' product order, where walk
    indices encode step prefixes (`_reader` checks this).

    The evaluators read it through `weight_sums` (the row and column sums
    of w, scaled to integers), `rows(reduce)` (each walk's u-side and
    v-side tallies, counts per term key in first-seen order, reduced per
    position), `candidates` (pairs and their differing positions, in
    relation order), and `in_relation_order`, `weight`, `terms` and
    `vertex`, which order the shortlist and decode keys and positions.

    - w(x, y) is the divergence weight of k = diverge_index(x, y).  The
      walks sharing x's first k steps are x's depth-k block of indices; the
      row sums come from the number of walks per (block, endpoint); w is
      symmetric, so col is row.
    - u at (x, y, pos) is keyed by the integers (k, s, x holds), packed in
      one int (see `decode`).  The y diverging from x at k fill two index
      ranges, below and above x's depth-(k + 1) block, so x's tally is
      counted per range, from Counters over the walks in it that end
      elsewhere, in the order a scan over increasing y meets its keys.  x
      holds pos for every such y whose walk misses pos.  The counts of a
      range are shared by the x of one block and endpoint.
    - Since v(x, y, pos) == u(y, x, pos), and the pairs (., y) meet y in
      the order of the pairs (y, .), one u tally serves both sides, term
      for term in the same order.
    - The candidates (x, y, pos) and (y, x, pos) then have the same
      radicand and the same scan key, and x < y comes first in relation
      order, so only x < y is scanned; `in_relation_order` hands the
      mirrors back for the exact comparison.
    - On hypercube families, permuting the m flip coordinates maps the
      family onto itself and preserves w, u and v (Hoyer-Lee-Spalek's
      automorphism principle), so x runs over orbit representatives only,
      each orbit's lowest-index walk.  Any walk's row is its
      representative's row with the vertices permuted.  The first minimal
      candidate in relation order always has a representative x, so the
      witness rules keep their witnesses.

    Vertices are numbered in sorted order, so sorting numbers sorts
    vertices.
    """

    def __init__(self, scheme: WeightScheme) -> None:
        self.scheme = scheme
        family = scheme.family
        walks = family.walks
        self.T = T = family.T
        # in product order, the walks sharing their first k steps with x
        # fill x's depth-k block, of `blocks[k]` consecutive indices
        base = len({s for x in walks for s in x.steps})
        self.blocks = [base ** (T + 1 - k) for k in range(T + 2)]
        self.verts = sorted({p for x in walks for p in x.point_set})
        vid = {v: i for i, v in enumerate(self.verts)}
        self.sets = [frozenset(vid[p] for p in x.point_set) for x in walks]
        self.roles = [{vid[p]: j + b for p, (j, b) in x.role.items()} for x in walks]
        ends: dict = {}
        self.ends = [ends.setdefault(x.endpoint, len(ends)) for x in walks]
        self.xs = range(len(walks))
        self.orbit = None
        if family.kind == HYPERCUBE_KIND:
            self._find_orbits(vid)

    def _find_orbits(self, vid: dict) -> None:
        """Each walk's representative and the vertex permutation that takes
        the walk to it.  Walks in one orbit have the same steps up to
        relabeling, so they share the steps relabeled in first-occurrence
        order."""
        walks, m = self.scheme.family.walks, self.scheme.family.m
        groups: dict[tuple, list[int]] = {}
        for ix, x in enumerate(walks):
            first: dict[int, int] = {}
            key = tuple(first.setdefault(s, len(first)) for s in x.steps)
            groups.setdefault(key, []).append(ix)
        perms: dict[tuple, list[int]] = {}
        self.orbit = [None] * len(walks)
        for members in groups.values():
            rep = min(members)
            for y in members:
                # the coordinate map sigma with sigma(y) = rep, unused
                # coordinates matched in increasing order
                sigma = dict(zip(walks[y].steps, walks[rep].steps))
                free = iter(sorted(set(range(m)) - set(sigma.values())))
                sigma = tuple(sigma[i] if i in sigma else next(free) for i in range(m))
                perm = perms.get(sigma)
                if perm is None:
                    # the clock adds at least one coordinate, so `image`
                    # takes two or more indices and returns a tuple
                    inverse = sorted(range(m), key=sigma.__getitem__)
                    image = itemgetter(*inverse, *range(m, len(self.verts[0])))
                    perm = perms[sigma] = list(map(vid.__getitem__, map(image, self.verts)))
                self.orbit[y] = (rep, perm)
        self.xs = sorted({rep for rep, _ in self.orbit})

    def weight_sums(self) -> tuple[int, list, list]:
        family, T = self.scheme.family, self.T
        sizes = [prefix_class_size(family, k) for k in range(T + 1)]
        scale = lcm(*sizes)
        # prefixes[x][k]: x's depth-k block, which stands for its first k steps
        prefixes = [[x // block for block in self.blocks] for x in range(len(self.ends))]
        same = Counter(
            (k, prefix, end)
            for pre, end in zip(prefixes, self.ends)
            for k, prefix in enumerate(pre)
        )
        row = []
        for pre, end in zip(prefixes, self.ends):
            n_same = [same[k, prefix, end] for k, prefix in enumerate(pre)]
            # walks diverging from x at k, less those ending where x ends
            row.append(sum(
                scale // sizes[k] * (sizes[k] - n_same[k] + n_same[k + 1])
                for k in range(T + 1)
            ))
        return scale, row, row

    def rows(self, reduce) -> tuple[list, list]:
        T, sets, roles, ends = self.T, self.sets, self.roles, self.ends
        n, size = len(sets), len(self.verts)
        # a key packs (k, role, x holds) into 2 * (k * R + role) + holds, and
        # a walk's (position, role) pairs are packed as p * R + role
        R = T + 2
        placed = [[p * R + r for p, r in rx.items()] for rx in roles]
        blocks = self.blocks
        tallied = {}
        # per k, the counts of the two ranges around x's depth-(k + 1) block,
        # per endpoint; x rises, so they are dropped when x leaves the block
        shared: list[dict] = [{} for _ in range(T + 1)]
        bordered: list = [None] * (T + 1)
        for x in self.xs:
            sx, rx, ex = sets[x], roles[x], ends[x]
            # the partners diverging from x at k fill the part of x's depth-k
            # block below its depth-(k + 1) block and the part above it; in
            # increasing index order: every part below, then every part above
            starts = [x - x % block for block in blocks]
            below = [(k, starts[k], starts[k + 1]) for k in range(T + 1)]
            above = [
                (k, starts[k + 1] + blocks[k + 1], starts[k] + blocks[k])
                for k in reversed(range(T + 1))
            ]
            for k in range(T + 1):
                if bordered[k] != starts[k + 1]:
                    bordered[k], shared[k] = starts[k + 1], {}
            cells: dict[int, dict] = {}
            for k, lo, hi in below + above:
                got = shared[k].get((lo, ex))
                if got is None:
                    kept = [y for y in range(lo, hi) if ends[y] != ex]
                    # Counter keeps first occurrence, so keys arrive in the
                    # order a pair-by-pair scan over increasing y meets them
                    held = Counter(chain.from_iterable(map(placed.__getitem__, kept)))
                    got = shared[k][lo, ex] = (
                        len(kept),
                        Counter(chain.from_iterable(map(sets.__getitem__, kept))),
                        [(pair // R, 2 * (k * R + pair % R), n_y) for pair, n_y in held.items()],
                    )
                n_kept, hits, y_held = got
                if not n_kept:
                    continue
                base = 2 * k * R + 1
                for p in sx:
                    count = n_kept - hits.get(p, 0)
                    if count:
                        cell = cells.setdefault(p, {})
                        key = base + 2 * rx[p]
                        cell[key] = cell.get(key, 0) + count
                for p, key, count in y_held:
                    if p not in sx:
                        cell = cells.setdefault(p, {})
                        cell[key] = cell.get(key, 0) + count
            row = tallied[x] = [None] * size
            for p, value in reduce(cells).items():
                row[p] = value
        if self.orbit is None:
            rows = [tallied[x] for x in range(n)]
        else:
            rows = [
                tallied[y] if y == rep else [tallied[rep][q] for q in perm]
                for y, (rep, perm) in enumerate(self.orbit)
            ]
        return rows, rows

    def candidates(self):
        sets, ends, n = self.sets, self.ends, len(self.sets)
        for x in self.xs:
            sx, ex = sets[x], ends[x]
            for y in range(x + 1, n):
                if ends[y] != ex:
                    yield x, y, sorted(sx ^ sets[y])

    @staticmethod
    def in_relation_order(shortlist: list) -> list:
        """The shortlist (key, x, y, pos) with each candidate's mirror
        (key, y, x, pos), in relation order.  The mirror has the same
        radicand and scan key, but the float of its exact denominator
        u_sum * v_sum sums the product's terms in another order, so on grid
        families it can be the smaller one in the last ulp."""
        mirrors = [(key, y, x, pos) for key, x, y, pos in shortlist]
        return sorted(shortlist + mirrors, key=itemgetter(1, 2, 3))

    def decode(self, key: int) -> tuple[int, int, bool]:
        """The (k, s, x holds) that `rows` packed into a key."""
        k, role = divmod(key >> 1, self.T + 2)
        return k, role - k, bool(key & 1)

    def weight(self, key) -> Fraction:
        return self.scheme.divergence_weights[self.decode(key)[0]]

    def terms(self, key) -> tuple:
        return (self.weight(key), *self.scheme.uv_at(*self.decode(key)))

    def vertex(self, pos: int) -> Vertex:
        return self.verts[pos]


def _reader(scheme: WeightScheme) -> _FamilyReader:
    """The reader of a stock scheme: a WeightScheme itself, which holds
    its own family's relation, over walks in enumerate_paths' order.  Any
    other scheme is refused with ValueError."""
    if type(scheme) is not WeightScheme:
        raise ValueError("only WeightScheme's own schemes are evaluated")
    if not _in_product_order(scheme.family):
        raise ValueError("the family's walks are not in enumerate_paths order")
    return _FamilyReader(scheme)


def _in_product_order(family: PathFamily) -> bool:
    """Whether the family lists every step sequence once, in increasing
    order: the product order of enumerate_paths, which `_FamilyReader`
    reads from walk indices."""
    steps = [x.steps for x in family.walks]
    base = len({s for x in steps for s in x})
    return len(steps) == base ** (family.T + 1) and all(map(tuple.__lt__, steps, steps[1:]))


# ---------------------------------------------------------------------------
# bound values
# ---------------------------------------------------------------------------


def _uv_valid(checked: dict, w, u: Surd, v: Surd) -> bool:
    """u * v >= w^2, checked exactly, once per distinct (w, u, v).

    `checked` maps the objects' ids to the objects themselves, which keeps
    them alive so an id cannot be reused; memoized schemes hand out shared
    objects, so the product is formed once per (weight, survival, holder).
    """
    key = (id(w), id(u), id(v))
    if key in checked:
        return True
    prod = u * v
    # both sides to the power q, the lcm of the radical exponents'
    # denominators (1 when u*v is rational), make the comparison rational
    q = lcm(*(e.denominator for _, e in prod.mono))
    lhs = prod.coef**q
    for prime, e in prod.mono:
        lhs *= prime ** int(e * q)
    ok = lhs >= (w * w) ** q
    if ok:
        checked[key] = (w, u, v)
    return ok


def scheme_is_valid(scheme: WeightScheme) -> bool:
    """u * v >= w^2 at every pair and differing position, checked exactly."""
    checked: dict = {}
    for pair in scheme.relation.pairs:
        w = scheme.w[pair]
        for pos in differing_positions(scheme.family, pair):
            u, v = scheme.uv(pair, pos)
            if not _uv_valid(checked, w, u, v):
                return False
    return True


@dataclass(frozen=True)
class BoundWitness:
    x_index: int
    y_index: int
    position: Vertex


@dataclass(frozen=True)
class RelationalBound:
    value: Fraction
    witness: BoundWitness


def relational_adversary_value(scheme: WeightScheme) -> RelationalBound:
    """Exact min over pairs and differing positions of
    max(w_x / w_{x,i}, w_y / w_{y,i}).

    The randomized scheme (u = v = w) is the intended input.  The weights
    are scaled to integers, so candidates compare by cross-multiplication;
    the witness is the first minimal candidate in relation and position
    order.  The scan runs over x < y and orbit representatives only (see
    `_FamilyReader`), which keeps that witness.
    """
    reader = _reader(scheme)
    if not len(scheme.relation):
        raise ValueError("empty relation")
    scale, row, col = reader.weight_sums()

    scaled: dict = {}  # key -> its weight times scale

    def reduce(cells: dict) -> dict:
        # the scaled sum of w over the tallied pairs
        out = {}
        for pos, cell in cells.items():
            total = 0
            for key, count in cell.items():
                term = scaled.get(key)
                if term is None:
                    w = reader.weight(key)
                    term = scaled[key] = w.numerator * (scale // w.denominator)
                total += count * term
            out[pos] = total
        return out

    row_at, col_at = reader.rows(reduce)
    best_num, best_den = 1, 0  # +infinity
    witness = None
    for ix, iy, positions in reader.candidates():
        x_all, y_all, x_row, y_row = row[ix], col[iy], row_at[ix], col_at[iy]
        for pos in positions:
            x_at, y_at = x_row[pos], y_row[pos]
            # max(x_all / x_at, y_all / y_at)
            num, den = (x_all, x_at) if x_all * y_at >= y_all * x_at else (y_all, y_at)
            if num * best_den < best_num * den:
                best_num, best_den = num, den
                witness = (ix, iy, pos)
    assert witness is not None
    ix, iy, pos = witness
    return RelationalBound(
        value=Fraction(best_num, best_den),
        witness=BoundWitness(ix, iy, reader.vertex(pos)),
    )


@dataclass(frozen=True)
class QuantumBound:
    """min sqrt(w_x w_y / (u_{x,i} v_{y,i})) with the radicand kept exact."""

    radicand_num: SurdSum
    radicand_den: SurdSum
    value: float
    witness: BoundWitness

    def radicand_equals(self, other: "QuantumBound") -> bool:
        return (self.radicand_num * other.radicand_den) == (
            self.radicand_den * other.radicand_num
        )

    def __str__(self) -> str:
        return f"sqrt(({self.radicand_num}) / ({self.radicand_den})) ~= {self.value:.6g}"


#: Relative width of the float shortlist.  The scan's float radicands are
#: within a few ulps of the exact ones, so nothing outside it can be minimal.
_SHORTLIST_TOL = 1e-9


def _decimal(value: SurdSum, digits: int):
    """A Decimal within a relative 10^(5-digits) of a sum of positive terms."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = digits
        total = Decimal(0)
        for mono, coef in value._terms.items():
            term = Decimal(coef.numerator) / coef.denominator
            for prime, e in mono:
                term *= (Decimal(prime).ln() * e.numerator / e.denominator).exp()
            total += term
    return total


def _compare_ratios(num_a: SurdSum, den_a: SurdSum, num_b: SurdSum, den_b: SurdSum) -> int:
    """Sign of num_a/den_a - num_b/den_b for sums of positive terms, exactly.

    Equal canonical forms of the cross products mean equal values; otherwise
    the values differ, and decimals at rising precision separate them.
    """
    lhs, rhs = num_a * den_b, num_b * den_a
    if lhs == rhs:
        return 0
    for digits in (50, 100, 200, 400, 800, 1600):
        a, b = _decimal(lhs, digits), _decimal(rhs, digits)
        if abs(a - b) > (a + b).scaleb(10 - digits):
            return 1 if a > b else -1
    raise ArithmeticError(f"cannot separate {lhs} from {rhs}")


def quantum_adversary_value(scheme: WeightScheme) -> QuantumBound:
    """Exact-radicand evaluation of the quantum bound.

    Refuses schemes that fail the u*v >= w^2 validity gate, checked once
    per distinct (w, u, v) term that the tally meets.  u is tallied per
    (walk, position) and summed once per distinct tally, its terms in the
    order the pairs meet them, as integer numerators over a common
    denominator per monomial.  A float scan shortlists the candidates
    within a relative 1e-9 of the float minimum; among them the radicand is
    minimized exactly, so the returned radicand is the certified minimum.
    When several candidates share it exactly, the witness is the one with
    the smallest float(num) / float(den), the first in relation and position
    order among equal floats.

    The scheme is read from the walks (see `_FamilyReader`): one u tally
    serves as the v tally too, since v(x, y, pos) == u(y, x, pos), and the
    scan visits x < y only, since (y, x, pos) has the same radicand and
    scan key as (x, y, pos) and comes later.  The mirror's exact
    denominator multiplies the same sums in the other order, so its float
    can differ in the last ulp; the shortlist takes the mirrors back, in
    relation order, before the exact comparison.  On hypercube families the
    tally and the scan run x over orbit representatives only, each orbit's
    lowest-index walk.  An orbit image's sums hold the same terms in
    another order, and every hypercube family within DEFAULT_FAMILY_LIMIT
    has at most one irrational monomial among its multipliers, so each sum
    has at most two terms and the same float in any order; the products'
    floats then agree too.  So every candidate of the full shortlist has an
    image in this one with the same radicand and floats, and the first of
    them in relation order, the full scan's witness, is among them.
    """
    reader = _reader(scheme)
    if not len(scheme.relation):
        raise ValueError("empty relation")
    scale, row, col = reader.weight_sums()
    checked: dict = {}
    # key -> (monomial number, coefficient numerator, denominator) of its term
    terms: dict = {}
    monomials: dict = {}  # monomial -> number, in first-seen order
    by_tally: dict = {}
    by_form: dict = {}

    def reduce(cells: dict) -> dict:
        """Each position's tally as (SurdSum, float).  A sum's coefficients
        are added as integers over the lcm of their denominators and reduced
        by the gcd, so equal sums, their monomials in the same order, share
        one form and one object: one object stands for one exact value and
        one float."""
        out = {}
        for pos, cell in cells.items():
            tally = tuple(cell.items())
            hit = by_tally.get(tally)
            if hit is None:
                parts = []
                for key, count in tally:
                    term = terms.get(key)
                    if term is None:
                        w, u, other = reader.terms(key)
                        if not _uv_valid(checked, w, u, other):
                            raise ValueError("scheme violates u*v >= w^2")
                        mono = monomials.setdefault(u.mono, len(monomials))
                        term = terms[key] = (mono, u.coef.numerator, u.coef.denominator)
                    parts.append((term, count))
                den = lcm(*(term[2] for term, _ in parts))
                nums: dict[int, int] = {}
                for (mono, num, d), count in parts:
                    nums[mono] = nums.get(mono, 0) + count * num * (den // d)
                common = gcd(den, *nums.values())
                form = (den // common, *((mono, num // common) for mono, num in nums.items()))
                hit = by_form.get(form)
                if hit is None:
                    listed = list(monomials)
                    total = SurdSum({listed[mono]: Fraction(num, den) for mono, num in nums.items()})
                    hit = by_form[form] = (total, float(total))
                by_tally[tally] = hit
            out[pos] = hit
        return out

    u_rows, v_rows = reader.rows(reduce)

    best, limit = inf, inf
    shortlist = []
    for ix, iy, positions in reader.candidates():
        u_row, v_row = u_rows[ix], v_rows[iy]
        top = (row[ix] / scale) * (col[iy] / scale)
        keys = [top / (u_row[pos][1] * v_row[pos][1]) for pos in positions]
        if min(keys, default=inf) > limit:
            continue
        for pos, key in zip(positions, keys):
            if key <= limit:
                shortlist.append((key, ix, iy, pos))
                if key < best:
                    best, limit = key, key * (1 + _SHORTLIST_TOL)
                    shortlist = [c for c in shortlist if c[0] <= limit]

    # candidates with the same scaled numerator and the same u and v sums
    # have the same radicand and float key, so only the first can win
    seen = set()
    win = None
    for _, ix, iy, pos in reader.in_relation_order(shortlist):
        top, u_sum, v_sum = row[ix] * col[iy], u_rows[ix][pos][0], v_rows[iy][pos][0]
        if (top, id(u_sum), id(v_sum)) in seen:
            continue
        seen.add((top, id(u_sum), id(v_sum)))
        num = SurdSum.of(Fraction(top, scale * scale))
        den = u_sum * v_sum
        key = float(num) / float(den)
        if win is not None:
            order = _compare_ratios(num, den, win[0], win[1])
            if order > 0 or (order == 0 and not key < win[2]):
                continue
        win = (num, den, key, BoundWitness(ix, iy, reader.vertex(pos)))
    assert win is not None
    num, den, key, witness = win
    return QuantumBound(
        radicand_num=num, radicand_den=den, value=key**0.5, witness=witness
    )
