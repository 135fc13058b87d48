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
the shortlist is then compared exactly (integer cross products, then
high-precision decimals), so the reported bound is the certified minimum.

A family is a set of integer tables in product order, where a walk's index
spells its steps (`PathFamily`).  The evaluators take only build_scheme's
schemes over endpoint_relation of their own family, refuse any other scheme
with ValueError, and read the tables, never an O(N^2) pair table (see
`_FamilyReader`), whose tally numbers the family's distinct tallies per walk
and vertex.  Each evaluator maps every distinct tally once, to an integer
sum of w or of u.  The scan goes vertex by vertex: a candidate's float key
is a product (quantum) or maximum (randomized) of one number per walk and
vertex.  The witness is the first minimal candidate in relation order for
the relational bound; the float-smallest, then first, exact tie for the
quantum bound.

Enumeration and evaluation are single-threaded, and the scans are pure.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product, repeat
from math import ceil, gcd, inf, lcm
from operator import itemgetter, mul

from .errors import BudgetExceeded
from .grid import Vertex, _snake_path
from .instances import _clock_walk, _hypercube_step

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
        out = SurdSum()
        for mono_a, coef_a in self._terms.items():
            for mono_b, coef_b in other._terms.items():
                out.add(Surd(coef_a, mono_a) * Surd(coef_b, mono_b))
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
        # left to right: from CPython 3.12 on, builtin sum() compensates,
        # which moves the last ulp and with it the witness tie-break
        value = 0.0
        for mono, coef in self._terms.items():
            value += float(Surd(coef, mono))
        return value

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
    """Every walk of a small parameterized family, fully enumerated, as
    integer tables in product order, where a walk's index spells its steps:
    `verts`, the vertices in sorted order, numbered by position; `ids`, the
    numbers of each walk's 2(T+1) points as `instances._clock_walk` lays them
    out, walk after walk; `ends`, each walk's endpoint number; and `placed`,
    per walk, p * (T + 2) + role for each of its vertices p in order of first
    occurrence, the role being tick + post-step bit.  `walks` lists the walks
    as `WalkRecord`s, built on first read."""

    kind: str
    m: int
    T: int
    side: int  # walk-space side length (2 for hypercube families)
    verts: tuple[Vertex, ...]
    ids: array
    ends: list[int]
    placed: list[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.ends)

    @cached_property
    def walks(self) -> tuple[WalkRecord, ...]:
        size, records = 2 * (self.T + 1), []
        for x, steps in enumerate(product(_alphabet(self.kind, self.m), repeat=self.T + 1)):
            points = tuple(self.verts[p] for p in self.ids[x * size : (x + 1) * size])
            role = {p: divmod(points.index(p), 2) for p in points}  # first occurrence
            records.append(WalkRecord(steps, points, frozenset(points), points[-1], role))
        return tuple(records)


def _alphabet(kind: str, m: int):
    """The steps a walk of the family can take at a tick, in increasing order."""
    if kind == HYPERCUBE_KIND:
        return range(m)
    if kind == GRID_KIND:
        return (-1, 1)
    raise ValueError(f"unknown family kind {kind!r}")


def enumerate_paths(kind: str, m: int, T: int, side: int | None = None) -> PathFamily:
    """All step sequences of the family in product order, each laid out as
    the generator lays out a trajectory (`instances._clock_walk`).

    Hypercube families step as the instance generator does, take no `side`
    and need T+1 to be a power of two, at least 2 (the clock is a hypercube
    snake path); grid families take an explicit walk-space side (default
    T+2) and run their clock on a line of T+1 points.  Grid steps at a
    border stand still when aimed outward, which keeps distinct sign
    sequences on distinct point sequences.  Families of more than
    DEFAULT_FAMILY_LIMIT walks are refused with BudgetExceeded, before any
    other size check.  The tables are built tick by tick, each distinct walk
    part laid out once per step.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if m < 1:
        raise ValueError(f"walk dimensions need m >= 1, got m={m}")
    alphabet = _alphabet(kind, m)
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

    # per tick, per walk part, per step: the two points and the next part
    ticks, parts = [], [start]
    for t, clock in enumerate(clocks):
        after: dict = {}
        ticks.append([
            [(*ab, after.setdefault(ab[1][:m], len(after)))
             for ab in (_clock_walk(w, (s,), step, (clock,), t) for s in alphabet)]
            for w in parts
        ])
        parts = list(after)
    verts = tuple(sorted({p for tick in ticks for out in tick for *ab, _ in out for p in ab}))
    vid = {v: i for i, v in enumerate(verts)}
    # per step prefix, in product order, shared by the walks that extend it:
    # its points' numbers, their first-occurrence keys and its walk part
    R = T + 2
    rows, placed, at = [()], [()], [0]
    for t, tick in enumerate(ticks):
        grown = [
            [((a, b), (a * R + t,) if a == b else (a * R + t, b * R + t + 1), part)
             for a, b, part in ((vid[pre], vid[post], part) for pre, post, part in out)]
            for out in tick
        ]  # a grid walk standing still meets its pre-step point again
        nexts = [grown[part] for part in at]
        rows = [row + ab for row, out in zip(rows, nexts) for ab, _, _ in out]
        placed = [keys + first for keys, out in zip(placed, nexts) for _, first, _ in out]
        at = [part for out in nexts for *_, part in out]
    ids = array("i", chain.from_iterable(rows))
    return PathFamily(kind, m, T, side, verts, ids, [row[-1] for row in rows], placed)


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
    differ.  `pairs` is listed only when read; the evaluators read the
    family, and the length comes from the endpoint counts."""

    def __init__(self, family: PathFamily) -> None:
        self.family = family

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        ends = self.family.ends
        return tuple(
            (ix, iy) for ix, ex in enumerate(ends) for iy, ey in enumerate(ends) if ex != ey
        )

    def __len__(self) -> int:
        return len(self.family) ** 2 - sum(c * c for c in Counter(self.family.ends).values())


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
    differing at step k: (b - 1) * b^(T - k) for b steps per tick."""
    b = len(_alphabet(family.kind, family.m))
    return (b - 1) * b ** (family.T - k)


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
    """A scheme read from its family's tables as `enumerate_paths` lists
    them, in product order, where walk indices encode step prefixes; no
    per-pair table and no `WalkRecord` is built or read.

    The evaluators read it through `scale` (w times it is a power of b),
    `tally()` (each walk's row sum of w times `scale` and, per vertex, the
    number of its tally, counts per term key), `keys` (the scan keys, by
    tally number), `shortlist` (the candidates whose keys come within
    _SHORTLIST_TOL of the least, in relation order), and `units`, `terms`
    and `witness`, which decode keys and candidates.

    - w(x, y) is the divergence weight of k = diverge_index(x, y).  With b
      steps per tick, `scale` is b^k / w and the walks sharing x's first k
      steps are x's depth-k block, of b^(T + 1 - k) consecutive indices.
    - u at (x, y, pos) is keyed by the integers (k, s, x holds), packed in
      one int (see `decode`).  The y diverging from x at k fill two index
      ranges, below and above x's depth-(k + 1) block, so x's tally is
      counted per range, from one Counter over the placed keys of the walks
      in it that end elsewhere (they all share x's vertices of role <= k),
      in the order a scan over increasing y meets them; x holds pos for the
      walks missing it.  The counts of a range are shared by the x of one
      block and endpoint, and the number of its walks that end elsewhere,
      times w at k, adds to x's row sum.  x's roles are decoded from its
      placed keys while x is tallied.
    - The reader is one-sided.  Since v(x, y, pos) == u(y, x, pos), and the
      pairs (., y) meet y in the order of the pairs (y, .), y's u tally is
      its v tally, term for term in the same order; w is symmetric, so y's
      row sum is its column sum.  So a candidate (x, y, p) reads x's row on
      its u side and y's row on its v side.
    - On hypercube families, permuting the m flip coordinates maps the
      family onto itself and preserves w, u and v (Hoyer-Lee-Spalek's
      automorphism principle), so the tally runs over orbit representatives
      only, each walk's steps relabeled in first-occurrence order, the
      orbit's lowest index (see `_find_orbits`), and any walk's tally
      numbers are its representative's with the vertices permuted.  The
      walk's own sums hold the same terms in another order; every
      hypercube family within DEFAULT_FAMILY_LIMIT has at most one
      irrational monomial among its multipliers, so each sum has at most
      two terms and the same float in any order.
    """

    def __init__(self, scheme: WeightScheme) -> None:
        self.scheme, family = scheme, scheme.family
        self.T = T = family.T
        self.scale = prefix_class_size(family, 0)
        b = len(_alphabet(family.kind, family.m))
        self.blocks = [b ** (T + 1 - k) for k in range(T + 2)]
        # w times `scale` at each term key: b^k at the keys of divergence k
        self.units = [unit for unit in self.blocks[::-1][: T + 1] for _ in range(2 * (T + 2))]
        self.verts, self.ends, self.placed = family.verts, family.ends, family.placed
        # per walk, its orbit's representative and the vertex permutation
        # that takes the walk to it; without orbits, each walk is its own
        self.orbit = [(x, None) for x in range(len(family))]
        if family.kind == HYPERCUBE_KIND:
            self._find_orbits()
        self.xs = [y for y, (rep, _) in enumerate(self.orbit) if y == rep]

    def _find_orbits(self) -> None:
        """The orbits on a hypercube family.  A walk's representative is its
        steps relabeled in first-occurrence order, its orbit's least, read
        as a base-m index."""
        m, T, vid = self.scheme.family.m, self.T, {v: i for i, v in enumerate(self.verts)}
        perms: dict[tuple, list[int]] = {}
        self.orbit = []
        for steps in product(range(m), repeat=T + 1):
            used = tuple(dict.fromkeys(steps))
            label = dict(zip(used, range(m)))
            rep = 0
            for s in steps:
                rep = rep * m + label[s]
            perm = perms.get(used)
            if perm is None:
                # the walk's used labels in that order, then its unused ones;
                # the clock adds a coordinate, so `image` returns a tuple
                order = used + tuple(i for i in range(m) if i not in label)
                image = itemgetter(*order, *range(m, len(self.verts[0])))
                perm = perms[used] = list(map(vid.__getitem__, map(image, self.verts)))
            self.orbit.append((rep, perm))

    def tally(self) -> tuple[list, list, list]:
        """(tops, numbers, tallies): per walk, its row sum of w times
        `scale` and, per vertex number, the number of its tally there; the
        distinct tallies, each ((key, count), ...) in first-seen order,
        numbered as the walks meet them, 0 the empty tally.  An orbit
        image's top is its representative's, its numbers are permuted."""
        T, placed, ends = self.T, self.placed, self.ends
        # w at k times `scale` is powers[k] = b^k
        blocks, powers = self.blocks, self.blocks[::-1]
        # a key packs (k, role, x holds) into 2 * (k * R + role) + holds, and
        # a walk's (position, role) pairs are packed as p * R + role
        R, size, tops, rows = T + 2, len(self.verts), {}, {}
        numbered: dict[tuple, int] = {(): 0}
        terms: dict[tuple, tuple] = {}  # each distinct (key, count), kept once
        # per k, the counts of the two ranges around x's depth-(k + 1) block,
        # per endpoint; x rises, so they are dropped when x leaves the block
        shared: list[dict] = [{} for _ in range(T + 1)]
        bordered: list = [None] * (T + 1)
        for x in self.xs:
            # x's vertex numbers -> roles, in order of first occurrence
            rx, ex = dict(map(divmod, placed[x], repeat(R))), ends[x]
            # x's vertices with 2 * role + 1, roles ascending, so those past k are a suffix
            own, rs = [(p, 2 * r + 1) for p, r in rx.items()], list(rx.values())
            # the partners diverging from x at k fill the part of x's depth-k
            # block below its depth-(k + 1) block and the part above it; in
            # increasing index order: every part below, then every part above
            starts = [x - x % block for block in blocks]
            ranges = [(k, starts[k], starts[k + 1]) for k in range(T + 1)] + [
                (k, starts[k + 1] + blocks[k + 1], starts[k] + blocks[k])
                for k in reversed(range(T + 1))
            ]
            for k in range(T + 1):
                if bordered[k] != starts[k + 1]:
                    bordered[k], shared[k] = starts[k + 1], {}
            cells: dict[int, dict] = {}
            top = 0
            for k, lo, hi in ranges:
                base = 2 * k * R
                got = shared[k].get((lo, ex))
                if got is None:
                    kept = [y for y in range(lo, hi) if ends[y] != ex]
                    # Counter keeps first occurrence, so keys arrive in the
                    # order a pair-by-pair scan over increasing y meets them
                    held = Counter(chain.from_iterable(map(placed.__getitem__, kept)))
                    hits: dict[int, int] = {}
                    y_held = []
                    for pair, n_y in held.items():
                        p, r = divmod(pair, R)
                        if r > k:  # a vertex of role <= k is on the shared prefix
                            hits[p] = hits.get(p, 0) + n_y
                            y_held.append((p, base + 2 * r, n_y))
                    got = shared[k][lo, ex] = (len(kept), hits, y_held)
                n_kept, hits, y_held = got
                if not n_kept:
                    continue
                top += n_kept * powers[k]
                for p, r in own[bisect_right(rs, k):]:
                    count = n_kept - hits.get(p, 0)
                    if count:
                        cell = cells.setdefault(p, {})
                        key = base + r
                        cell[key] = cell.get(key, 0) + count
                for p, key, count in y_held:
                    if p not in rx:
                        cell = cells.setdefault(p, {})
                        cell[key] = cell.get(key, 0) + count
            row = [0] * size
            for p, cell in cells.items():
                tally = tuple(cell.items())
                number = numbered.get(tally)
                if number is None:
                    number = numbered[tuple(map(terms.setdefault, tally, tally))] = len(numbered)
                row[p] = number
            tops[x], rows[x] = top, row
        return [tops[rep] for rep, _ in self.orbit], self._spread(rows), list(numbered)

    def keys(self, tops: list, numbers: list, divisors: list) -> list:
        """Per walk, tops[x] / divisors[i] at each vertex of tally number i,
        inf at 0; an orbit image's keys are its representative's, permuted."""
        keys = {}
        for x in self.xs:
            top = tops[x]
            keys[x] = [top / divisors[i] if i else inf for i in numbers[x]]
        return self._spread(keys)

    def _spread(self, rows: dict) -> list:
        """Per walk, its orbit representative's row in `rows`, permuted."""
        # a permutation lists every vertex, two or more: its getter returns a tuple
        return [
            rows[y] if y == rep else itemgetter(*perm)(rows[rep])
            for y, (rep, perm) in enumerate(self.orbit)
        ]

    def shortlist(self, keys: list, combine) -> list:
        """The candidates (x, y, p) whose key combine(keys[x][p],
        keys[y][p]) lies within a relative _SHORTLIST_TOL of the least key,
        in relation order.  `keys` holds a float per walk and vertex number,
        inf where the walk has no tally; `combine` is nondecreasing in each
        argument.

        Per vertex p, a candidate pairs a walk holding p with one missing
        it, ending elsewhere, in either order.  The first pass takes, per
        side, the least key and, when both come from walks with one
        endpoint, the least among the other endpoints, which gives p's
        least key.  Every vertex has a holder.  The second pass lists the
        candidates at the vertices within reach of the overall least key.
        Both read the keys a vertex at a time, the walks grouped by
        endpoint.
        """
        ends, n, R = self.ends, len(self.ends), self.T + 2
        # the walks grouped by endpoint; endpoint e fills order[lo[e]:hi[e]]
        order = sorted(range(n), key=ends.__getitem__)
        at = [0] * n
        lo, hi = {}, {}
        for i, z in enumerate(order):
            at[z] = i
            lo.setdefault(ends[z], i)
            hi[ends[z]] = i + 1
        held_at: list[list[int]] = [[] for _ in self.verts]
        for z, placed in enumerate(self.placed):
            for key in placed:
                held_at[key // R].append(at[z])
        keys = [keys[z] for z in order]
        least = []  # per vertex: its least key, least held key, least missed key
        for column, spots in zip(zip(*keys), held_at):
            col = list(column)
            held = [col[i] for i in spots]
            for i in spots:
                col[i] = inf  # col keeps the walks that miss p
            h1, m1 = min(held), min(col)
            end = ends[order[spots[held.index(h1)]]]
            key = combine(h1, m1)
            if end == ends[order[col.index(m1)]]:
                h2 = min((k for k, i in zip(held, spots) if ends[order[i]] != end), default=inf)
                m2 = min(min(col[: lo[end]], default=inf), min(col[hi[end] :], default=inf))
                key = min(combine(h1, m2), combine(h2, m1))
            least.append((key, h1, m1))
        limit = min(least)[0] * (1 + _SHORTLIST_TOL)
        out = []
        for p, (key, h1, m1) in enumerate(least):
            if key > limit:
                continue
            col = [row[p] for row in keys]
            held = set(held_at[p])
            near_held = [i for i in held if combine(col[i], m1) <= limit]
            near_missed = [i for i in range(n) if i not in held and combine(h1, col[i]) <= limit]
            for i in near_held:
                for j in near_missed:
                    h, m = order[i], order[j]
                    if ends[h] != ends[m] and combine(col[i], col[j]) <= limit:
                        out += [(h, m, p), (m, h, p)]
        out.sort()
        return out

    def decode(self, key: int) -> tuple[int, int, bool]:
        """The (k, s, x holds) that `tally` packed into a key."""
        k, role = divmod(key >> 1, self.T + 2)
        return k, role - k, bool(key & 1)

    def terms(self, key: int) -> tuple:
        k, s, x_holds = self.decode(key)
        return (self.scheme.divergence_weights[k], *self.scheme.uv_at(k, s, x_holds))

    def witness(self, x: int, y: int, p: int) -> "BoundWitness":
        return BoundWitness(x, y, self.verts[p])


def _reader(scheme: WeightScheme) -> _FamilyReader:
    """The reader of a stock scheme: a WeightScheme itself, which holds
    its own family's relation.  Any other scheme is refused with
    ValueError."""
    if type(scheme) is not WeightScheme:
        raise ValueError("only WeightScheme's own schemes are evaluated")
    return _FamilyReader(scheme)


# ---------------------------------------------------------------------------
# bound values
# ---------------------------------------------------------------------------


def _uv_valid(w, u: Surd, v: Surd) -> bool:
    """u * v >= w^2, checked exactly."""
    prod = u * v
    # both sides to the power q, the lcm of the radical exponents'
    # denominators (1 when u*v is rational), make the comparison rational
    q = lcm(*(e.denominator for _, e in prod.mono))
    lhs = prod.coef**q
    for prime, e in prod.mono:
        lhs *= prime ** int(e * q)
    return lhs >= (w * w) ** q


def scheme_is_valid(scheme: WeightScheme) -> bool:
    """u * v >= w^2 at every pair and differing position, checked exactly
    once per distinct triple of (w, u, v) objects.  `checked` maps their ids
    to the objects, keeping them alive so that no id is reused."""
    checked: dict = {}
    for pair in scheme.relation.pairs:
        w = scheme.w[pair]
        for pos in differing_positions(scheme.family, pair):
            u, v = scheme.uv(pair, pos)
            key = (id(w), id(u), id(v))
            if key not in checked:
                if not _uv_valid(w, u, v):
                    return False
                checked[key] = (w, u, v)
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
    are scaled to integers, and each distinct tally is summed once.  A float
    scan of the keys row_z / w_{z,i} shortlists the candidates within a
    relative 1e-9 of the least, which holds every exact minimum; among them
    candidates compare by cross-multiplication, and the witness is the first
    minimal candidate in relation and position order.
    """
    reader = _reader(scheme)
    if not len(scheme.relation):
        raise ValueError("empty relation")
    tops, numbers, tallies = reader.tally()
    # each distinct tally's scaled sum of w over its pairs
    units = reader.units
    totals = [sum([count * units[key] for key, count in tally]) for tally in tallies]
    best_num, best_den = 1, 0  # +infinity
    witness = None
    for x, y, p in reader.shortlist(reader.keys(tops, numbers, totals), max):
        x_all, x_at, y_all, y_at = tops[x], totals[numbers[x][p]], tops[y], totals[numbers[y][p]]
        # max(x_all / x_at, y_all / y_at)
        num, den = (x_all, x_at) if x_all * y_at >= y_all * x_at else (y_all, y_at)
        if num * best_den < best_num * den:
            best_num, best_den = num, den
            witness = (x, y, p)
    assert witness is not None
    return RelationalBound(value=Fraction(best_num, best_den), witness=reader.witness(*witness))


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


#: Relative width of the float shortlist.  The scan's float keys are within
#: a few rounding errors per summed term of the exact values, far inside it,
#: so nothing outside it can be minimal.
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


class _Monomials:
    """The monomials of one evaluation, numbered in first-seen order, for
    exact sums in integer form: numerators `nums`, pairs (monomial number,
    num), over a common denominator `den`.  Monomials are canonical, with
    exponents in (0, 1), so a product of two folds whole powers of primes
    into an integer coefficient."""

    def __init__(self) -> None:
        self.listed: list[Monomial] = []
        self.numbers: dict[Monomial, int] = {}
        self.factors: list[list[float]] = []  # what Surd.__float__ multiplies by
        self.products: dict[tuple[int, int], tuple[int, int]] = {}

    def number(self, mono: Monomial) -> int:
        got = self.numbers.get(mono)
        if got is None:
            got = self.numbers[mono] = len(self.listed)
            self.listed.append(mono)
            self.factors.append([prime ** float(e) for prime, e in mono])
        return got

    def value(self, den: int, nums) -> float:
        """The sum's float as SurdSum.__float__ gives it, terms left to right."""
        total = 0.0
        for mono, num in nums:
            term = num / den
            for factor in self.factors[mono]:
                term *= factor
            total += term
        return total

    def times(self, a, b) -> dict[int, int]:
        """The numerators of the product of two sums over the product of
        their denominators, monomials in the order SurdSum.__mul__ meets
        them."""
        out: dict[int, int] = {}
        for mono_a, num_a in a:
            for mono_b, num_b in b:
                hit = self.products.get((mono_a, mono_b))
                if hit is None:
                    one = Fraction(1)
                    prod = Surd(one, self.listed[mono_a]) * Surd(one, self.listed[mono_b])
                    assert prod.coef.denominator == 1
                    hit = (self.number(prod.mono), prod.coef.numerator)
                    self.products[mono_a, mono_b] = hit
                mono, coef = hit
                out[mono] = out.get(mono, 0) + num_a * num_b * coef
        return out

    def surd_sum(self, den: int, nums) -> SurdSum:
        return SurdSum({self.listed[mono]: Fraction(num, den) for mono, num in nums})


def _compare(lhs: SurdSum, rhs: SurdSum) -> int:
    """Sign of lhs - rhs for sums of positive terms with different canonical
    forms, hence different values: decimals at rising precision separate
    them."""
    for digits in (50, 100, 200, 400, 800, 1600):
        a, b = _decimal(lhs, digits), _decimal(rhs, digits)
        if abs(a - b) > (a + b).scaleb(10 - digits):
            return 1 if a > b else -1
    raise ArithmeticError(f"cannot separate {lhs} from {rhs}")


def _u_sums(reader, tallies: list, monomials: _Monomials) -> list:
    """Each tally's u sum as (float, den, nums): its terms' coefficients
    added as integers over the lcm of their denominators and reduced by the
    gcd, monomials in the order the tally meets them, so that equal sums
    share one value object.  Each distinct term key passes the u*v >= w^2
    gate once; a scheme that fails it is refused with ValueError."""
    terms: dict = {}  # key -> (monomial number, coefficient) of its u
    by_form: dict = {}
    out = []
    for tally in tallies:
        parts = []
        for key, count in tally:
            term = terms.get(key)
            if term is None:
                w, u, other = reader.terms(key)
                if not _uv_valid(w, u, other):
                    raise ValueError("scheme violates u*v >= w^2")
                term = terms[key] = (monomials.number(u.mono), u.coef)
            parts.append((term, count))
        den = lcm(*(coef.denominator for (_, coef), _ in parts))
        nums: dict[int, int] = {}
        for (mono, coef), count in parts:
            nums[mono] = nums.get(mono, 0) + count * coef.numerator * (den // coef.denominator)
        common = gcd(den, *nums.values())
        form = (den // common, *((mono, num // common) for mono, num in nums.items()))
        hit = by_form.get(form)
        if hit is None:
            hit = by_form[form] = (monomials.value(den, nums.items()), form[0], form[1:])
        out.append(hit)
    return out


def quantum_adversary_value(scheme: WeightScheme) -> QuantumBound:
    """Exact-radicand evaluation of the quantum bound.

    Refuses schemes that fail the u*v >= w^2 validity gate, checked once
    per distinct (w, u, v) term that the tally meets.  u is tallied per
    (walk, position) and summed once per distinct tally, its terms in the
    order the pairs meet them, as integer numerators over a common
    denominator.  A float scan shortlists the candidates within a relative
    1e-9 of the float minimum; among them the radicand is minimized exactly,
    so the returned radicand is the certified minimum.  When several
    candidates share it exactly, the witness is the one with the smallest
    float(num) / float(den), the first in relation and position order among
    equal floats.  Exact arithmetic runs on the shortlist only, in integers:
    a candidate's denominator u_sum * v_sum is multiplied out term by term,
    and two candidates compare by their cross products, scaled to integer
    coefficients; decimals settle the order only when those differ.
    """
    reader = _reader(scheme)
    if not len(scheme.relation):
        raise ValueError("empty relation")
    scale = reader.scale
    tops, numbers, tallies = reader.tally()
    monomials = _Monomials()
    values = _u_sums(reader, tallies, monomials)
    # the scan key is top / scale over the float of the walk's u sum
    keys = reader.keys([top / scale for top in tops], numbers, [value[0] for value in values])
    # candidates with the same scaled numerator and the same u and v values
    # have the same radicand and float key, so only the first can win
    seen = set()
    win = None
    for x, y, p in reader.shortlist(keys, mul):
        top, u, v = tops[x] * tops[y], values[numbers[x][p]], values[numbers[y][p]]
        if (top, id(u), id(v)) in seen:
            continue
        seen.add((top, id(u), id(v)))
        den, nums = u[1] * v[1], monomials.times(u[2], v[2])
        key = top / (scale * scale) / monomials.value(den, nums.items())
        if win is not None:
            # top / den against the winner's, cross-multiplied over both dens
            win_top, win_den, win_nums = win[:3]
            lhs = {mono: top * num * den for mono, num in win_nums.items()}
            rhs = {mono: win_top * num * win_den for mono, num in nums.items()}
            order = 0
            if lhs != rhs:
                lhs, rhs = (monomials.surd_sum(1, side.items()) for side in (lhs, rhs))
                order = _compare(lhs, rhs)
            if order > 0 or (order == 0 and not key < win[3]):
                continue
        win = (top, den, nums, key, (x, y, p))
    assert win is not None
    top, den, nums, key, witness = win
    return QuantumBound(
        radicand_num=SurdSum.of(Fraction(top, scale * scale)),
        radicand_den=monomials.surd_sum(den, nums.items()),
        value=key**0.5,
        witness=reader.witness(*witness),
    )
