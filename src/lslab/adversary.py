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

Enumeration and table construction are single-threaded; the resulting tables
are immutable and the min/max scans are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import ceil, inf, lcm

from .errors import BudgetExceeded
from .grid import GridShape, Vertex
from .instances import _replay_hypercube

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
        exps: dict[int, Fraction] = {}
        for prime, mult in _factorize(base.numerator).items():
            exps[prime] = exps.get(prime, Fraction(0)) + mult * exponent
        for prime, mult in _factorize(base.denominator).items():
            exps[prime] = exps.get(prime, Fraction(0)) - mult * exponent
        coef = Fraction(1)
        mono = []
        for prime in sorted(exps):
            e = exps[prime]
            whole = e.numerator // e.denominator
            frac = e - whole
            coef *= Fraction(prime) ** whole
            if frac:
                mono.append((prime, frac))
        return cls(coef, tuple(mono))

    def __mul__(self, other: "Surd") -> "Surd":
        exps = dict(self.mono)
        coef = self.coef * other.coef
        for prime, e in other.mono:
            e = exps.get(prime, Fraction(0)) + e
            whole = e.numerator // e.denominator
            coef *= Fraction(prime) ** whole
            e -= whole
            if e:
                exps[prime] = e
            else:
                exps.pop(prime, None)
        return Surd(coef, tuple(sorted(exps.items())))

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
            a = Surd(coef_a, mono_a)
            for mono_b, coef_b in other._terms.items():
                out.add(a * Surd(coef_b, mono_b))
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
    shape: GridShape
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


def enumerate_paths(
    kind: str,
    m: int,
    T: int,
    side: int | None = None,
    limit: int = DEFAULT_FAMILY_LIMIT,
) -> PathFamily:
    """All step sequences of the family, with derived point sets.

    Hypercube families need T+1 to be a power of two (the clock is a
    hypercube snake path); grid families take an explicit walk-space side
    (default T+2) and run their clock on a line of T+1 points.  Grid steps
    at a border stand still when aimed outward, which keeps distinct sign
    sequences on distinct point sequences.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if m < 1:
        raise ValueError(f"walk dimensions need m >= 1, got m={m}")
    if kind == HYPERCUBE_KIND:
        count = m ** (T + 1)
        if count > limit:
            raise BudgetExceeded(f"{count} walks exceed the family limit {limit}")
        ticks = T + 1
        c = (ticks - 1).bit_length()
        if 1 << c != ticks:
            raise ValueError("hypercube clocks require T+1 to be a power of two")
        n = m + c
        walks = []
        for steps in product(range(m), repeat=ticks):
            inst = _replay_hypercube(n, m, steps, seed=None)
            walks.append(_record(steps, inst.trajectory))
        expected = count
        shape = GridShape(2, n)
        side_out = 2
    elif kind == GRID_KIND:
        count = 2 ** (T + 1)
        if count > limit:
            raise BudgetExceeded(f"{count} walks exceed the family limit {limit}")
        if side is None:
            side = T + 2
        if side < 2:
            raise ValueError("grid walk side must be at least 2")
        start = (side // 2,) * m
        walks = []
        for signs in product((-1, 1), repeat=T + 1):
            points = []
            w = start
            for t, sign in enumerate(signs):
                dim = t % m
                clock = (t + 1,)
                points.append(w + clock)
                c0 = w[dim] + sign
                if not 1 <= c0 <= side:
                    c0 = w[dim]  # blocked at the border: stand still
                w = w[:dim] + (c0,) + w[dim + 1 :]
                points.append(w + clock)
            walks.append(_record(signs, tuple(points)))
        expected = count
        shape = None  # product space [side]^m x [T+1]; not a square grid
        side_out = side
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    if len(walks) != expected:
        raise RuntimeError("enumeration lost walks")
    return PathFamily(
        kind=kind,
        m=m,
        T=T,
        side=side_out,
        shape=shape if shape is not None else GridShape(max(side_out, T + 1), 1),
        walks=tuple(walks),
    )


def diverge_index(x: WalkRecord, y: WalkRecord) -> int | None:
    """First step index where the two walks' step sequences part ways;
    None when the sequences are identical."""
    if len(x.steps) != len(y.steps):
        raise ValueError("walks come from different families")
    for idx, (a, b) in enumerate(zip(x.steps, y.steps)):
        if a != b:
            return idx
    return None


@dataclass(frozen=True)
class Relation:
    """Ordered pairs of walk indices with differing endpoints."""

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def endpoint_relation(family: PathFamily) -> Relation:
    pairs = [
        (ix, iy)
        for ix, x in enumerate(family.walks)
        for iy, y in enumerate(family.walks)
        if x.endpoint != y.endpoint
    ]
    return Relation(pairs=tuple(pairs))


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


def _survival(k: int, j: int, b: int) -> int:
    # how many ticks a differing position at (j, b) outlived the divergence
    return j - k + b


def _hypercube_multiplier(family: PathFamily, k: int, j: int, b: int) -> Surd:
    s = _survival(k, j, b)
    m = family.m
    if s <= 10:
        return Surd.power(m, Fraction(-ceil(Fraction(s, 2)), 2))
    if s <= m * m:
        return Surd.power(m, Fraction(-5, 2))
    return Surd.power(2, Fraction(-m, 2))


def _grid_multiplier(family: PathFamily, k: int, j: int, b: int) -> Surd:
    s = _survival(k, j, b)
    m, side = family.m, family.side
    if s == 1:
        return Surd.of(1)
    if s <= m * side * side:
        return Surd.power(s - 1, Fraction(-m, 4))
    return Surd.power(side, Fraction(-m, 2))


def _reciprocal(surd: Surd) -> Surd:
    coef = Fraction(1) / surd.coef
    inv_mono = []
    for prime, e in surd.mono:
        # p^-e = p^(1-e) / p keeps the exponent inside (0, 1)
        coef /= prime
        inv_mono.append((prime, 1 - e))
    return Surd(coef, tuple(sorted(inv_mono)))


@dataclass(frozen=True)
class WeightScheme:
    """w on the relation plus the u/v multiplier rule.

    For a pair (X, Y) diverging at k and a differing position held by X at
    role (j, b): u(X,Y,i) = a(k,j,b) * w and v(X,Y,i) = w / a(k,j,b); when Y
    holds the position the factors swap.  The randomized scheme has a = 1,
    i.e. u = v = w.

    The multiplier depends on (k, j, b) only through the survival
    s = j - k + b, and (u, v) only through (w, s, which walk holds the
    position); both are memoized on those keys, so equal inputs share one
    Surd object.
    """

    kind: str
    family: PathFamily
    relation: Relation
    w: dict
    diverge: dict
    _pair_memo: dict = field(default_factory=dict, compare=False, repr=False)
    _uv_memo: dict = field(default_factory=dict, compare=False, repr=False)

    def multiplier(self, k: int, j: int, b: int) -> Surd:
        if self.kind == RANDOMIZED:
            return Surd.of(1)
        if self.kind == QUANTUM_HYPERCUBE:
            return _hypercube_multiplier(self.family, k, j, b)
        return _grid_multiplier(self.family, k, j, b)

    def multiplier_pair(self, k: int, j: int, b: int) -> tuple[Surd, Surd]:
        """The scaling factor and its exact reciprocal."""
        s = _survival(k, j, b)
        hit = self._pair_memo.get(s)
        if hit is None:
            a = self.multiplier(k, j, b)
            hit = self._pair_memo[s] = (a, _reciprocal(a))
        return hit

    def uv(self, pair: tuple[int, int], pos: Vertex) -> tuple[Surd, Surd]:
        """(u, v) at a differing position of the pair."""
        ix, iy = pair
        x, y = self.family.walks[ix], self.family.walks[iy]
        k = self.diverge[pair]
        x_holds = pos in x.point_set
        j, b = (x if x_holds else y).role[pos]
        key = (self.w[pair], _survival(k, j, b), x_holds)
        hit = self._uv_memo.get(key)
        if hit is None:
            wxy = Surd.of(self.w[pair])
            a, a_inv = self.multiplier_pair(k, j, b)
            hit = (wxy * a, wxy * a_inv) if x_holds else (wxy * a_inv, wxy * a)
            self._uv_memo[key] = hit
        return hit


def build_scheme(kind: str, family: PathFamily, relation: Relation) -> WeightScheme:
    """Weight tables over the relation.

    w(X, Y) = 1 / #{Z : Z diverges from X exactly where Y does}, which is
    1 / prefix_class_size(family, k) for the divergence index k; pairs with
    the same k share one weight object.
    """
    if kind not in (RANDOMIZED, QUANTUM_HYPERCUBE, QUANTUM_GRID):
        raise ValueError(f"unknown scheme kind {kind!r}")
    if kind == QUANTUM_HYPERCUBE and family.kind != HYPERCUBE_KIND:
        raise ValueError("hypercube scheme on a non-hypercube family")
    if kind == QUANTUM_GRID and family.kind != GRID_KIND:
        raise ValueError("grid scheme on a non-grid family")
    by_k = [Fraction(1, prefix_class_size(family, k)) for k in range(family.T + 1)]
    w = {}
    diverge = {}
    for ix, iy in relation.pairs:
        k = diverge_index(family.walks[ix], family.walks[iy])
        if k is None:
            raise ValueError("relation contains an identical pair")
        diverge[(ix, iy)] = k
        w[(ix, iy)] = by_k[k]
    return WeightScheme(kind=kind, family=family, relation=relation, w=w, diverge=diverge)


# ---------------------------------------------------------------------------
# bound values
# ---------------------------------------------------------------------------


def differing_positions(family: PathFamily, pair: tuple[int, int]) -> list[Vertex]:
    x, y = family.walks[pair[0]], family.walks[pair[1]]
    return sorted(x.point_set.symmetric_difference(y.point_set))


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


def _scaled_weight_sums(scheme: WeightScheme):
    """The relation's weights as integers over their common denominator.

    Returns (scale, weights, row, col): weights[pair] = w(pair) * scale, and
    row[x] / col[y] are the scaled sums of w over the pairs (x, .) / (., y).
    """
    pairs = scheme.relation.pairs
    scale = lcm(*{scheme.w[pair].denominator for pair in pairs})
    weights = {}
    row: dict[int, int] = {}
    col: dict[int, int] = {}
    for pair in pairs:
        w = scheme.w[pair]
        weights[pair] = scaled = w.numerator * (scale // w.denominator)
        row[pair[0]] = row.get(pair[0], 0) + scaled
        col[pair[1]] = col.get(pair[1], 0) + scaled
    return scale, weights, row, col


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

    The scheme must carry positive weights on every relation pair; the
    randomized scheme (u = v = w) is the intended input.  The weights are
    scaled to integers, so candidates compare by cross-multiplication; the
    witness is the first minimal candidate in relation and position order.
    """
    pairs = scheme.relation.pairs
    if not pairs:
        raise ValueError("empty relation")
    if any(weight <= 0 for weight in scheme.w.values()):
        raise ValueError("weights must be positive")
    family = scheme.family
    _, weights, row, col = _scaled_weight_sums(scheme)
    row_at: dict[tuple[int, Vertex], int] = {}
    col_at: dict[tuple[int, Vertex], int] = {}
    pair_positions = []
    for pair in pairs:
        ix, iy = pair
        weight = weights[pair]
        positions = differing_positions(family, pair)
        pair_positions.append(positions)
        for pos in positions:
            row_at[ix, pos] = row_at.get((ix, pos), 0) + weight
            col_at[iy, pos] = col_at.get((iy, pos), 0) + weight
    best_num, best_den = 1, 0  # +infinity
    witness = None
    for pair, positions in zip(pairs, pair_positions):
        ix, iy = pair
        x_all, y_all = row[ix], col[iy]
        for pos in positions:
            x_at, y_at = row_at[ix, pos], col_at[iy, pos]
            # max(x_all / x_at, y_all / y_at)
            num, den = (x_all, x_at) if x_all * y_at >= y_all * x_at else (y_all, y_at)
            if num * best_den < best_num * den:
                best_num, best_den = num, den
                witness = BoundWitness(ix, iy, pos)
    assert witness is not None
    return RelationalBound(value=Fraction(best_num, best_den), witness=witness)


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


def _summed(terms: dict) -> tuple[dict, dict]:
    """Each key's tallied terms as a SurdSum, and that sum's float.

    Adding the terms in first-seen order keeps the order (and so the float)
    that adding them one position at a time would give.  Keys whose sums
    have the same terms in the same order share one SurdSum object, so one
    object stands for one exact value and one float.
    """
    by_tally: dict = {}
    by_form: dict = {}
    sums, floats = {}, {}
    for key, cell in terms.items():
        tally = tuple((ident, entry[1]) for ident, entry in cell.items())
        hit = by_tally.get(tally)
        if hit is None:
            total = SurdSum()
            for surd, count in cell.values():
                total.add(Surd(surd.coef * count, surd.mono))
            form = tuple(total._terms.items())
            hit = by_tally[tally] = by_form.setdefault(form, (total, float(total)))
        sums[key], floats[key] = hit
    return sums, floats


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

    Refuses schemes that fail the u*v >= w^2 validity gate, checked during
    the same pass that sums u and v.  A float scan shortlists the candidates
    within a relative 1e-9 of the float minimum; among them the radicand is
    minimized exactly, so the returned radicand is the certified minimum.
    When several candidates share it exactly, the witness is the one with
    the smallest float(num) / float(den), the first in relation and position
    order among equal floats.
    """
    pairs = scheme.relation.pairs
    if not pairs:
        raise ValueError("empty relation")
    family, uv = scheme.family, scheme.uv
    scale, _, row, col = _scaled_weight_sums(scheme)
    checked: dict = {}
    u_terms: dict[tuple[int, Vertex], dict] = {}
    v_terms: dict[tuple[int, Vertex], dict] = {}
    pair_positions = []
    for pair in pairs:
        ix, iy = pair
        w = scheme.w[pair]
        positions = differing_positions(family, pair)
        pair_positions.append(positions)
        for pos in positions:
            u, v = uv(pair, pos)
            if not _uv_valid(checked, w, u, v):
                raise ValueError("scheme violates u*v >= w^2")
            # per (walk, position): each distinct term object and its count
            u_terms.setdefault((ix, pos), {}).setdefault(id(u), [u, 0])[1] += 1
            v_terms.setdefault((iy, pos), {}).setdefault(id(v), [v, 0])[1] += 1
    u_at, u_float = _summed(u_terms)
    v_at, v_float = _summed(v_terms)

    best, limit = inf, inf
    shortlist = []
    for pair, positions in zip(pairs, pair_positions):
        ix, iy = pair
        top = (row[ix] / scale) * (col[iy] / scale)
        for pos in positions:
            key = top / (u_float[ix, pos] * v_float[iy, pos])
            if key <= limit:
                shortlist.append((key, pair, pos))
                if key < best:
                    best, limit = key, key * (1 + _SHORTLIST_TOL)
                    shortlist = [c for c in shortlist if c[0] <= limit]

    # candidates with the same scaled numerator and the same u and v sums
    # have the same radicand and float key, so only the first can win
    seen = set()
    win = None
    for _, (ix, iy), pos in shortlist:
        top, u_sum, v_sum = row[ix] * col[iy], u_at[ix, pos], v_at[iy, pos]
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
        win = (num, den, key, BoundWitness(ix, iy, pos))
    assert win is not None
    num, den, key, witness = win
    return QuantumBound(
        radicand_num=num, radicand_den=den, value=key**0.5, witness=witness
    )
