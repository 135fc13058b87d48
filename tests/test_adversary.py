"""Adversary bound tests, including independent re-derivations of both bounds."""

import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from operator import mul

import pytest

from lslab import adversary
from lslab.errors import BudgetExceeded
from lslab.adversary import (
    DEFAULT_FAMILY_LIMIT,
    GRID_KIND,
    HYPERCUBE_KIND,
    QUANTUM_GRID,
    QUANTUM_HYPERCUBE,
    RANDOMIZED,
    Surd,
    SurdSum,
    WalkRecord,
    WeightScheme,
    _FamilyReader,
    build_scheme,
    differing_positions,
    diverge_index,
    endpoint_relation,
    enumerate_paths,
    prefix_class_size,
    quantum_adversary_value,
    relational_adversary_value,
    scheme_is_valid,
)
from lslab.grid import _snake_path
from lslab.instances import _clock_walk, _hypercube_step, _replay_hypercube
from pairwise_reader import ListedFamily, PairwiseReader, TableScheme


@pytest.fixture
def pairwise(monkeypatch):
    """The library evaluators, reading every scheme pair by pair through the
    test-side reader."""
    monkeypatch.setattr(adversary, "_reader", PairwiseReader)


class TestSurds:
    def test_power_integerizes(self):
        assert Surd.power(4, Fraction(1, 2)).as_fraction() == 2
        assert Surd.power(2, Fraction(-1)).as_fraction() == Fraction(1, 2)

    def test_half_power(self):
        s = Surd.power(2, Fraction(-3, 2))
        assert s.coef == Fraction(1, 4)
        assert s.mono == ((2, Fraction(1, 2)),)
        assert abs(float(s) - 2 ** -1.5) < 1e-12

    def test_product_cancels(self):
        a = Surd.power(3, Fraction(1, 4))
        b = Surd.power(3, Fraction(3, 4))
        assert (a * b).as_fraction() == 3

    def test_sum_canonical(self):
        s = SurdSum.of(Surd.power(2, Fraction(1, 2)))
        t = SurdSum.of(Surd.power(8, Fraction(1, 2)))  # 2*sqrt(2)
        u = s + t
        v = SurdSum.of(Surd(Fraction(3), ((2, Fraction(1, 2)),)))
        assert u == v

    def test_sum_product(self):
        root2 = SurdSum.of(Surd.power(2, Fraction(1, 2)))
        one = SurdSum.of(1)
        expr = (root2 + one) * (root2 + one)  # 3 + 2*sqrt(2)
        expect = SurdSum.of(3) + SurdSum.of(Surd(Fraction(2), ((2, Fraction(1, 2)),)))
        assert expr == expect
        assert abs(float(expr) - (1 + 2**0.5) ** 2) < 1e-12


def test_surd_sum_float_adds_terms_left_to_right():
    # 1 + 0.6 ulp rounds up to 1 + 1 ulp, and adding another 0.6 ulp rounds
    # to 1 + 2 ulps; the exact sum, 1 + 1.2 ulps, rounds to 1 + 1 ulp, and
    # from CPython 3.12 on builtin sum() compensates towards it
    ulp = 2.0**-52
    root2, root3 = Surd.power(2, Fraction(1, 2)), Surd.power(3, Fraction(1, 2))
    total = SurdSum.of(1)
    for root in (root2, root3):
        total.add(Surd(Fraction(0.6 * ulp / float(root)), root.mono))
    terms = [float(Surd(coef, mono)) for mono, coef in total._terms.items()]
    left_to_right = 0.0
    for term in terms:
        left_to_right += term
    assert left_to_right == 1 + 2 * ulp
    assert math.fsum(terms) == 1 + ulp
    assert float(total) == left_to_right


class TestFamilies:
    def test_hypercube_count(self):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 1)
        assert len(fam) == 4

    def test_grid_count(self):
        fam = enumerate_paths(GRID_KIND, 1, 2)
        assert len(fam) == 8

    def test_negative_horizon(self):
        with pytest.raises(ValueError):
            enumerate_paths(HYPERCUBE_KIND, 2, -1)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_paths(HYPERCUBE_KIND, 4, 15)

    def test_hypercube_point_sets_distinct(self):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        sets = {w.point_set for w in fam.walks}
        assert len(sets) == len(fam)

    def test_grid_point_sequences_distinct(self):
        fam = enumerate_paths(GRID_KIND, 1, 3, side=3)
        assert len({w.points for w in fam.walks}) == len(fam)

    def test_diverge_index(self):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        by_steps = {w.steps: w for w in fam.walks}
        assert diverge_index(by_steps[(0, 1, 0, 0)], by_steps[(0, 1, 1, 0)]) == 2
        assert diverge_index(by_steps[(1, 0, 0, 0)], by_steps[(0, 0, 0, 0)]) == 0
        assert diverge_index(by_steps[(1, 0, 1, 0)], by_steps[(1, 0, 1, 0)]) is None

    def test_positions_outlive_divergence(self):
        # a position held by exactly one of the two walks shows up at a tick
        # no earlier than the divergence allows: k <= j + b - 1
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        rel = endpoint_relation(fam)
        for ix, iy in rel.pairs:
            x, y = fam.walks[ix], fam.walks[iy]
            k = diverge_index(x, y)
            for pos in x.point_set - y.point_set:
                j, b = x.role[pos]
                assert k <= j + b - 1

    def test_full_divergence_forces_new_endpoint(self):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        for x in fam.walks:
            for y in fam.walks:
                if diverge_index(x, y) == fam.T:
                    assert x.endpoint != y.endpoint


class TestSchemes:
    def test_weight_example(self):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 1)
        rel = endpoint_relation(fam)
        scheme = build_scheme(RANDOMIZED, fam, rel)
        assert prefix_class_size(fam, 0) == 2
        for pair, k in scheme.diverge.items():
            if k == 0:
                assert scheme.w[pair] == Fraction(1, 2)

    def test_randomized_u_equals_v_equals_w(self):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        rel = endpoint_relation(fam)
        scheme = build_scheme(RANDOMIZED, fam, rel)
        for pair in rel.pairs[:32]:
            w = SurdSum.of(scheme.w[pair])
            for pos in differing_positions(fam, pair):
                u, v = scheme.uv(pair, pos)
                assert SurdSum.of(u) == w
                assert SurdSum.of(v) == w

    @pytest.mark.parametrize(
        "kind,fam_args",
        [
            (QUANTUM_HYPERCUBE, (HYPERCUBE_KIND, 2, 3)),
            (QUANTUM_GRID, (GRID_KIND, 1, 3)),
        ],
    )
    def test_multiplier_product_is_one(self, kind, fam_args):
        fam = enumerate_paths(*fam_args)
        rel = endpoint_relation(fam)
        scheme = build_scheme(kind, fam, rel)
        # the survivals s = j - k + b of positions held at (j, b) by walks
        # diverging at k <= j
        for s in range(1, fam.T + 2):
            a, a_inv = scheme.multiplier_pair(s)
            assert (a * a_inv).as_fraction() == 1

    def test_validity_both_schemes(self):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        rel = endpoint_relation(fam)
        for kind in (RANDOMIZED, QUANTUM_HYPERCUBE):
            assert scheme_is_valid(build_scheme(kind, fam, rel))

    def test_kind_family_mismatch(self):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 1)
        with pytest.raises(ValueError):
            build_scheme(QUANTUM_GRID, fam, endpoint_relation(fam))


# a 16-walk family over an 81-walk family's relation and back (these ended
# in IndexError and in a bound over the wrong pairs), and a family over the
# relation of an equal family enumerated again, which is another object
OTHER_FAMILY = [
    ((HYPERCUBE_KIND, 2, 3), (HYPERCUBE_KIND, 3, 3)),
    ((HYPERCUBE_KIND, 3, 3), (HYPERCUBE_KIND, 2, 3)),
    ((HYPERCUBE_KIND, 2, 3), (HYPERCUBE_KIND, 2, 3)),
]
OTHER_FAMILY_IDS = ["16-over-81", "81-over-16", "16-over-equal-16"]
EVALUATORS = [(RANDOMIZED, relational_adversary_value), (QUANTUM_HYPERCUBE, quantum_adversary_value)]


@pytest.mark.parametrize("own, other", OTHER_FAMILY, ids=OTHER_FAMILY_IDS)
@pytest.mark.parametrize("kind, evaluate", EVALUATORS, ids=["relational", "quantum"])
def test_another_familys_relation_refused_before_evaluation(own, other, kind, evaluate):
    fam, rel = enumerate_paths(*own), endpoint_relation(enumerate_paths(*other))
    for make in (build_scheme, WeightScheme):
        with pytest.raises(ValueError, match="own family"):
            evaluate(make(kind, fam, rel))


@pytest.mark.parametrize("kind, evaluate", EVALUATORS, ids=["relational", "quantum"])
def test_evaluators_refuse_scheme_subclasses(kind, evaluate):
    class Subclass(WeightScheme):
        pass

    fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
    with pytest.raises(ValueError, match="only WeightScheme"):
        evaluate(Subclass(kind, fam, endpoint_relation(fam)))


def reordered(fam, order):
    """The family's walks listed in `order`, as a test-side family."""
    return ListedFamily(fam.kind, fam.m, fam.T, fam.side, [fam.walks[i] for i in order])


def naive_marginals(fam, rel, weight):
    """Direct-definition marginals over the relation, dict-by-dict."""
    wx, wy, wxi, wyi = {}, {}, {}, {}
    for ix, iy in rel.pairs:
        w = weight[(ix, iy)]
        wx[ix] = wx.get(ix, Fraction(0)) + w
        wy[iy] = wy.get(iy, Fraction(0)) + w
        sym = fam.walks[ix].point_set ^ fam.walks[iy].point_set
        for pos in sym:
            wxi[(ix, pos)] = wxi.get((ix, pos), Fraction(0)) + w
            wyi[(iy, pos)] = wyi.get((iy, pos), Fraction(0)) + w
    return wx, wy, wxi, wyi


class TestMarginalIdentity:
    def test_definition_equals_conditional_form(self):
        # summing grouped weights equals summing per-divergence conditional
        # probabilities of a changed endpoint, exactly
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        rel = endpoint_relation(fam)
        scheme = build_scheme(RANDOMIZED, fam, rel)
        wx, _, _, _ = naive_marginals(fam, rel, scheme.w)
        for ix, x in enumerate(fam.walks):
            total = Fraction(0)
            for k in range(fam.T + 1):
                classmates = [
                    z for z in fam.walks if diverge_index(x, z) == k
                ]
                changed = [z for z in classmates if z.endpoint != x.endpoint]
                if classmates:
                    total += Fraction(len(changed), len(classmates))
            assert total == wx[ix]

    def test_fully_diverged_probability_is_one(self):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        for x in fam.walks:
            classmates = [z for z in fam.walks if diverge_index(x, z) == fam.T]
            assert classmates
            assert all(z.endpoint != x.endpoint for z in classmates)


class TestRelationalBound:
    def test_matches_naive_implementation(self):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        rel = endpoint_relation(fam)
        scheme = build_scheme(RANDOMIZED, fam, rel)
        got = relational_adversary_value(scheme)
        wx, wy, wxi, wyi = naive_marginals(fam, rel, scheme.w)
        expect = min(
            max(wx[ix] / wxi[(ix, pos)], wy[iy] / wyi[(iy, pos)])
            for ix, iy in rel.pairs
            for pos in fam.walks[ix].point_set ^ fam.walks[iy].point_set
        )
        assert got.value == expect

    def test_invariant_under_relabeling(self, monkeypatch):
        # the library on enumeration order, the pairwise reader on the walks
        # listed in reverse
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        shuffled = reordered(fam, list(range(len(fam)))[::-1])
        a = relational_adversary_value(
            build_scheme(RANDOMIZED, fam, endpoint_relation(fam))
        )
        monkeypatch.setattr(adversary, "_reader", PairwiseReader)
        b = relational_adversary_value(
            build_scheme(RANDOMIZED, shuffled, endpoint_relation(shuffled))
        )
        assert a.value == b.value


class PlainRoot2:
    """Independent exact arithmetic in a + b*sqrt(2), for the naive check."""

    def __init__(self, a, b=Fraction(0)):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, other):
        return PlainRoot2(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        return PlainRoot2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def __float__(self):
        return float(self.a) + float(self.b) * 2**0.5


class TestQuantumBound:
    def test_invalid_scheme_refused(self, monkeypatch):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 1)

        class Broken(WeightScheme):
            def uv(self, pair, pos):
                u, v = WeightScheme.uv(self, pair, pos)
                return u * Surd.of(Fraction(1, 4)), v  # u*v < w^2 now

        bad = Broken(RANDOMIZED, fam, endpoint_relation(fam))
        assert not scheme_is_valid(bad)
        # the library reads no overridden uv; read pair by pair, the
        # validity gate refuses it
        with pytest.raises(ValueError, match="only WeightScheme"):
            quantum_adversary_value(bad)
        monkeypatch.setattr(adversary, "_reader", PairwiseReader)
        with pytest.raises(ValueError, match="violates"):
            quantum_adversary_value(bad)

    def test_matches_naive_root2_implementation(self):
        # at m=2 every multiplier is a power of sqrt(2), so an a + b*sqrt(2)
        # re-derivation reproduces the exact radicand
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        rel = endpoint_relation(fam)
        scheme = build_scheme(QUANTUM_HYPERCUBE, fam, rel)
        got = quantum_adversary_value(scheme)

        halfroot = {  # 2^(-c/2) for the survivals seen at T=3
            1: PlainRoot2(0, Fraction(1, 2)),
            2: PlainRoot2(0, Fraction(1, 2)),
            3: PlainRoot2(Fraction(1, 2)),
            4: PlainRoot2(Fraction(1, 2)),
        }
        inv = {
            1: PlainRoot2(0, Fraction(1, 2)) * PlainRoot2(2),
            2: PlainRoot2(0, Fraction(1, 2)) * PlainRoot2(2),
            3: PlainRoot2(2),
            4: PlainRoot2(2),
        }
        wx, wy = {}, {}
        u_at, v_at = {}, {}
        for ix, iy in rel.pairs:
            x, y = fam.walks[ix], fam.walks[iy]
            k = diverge_index(x, y)
            w = Fraction(1, 2 ** (fam.T - k))
            wx[ix] = wx.get(ix, Fraction(0)) + w
            wy[iy] = wy.get(iy, Fraction(0)) + w
            for pos in x.point_set ^ y.point_set:
                if pos in x.point_set:
                    j, b = x.role[pos]
                    a_mult, b_mult = halfroot[j - k + b], inv[j - k + b]
                else:
                    j, b = y.role[pos]
                    a_mult, b_mult = inv[j - k + b], halfroot[j - k + b]
                wplain = PlainRoot2(w)
                cur = u_at.get((ix, pos), PlainRoot2(0))
                u_at[(ix, pos)] = cur + wplain * a_mult
                cur = v_at.get((iy, pos), PlainRoot2(0))
                v_at[(iy, pos)] = cur + wplain * b_mult
        best = None
        for ix, iy in rel.pairs:
            for pos in fam.walks[ix].point_set ^ fam.walks[iy].point_set:
                num = PlainRoot2(wx[ix] * wy[iy])
                den = u_at[(ix, pos)] * v_at[(iy, pos)]
                val = float(num) / float(den)
                if best is None or val < best[0]:
                    best = (val, num, den)
        assert got.value == pytest.approx(best[0] ** 0.5, rel=1e-12)
        # exact cross-check: num_got * den_naive == num_naive * den_got
        # translate the naive pair into the module's representation
        def to_sum(p):
            out = SurdSum.of(p.a)
            out.add(Surd(p.b, ((2, Fraction(1, 2)),)) if p.b else Surd.of(0))
            return out

        lhs = got.radicand_num * to_sum(best[2])
        rhs = got.radicand_den * to_sum(best[1])
        assert lhs == rhs

    def test_quantum_invariant_under_relabeling(self, monkeypatch):
        fam = enumerate_paths(HYPERCUBE_KIND, 2, 3)
        shuffled = reordered(fam, list(range(len(fam)))[::-1])
        a = quantum_adversary_value(
            build_scheme(QUANTUM_HYPERCUBE, fam, endpoint_relation(fam))
        )
        monkeypatch.setattr(adversary, "_reader", PairwiseReader)
        b = quantum_adversary_value(
            build_scheme(QUANTUM_HYPERCUBE, shuffled, endpoint_relation(shuffled))
        )
        assert a.radicand_equals(b)
        assert a.value == pytest.approx(b.value, rel=1e-12)


def test_prefix_class_size_matches_enumeration():
    families = [(HYPERCUBE_KIND, m, T) for m in (2, 3) for T in (1, 3)]
    families += [(GRID_KIND, m, T) for m in (1, 2) for T in range(5)]
    for args in families:
        fam = enumerate_paths(*args)
        for x in fam.walks:
            counts = [0] * (fam.T + 1)
            for z in fam.walks:
                k = diverge_index(x, z)
                if k is not None:
                    counts[k] += 1
            assert counts == [prefix_class_size(fam, k) for k in range(fam.T + 1)], args


# ---------------------------------------------------------------------------
# the evaluators against a plain re-statement of their definitions
# ---------------------------------------------------------------------------


def reference_quantum(scheme):
    """One exact product per candidate, then the float minimum in iteration
    order: the straightforward evaluation the fast scan must reproduce."""
    fam = scheme.family
    w_row, w_col, u_at, v_at = {}, {}, {}, {}
    for pair in scheme.relation.pairs:
        ix, iy = pair
        w = scheme.w[pair]
        w_row[ix] = w_row.get(ix, Fraction(0)) + w
        w_col[iy] = w_col.get(iy, Fraction(0)) + w
        for pos in differing_positions(fam, pair):
            u, v = scheme.uv(pair, pos)
            u_at.setdefault((ix, pos), SurdSum()).add(u)
            v_at.setdefault((iy, pos), SurdSum()).add(v)
    best = None
    for pair in scheme.relation.pairs:
        ix, iy = pair
        for pos in differing_positions(fam, pair):
            num = SurdSum.of(w_row[ix] * w_col[iy])
            den = u_at[(ix, pos)] * v_at[(iy, pos)]
            key = float(num) / float(den)
            if best is None or key < best[0]:
                best = (key, num, den, (ix, iy, pos))
    return best


def reference_relational(scheme):
    wx, wy, wxi, wyi = naive_marginals(scheme.family, scheme.relation, scheme.w)
    best = None
    for ix, iy in scheme.relation.pairs:
        for pos in differing_positions(scheme.family, (ix, iy)):
            cand = max(wx[ix] / wxi[(ix, pos)], wy[iy] / wyi[(iy, pos)])
            if best is None or cand < best[0]:
                best = (cand, (ix, iy, pos))
    return best


REFERENCE_FAMILIES = [
    (HYPERCUBE_KIND, 2, 1),
    (HYPERCUBE_KIND, 2, 3),
    (HYPERCUBE_KIND, 3, 1),
] + [(GRID_KIND, m, T) for m in (1, 2) for T in range(5)]

# the benchmark's two families, and grid m=3 T=4, whose quantum witness
# (14, 6, ...) beats its mirror (6, 14, ...) on the float of its exact
# denominator, which multiplies the same two sums in the other order
LARGER_REFERENCE_FAMILIES = [(HYPERCUBE_KIND, 3, 3), (GRID_KIND, 2, 5), (GRID_KIND, 3, 4)]


# grid m=1 T=5 on side 2: survivals 5 and 6 exceed m * side^2 and take
# _grid_multiplier's side^(-m/2) branch
SMALL_SIDE_FAMILIES = [(GRID_KIND, 1, 5, 2)]


@pytest.mark.parametrize(
    "fam_args",
    REFERENCE_FAMILIES + LARGER_REFERENCE_FAMILIES + SMALL_SIDE_FAMILIES,
    ids=lambda a: f"{a[0]}-m{a[1]}-T{a[2]}" + "".join(f"-side{side}" for side in a[3:]),
)
def test_evaluators_match_reference(fam_args):
    fam = enumerate_paths(*fam_args)
    rel = endpoint_relation(fam)
    kind = QUANTUM_HYPERCUBE if fam.kind == HYPERCUBE_KIND else QUANTUM_GRID
    got = quantum_adversary_value(build_scheme(kind, fam, rel))
    key, num, den, where = reference_quantum(build_scheme(kind, fam, rel))
    assert str(got.radicand_num) == str(num)
    assert str(got.radicand_den) == str(den)
    assert (got.witness.x_index, got.witness.y_index, got.witness.position) == where
    assert got.value == key**0.5

    randomized = build_scheme(RANDOMIZED, fam, rel)
    got_rel = relational_adversary_value(randomized)
    value, where = reference_relational(randomized)
    assert got_rel.value == value
    assert (got_rel.witness.x_index, got_rel.witness.y_index, got_rel.witness.position) == where


def test_certification_beats_a_float_tie(pairwise):
    # one pair of unit weight; u*v is a rational a hair below sqrt(2) at the
    # first differing position and exactly sqrt(2) at the second, so the two
    # radicands 1/(u*v) round to one float and only an exact comparison
    # finds the minimum, 2^(-1/2), at the second position
    fam = enumerate_paths(HYPERCUBE_KIND, 2, 1)
    pair = endpoint_relation(fam).pairs[0]
    first, second, *rest = differing_positions(fam, pair)
    root2 = Surd.power(2, Fraction(1, 2))
    below = Fraction(14142135623730950488, 10**19)  # sqrt(2) = 1.41421356237309504880...
    assert float(below) == float(root2)
    one = Surd.of(1)
    table = {first: (Surd.of(below), one), second: (root2, one)}
    table.update({pos: (one, one) for pos in rest})
    scheme = TableScheme(fam, [pair], {pair: Fraction(1)}, lambda pair, pos: table[pos])
    assert reference_quantum(scheme)[3][2] == first  # the float minimum alone
    got = quantum_adversary_value(scheme)
    assert got.witness.position == second
    assert got.radicand_num == SurdSum.of(1)
    assert got.radicand_den == SurdSum.of(root2)


def test_irrational_product_just_below_w_squared_is_invalid(pairwise):
    # u = sqrt(2) and v a rational a hair below 1/sqrt(2): u*v < 1 = w^2
    # exactly, although the float product reads 1.0000000000000002
    fam = enumerate_paths(HYPERCUBE_KIND, 2, 1)
    pair = endpoint_relation(fam).pairs[0]
    first, *rest = differing_positions(fam, pair)
    root2 = Surd.power(2, Fraction(1, 2))
    v = Surd.of(Fraction(7071067811865475244, 10**19))
    assert float(root2 * v) > 1
    one = Surd.of(1)
    table = {first: (root2, v)}
    table.update({pos: (one, one) for pos in rest})
    scheme = TableScheme(fam, [pair], {pair: Fraction(1)}, lambda pair, pos: table[pos])
    assert not scheme_is_valid(scheme)
    with pytest.raises(ValueError, match="violates"):
        quantum_adversary_value(scheme)


@pytest.mark.parametrize("kind", [HYPERCUBE_KIND, GRID_KIND])
def test_enumerate_rejects_empty_walk_space(kind):
    with pytest.raises(ValueError, match="m >= 1"):
        enumerate_paths(kind, 0, 3)


@pytest.mark.parametrize(
    "args, kwargs, error, match",
    [
        (("ring", 2, 3), {}, ValueError, "unknown family kind"),
        ((HYPERCUBE_KIND, 2, 2), {}, ValueError, "power of two"),
        ((HYPERCUBE_KIND, 2, 0), {}, ValueError, "T=0"),
        ((GRID_KIND, 1, 3), {"side": 1}, ValueError, "side must be at least 2"),
        ((HYPERCUBE_KIND, 2, 3), {"side": 9}, ValueError, "grid families only"),
        # the budget is checked first: T+1 = 18 is no power of two either
        ((HYPERCUBE_KIND, 2, 17), {}, BudgetExceeded, "262144 walks"),
    ],
    ids=[
        "unknown-kind", "hypercube-T2", "hypercube-T0", "grid-side1", "hypercube-side",
        "budget-first",
    ],
)
def test_enumerate_refusals(args, kwargs, error, match):
    with pytest.raises(error, match=match):
        enumerate_paths(*args, **kwargs)


def test_enumerate_refuses_huge_families_from_the_exponent():
    # 2^20001 has over 6000 digits, past CPython's int-to-str limit, and
    # 3^10000001 takes seconds to build: both are refused from the exponent
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"^2\^20001 walks exceed the family limit 131072$"):
        enumerate_paths(GRID_KIND, 1, 20000)
    with pytest.raises(BudgetExceeded, match=r"^3\^10000001 walks exceed the family limit"):
        enumerate_paths(HYPERCUBE_KIND, 3, 10**7)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("m", [2, 3])
def test_hypercube_walks_are_generator_trajectories(m):
    fam = enumerate_paths(HYPERCUBE_KIND, m, 3)
    for x in fam.walks:
        assert x.points == _replay_hypercube(m + 2, m, x.steps, seed=None).trajectory


def uv_terms(scheme):
    """u at (x, pos) over the pairs (x, .) and v at (y, pos) over the pairs
    (., y), term by term in relation order, straight from scheme.uv."""
    u_terms, v_terms = {}, {}
    for pair in scheme.relation.pairs:
        for pos in differing_positions(scheme.family, pair):
            u, v = scheme.uv(pair, pos)
            u_terms.setdefault((pair[0], pos), []).append(u)
            v_terms.setdefault((pair[1], pos), []).append(v)
    return u_terms, v_terms


@pytest.mark.parametrize(
    "kind,fam_args",
    [(QUANTUM_HYPERCUBE, (HYPERCUBE_KIND, 3, 3)), (QUANTUM_GRID, (GRID_KIND, 2, 4))],
)
def test_v_sum_is_u_sum_term_for_term(kind, fam_args):
    # v(x, y, pos) == u(y, x, pos), and the pairs (., y) meet y in the order
    # of the pairs (y, .), so one tally serves both sides
    fam = enumerate_paths(*fam_args)
    u_terms, v_terms = uv_terms(build_scheme(kind, fam, endpoint_relation(fam)))
    assert u_terms.keys() == v_terms.keys()
    for key, terms in u_terms.items():
        assert v_terms[key] == terms, key


def test_u_sums_invariant_under_coordinate_permutations():
    fam = enumerate_paths(HYPERCUBE_KIND, 3, 3)
    u_terms, _ = uv_terms(build_scheme(QUANTUM_HYPERCUBE, fam, endpoint_relation(fam)))
    u_sum = {}
    for key, terms in u_terms.items():
        u_sum[key] = SurdSum()
        for term in terms:
            u_sum[key].add(term)
    index = {x.steps: ix for ix, x in enumerate(fam.walks)}
    m = fam.m
    for sigma in permutations(range(m)):
        inverse = sorted(range(m), key=sigma.__getitem__)
        for (ix, pos), total in u_sum.items():
            image = index[tuple(sigma[s] for s in fam.walks[ix].steps)]
            moved = tuple(pos[i] for i in inverse) + pos[m:]
            assert u_sum[image, moved] == total, (sigma, ix, pos)


def irrational_monomials(m, T):
    """The irrational monomials among the quantum hypercube multipliers and
    their reciprocals for survivals s = 1..T+1."""
    fam = ListedFamily(HYPERCUBE_KIND, m, T, side=2)
    scheme = WeightScheme(QUANTUM_HYPERCUBE, fam, endpoint_relation(fam))
    return {term.mono for s in range(1, T + 2) for term in scheme.multiplier_pair(s)} - {()}


def test_hypercube_multipliers_carry_at_most_one_irrational_monomial():
    # the tally runs over orbit representatives on every hypercube family;
    # an orbit image's u and v sums hold the same terms in another order,
    # and have the same floats when each sum has at most two terms.
    # Every family within the limit (m = 1 has one walk and no pair):
    pairs = [
        (m, T)
        for T in (1, 3, 7, 15)
        for m in range(2, 400)
        if m ** (T + 1) <= DEFAULT_FAMILY_LIMIT
    ]
    assert len(pairs) == 383
    for m, T in pairs:
        assert len(irrational_monomials(m, T)) <= 1, (m, T)
    # the first family past the limit where it fails: 3^16, 43 million walks
    assert len(irrational_monomials(3, 15)) == 2


# ---------------------------------------------------------------------------
# the range tally against the pair-by-pair tally it replaced
# ---------------------------------------------------------------------------


def placed_roles(fam):
    """Per walk, its vertex numbers -> roles, decoded from `placed`."""
    return [dict(divmod(key, fam.T + 2) for key in keys) for keys in fam.placed]


def pairwise_tally(reader):
    """The u tally of a `_FamilyReader`, pair by pair over increasing y, as
    the reader counted it before it read divergence ranges: each walk's row
    maps a vertex number to {(k, s, x holds): count}, keys in first-seen
    order."""
    fam = reader.scheme.family
    walks, ends, roles = fam.walks, fam.ends, placed_roles(fam)
    tallied = {}
    for x in reader.xs:
        rx, ex = roles[x], ends[x]
        cells = {}
        for y in range(len(walks)):
            if ends[y] == ex:
                continue
            k = diverge_index(walks[x], walks[y])
            ry = roles[y]
            for p in rx.keys() - ry.keys():
                cell = cells.setdefault(p, {})
                key = (k, rx[p] - k, True)
                cell[key] = cell.get(key, 0) + 1
            for p in ry.keys() - rx.keys():
                cell = cells.setdefault(p, {})
                key = (k, ry[p] - k, False)
                cell[key] = cell.get(key, 0) + 1
        tallied[x] = cells
    return [
        tallied[y] if y == rep else {
            q: tallied[rep][p] for q, p in enumerate(perm) if p in tallied[rep]
        }
        for y, (rep, perm) in enumerate(reader.orbit)
    ]


@pytest.mark.parametrize("m, T", [(2, 3), (3, 3), (4, 3), (5, 3), (2, 7)])
def test_orbits_match_brute_force_relabelings(m, T):
    # the reader's orbits against every permutation of the m step labels:
    # a representative is the least index among the walk's relabelings, and
    # its permutation reads each vertex's flip coordinates in the walk's
    # relabeling order (its labels in first occurrence, then the rest),
    # which takes the walk's points and roles onto its representative's
    fam = enumerate_paths(HYPERCUBE_KIND, m, T)
    reader = adversary._reader(build_scheme(QUANTUM_HYPERCUBE, fam, endpoint_relation(fam)))
    verts, R = fam.verts, T + 2
    assert len(reader.orbit) == len(fam)
    for steps, placed, (rep, perm) in zip(product(range(m), repeat=T + 1), fam.placed,
                                          reader.orbit):
        assert rep == min(
            sum(sigma[s] * m**i for i, s in enumerate(reversed(steps)))
            for sigma in permutations(range(m))
        ), steps
        order = list(dict.fromkeys(steps)) + [i for i in range(m) if i not in steps]
        assert len(perm) == len(verts)
        for p, q in enumerate(perm):
            assert verts[q] == tuple(verts[p][i] for i in order) + verts[p][m:], (steps, p)
        assert sorted(perm[key // R] * R + key % R for key in placed) == sorted(fam.placed[rep])


TALLY_FAMILIES = REFERENCE_FAMILIES + LARGER_REFERENCE_FAMILIES + [
    (HYPERCUBE_KIND, 4, 3),
    (HYPERCUBE_KIND, 2, 7),
    (GRID_KIND, 1, 7),
    (GRID_KIND, 3, 5),
]


def per_walk_records(fam):
    """The family's walks laid out one step sequence at a time, one
    `_clock_walk` each, with roles at first occurrence: the records the
    tables stand for."""
    m, T, side = fam.m, fam.T, fam.side
    if fam.kind == HYPERCUBE_KIND:
        start, step, alphabet = (1,) * m, _hypercube_step, range(m)
        clocks = _snake_path(2, T.bit_length())
    else:
        start, alphabet = (side // 2,) * m, (-1, 1)
        clocks = [(t + 1,) for t in range(T + 1)]

        def step(w, t, sign):
            dim = t % m
            c = w[dim] + sign
            return w[:dim] + (c,) + w[dim + 1 :] if 1 <= c <= side else w

    records = []
    for steps in product(alphabet, repeat=T + 1):
        points = tuple(_clock_walk(start, steps, step, clocks))
        role = {}
        for idx, p in enumerate(points):
            role.setdefault(p, (idx // 2, idx % 2))
        records.append(WalkRecord(steps, points, frozenset(points), points[-1], role))
    return records


@pytest.mark.parametrize("fam_args", TALLY_FAMILIES, ids=lambda a: f"{a[0]}-m{a[1]}-T{a[2]}")
def test_tables_and_walks_match_per_walk_records(fam_args):
    fam = enumerate_paths(*fam_args)
    expect = per_walk_records(fam)
    assert len(fam.walks) == len(expect) == len(fam)
    for got, want in zip(fam.walks, expect):
        for field in ("steps", "points", "point_set", "endpoint", "role"):
            assert getattr(got, field) == getattr(want, field), field
        assert list(got.role) == list(want.role)
    # the tables: sorted vertices, 2(T+1) vertex numbers per walk, the
    # endpoint's number, and p * (T + 2) + role at each first occurrence
    assert fam.verts == tuple(sorted({p for x in expect for p in x.points}))
    vid = {v: i for i, v in enumerate(fam.verts)}
    assert list(fam.ids) == [vid[p] for x in expect for p in x.points]
    assert fam.ends == [vid[x.endpoint] for x in expect]
    R = fam.T + 2
    assert fam.placed == [
        tuple(vid[p] * R + j + b for p, (j, b) in x.role.items()) for x in expect
    ]


def test_enumeration_and_evaluators_build_no_walk_record(monkeypatch):
    built = []

    class Counted(WalkRecord):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(adversary, "WalkRecord", Counted)
    # the benchmark's two families
    for fam_args, kind in [((HYPERCUBE_KIND, 3, 3), QUANTUM_HYPERCUBE),
                           ((GRID_KIND, 2, 5), QUANTUM_GRID)]:
        fam = enumerate_paths(*fam_args)
        rel = endpoint_relation(fam)
        assert len(rel)
        relational_adversary_value(build_scheme(RANDOMIZED, fam, rel))
        quantum_adversary_value(build_scheme(kind, fam, rel))
        assert built == []
        # reading the walks builds them, through the counted class
        assert len(fam.walks) == len(built) == len(fam)
        built.clear()


def test_tables_of_65536_walks_are_flat():
    # the family limit's half on hypercube m=2 T=15; sizes only, not time
    fam = enumerate_paths(HYPERCUBE_KIND, 2, 15)
    assert len(fam) == len(fam.ends) == len(fam.placed) == 65536
    assert len(fam.ids) == 65536 * 32
    assert fam.ids.itemsize <= 4
    # no hypercube step stands still, so each walk places all 32 points
    assert {len(keys) for keys in fam.placed} == {32}
    assert len(fam.verts) == len(set(fam.ids)) == max(fam.ids) + 1


def quantum_reader_tally(fam, monkeypatch):
    """The stock quantum scheme's reader, the tally (tops, numbers,
    tallies) that quantum_adversary_value read from it, and each distinct
    tally's scan float as the evaluator mapped it: the divisors it handed
    `_FamilyReader.shortlist`.  Every scan key that the arguments define is
    checked to be the walk's row sum over its tally's divisor, inf where
    the walk has no tally."""
    kind = QUANTUM_HYPERCUBE if fam.kind == HYPERCUBE_KIND else QUANTUM_GRID
    scheme = build_scheme(kind, fam, endpoint_relation(fam))
    seen = {}
    tally, shortlist = _FamilyReader.tally, _FamilyReader.shortlist

    def spy_tally(self):
        seen["reader"] = self
        seen["tally"] = tally(self)
        return seen["tally"]

    def spy_shortlist(self, tops, numbers, divisors, combine):
        seen["shortlist"] = (tops, numbers, divisors)
        return shortlist(self, tops, numbers, divisors, combine)

    monkeypatch.setattr(_FamilyReader, "tally", spy_tally)
    monkeypatch.setattr(_FamilyReader, "shortlist", spy_shortlist)
    quantum_adversary_value(scheme)
    reader, (scan_tops, scan_numbers, divisors) = seen["reader"], seen["shortlist"]
    tops, numbers, tallies = seen["tally"]
    assert scan_numbers is numbers
    assert len(divisors) == len(tallies)
    assert len(scan_tops) == len(tops) == len(numbers)
    for scan_top, top, row in zip(scan_tops, tops, numbers):
        assert len(row) == len(reader.verts)
        for i in row:
            key = scan_top / divisors[i] if i else math.inf
            assert key == (top / reader.scale / divisors[i] if i else math.inf)
    return scheme, reader, seen["tally"], divisors


def exact_u_sums(reader, tallies):
    """Every distinct tally's u sum as `adversary._u_form` builds it, mapped
    through a fresh `_Monomials` to its SurdSum: the exact form the
    evaluator builds for the shortlisted tallies, here for all of them."""
    monomials, parts = adversary._Monomials(), {}
    for tally in tallies:
        for key, _ in tally:
            if key not in parts:
                u = reader.terms(key)[1]
                parts[key] = (float(u), monomials.number(u.mono), u.coef)
    return [monomials.surd_sum(*adversary._u_form(tally, parts)) for tally in tallies]


@pytest.mark.parametrize("fam_args", TALLY_FAMILIES, ids=lambda a: f"{a[0]}-m{a[1]}-T{a[2]}")
def test_range_tally_matches_pairwise_tally(fam_args, monkeypatch):
    fam = enumerate_paths(*fam_args)
    scheme, reader, (tops, numbers, tallies), divisors = quantum_reader_tally(fam, monkeypatch)
    exact = exact_u_sums(reader, tallies)
    expect = pairwise_tally(reader)
    assert len(tops) == len(numbers) == len(expect) == len(fam)
    # each distinct tally listed once, number 0 the empty one, every one used
    assert tallies[0] == () and len(set(tallies)) == len(tallies)
    assert {i for row in numbers for i in row} == set(range(len(tallies)))
    walks, w = fam.walks, scheme.divergence_weights
    sums = {}
    for x, (top, row, cells) in enumerate(zip(tops, numbers, expect)):
        # the row sum of w times scale over the partners that end elsewhere,
        # pair by pair on every walk, orbit images included
        assert top == sum(
            w[diverge_index(walks[x], y)] * reader.scale
            for y in walks
            if y.endpoint != walks[x].endpoint
        ), x
        decoded = {
            p: [(reader.decode(key), count) for key, count in tallies[i]]
            for p, i in enumerate(row)
            if i
        }
        # same cells, same counts, keys in the same order
        assert decoded == {p: list(cell.items()) for p, cell in cells.items()}, x
        for p, cell in cells.items():
            # the sum of Fraction-coefficient terms in tally order, its
            # float, and the sum of count * float(u) in tally order
            tally = tuple(cell.items())
            if tally not in sums:
                total, scan = SurdSum(), 0.0
                for key, count in tally:
                    term = scheme.uv_at(*key)[0]
                    total.add(Surd(term.coef * count, term.mono))
                    scan += count * float(term)
                sums[tally] = (list(total._terms.items()), float(total), scan)
            terms, value, scan = sums[tally]
            assert list(exact[row[p]]._terms.items()) == terms, (x, p)
            assert divisors[row[p]] == scan, (x, p)
            assert math.isclose(scan, value, rel_tol=1e-12), (x, p)


@pytest.mark.parametrize("evaluate", [relational_adversary_value, quantum_adversary_value],
                         ids=["relational", "quantum"])
@pytest.mark.parametrize(
    "fam_args", [(HYPERCUBE_KIND, 3, 3), (GRID_KIND, 2, 5), (GRID_KIND, 1, 7)],
    ids=lambda a: f"{a[0]}-m{a[1]}-T{a[2]}",
)
def test_evaluators_map_each_distinct_tally_once(fam_args, evaluate, monkeypatch):
    # the tally is read as data: each distinct tally is iterated once, by the
    # evaluator's mapping, however many walks and vertices share it; the
    # quantum evaluator reads the tallies of its shortlisted candidates once
    # more, for their exact forms, however many candidates share them
    fam = enumerate_paths(*fam_args)
    reads, seen = Counter(), {}

    class Read(tuple):
        def __iter__(self):
            reads[id(self)] += 1
            return super().__iter__()

    tally, shortlist = _FamilyReader.tally, _FamilyReader.shortlist

    def spy(self):
        tops, numbers, tallies = tally(self)
        seen["numbers"], seen["tallies"] = numbers, [Read(t) for t in tallies]
        return tops, numbers, seen["tallies"]

    def spy_shortlist(self, tops, numbers, divisors, combine):
        seen["shortlist"] = shortlist(self, tops, numbers, divisors, combine)
        return seen["shortlist"]

    monkeypatch.setattr(_FamilyReader, "tally", spy)
    monkeypatch.setattr(_FamilyReader, "shortlist", spy_shortlist)
    kind = RANDOMIZED
    if evaluate is quantum_adversary_value:
        kind = QUANTUM_HYPERCUBE if fam.kind == HYPERCUBE_KIND else QUANTUM_GRID
    evaluate(build_scheme(kind, fam, endpoint_relation(fam)))
    tallies, numbers, used = seen["tallies"], seen["numbers"], Counter()
    if evaluate is quantum_adversary_value:
        # per tally, the shortlisted candidates that read it; some read one
        # tally twice over, so a per-candidate re-read would show
        used = Counter(numbers[z][p] for x, y, p in seen["shortlist"] for z in (x, y))
        assert max(used.values()) > 1
    assert reads == {id(t): 1 + (i in used) for i, t in enumerate(tallies)}
    # fewer distinct tallies than tallied walks and vertices
    assert len(tallies) < sum(1 for row in numbers for i in row if i)


def pairwise_shortlist(reader, tops, numbers, divisors, combine):
    """Every candidate of the endpoint relation within _SHORTLIST_TOL of
    the least key, pair by pair in relation order; a walk's key at a
    vertex is its top over its tally's divisor there, inf at tally 0."""
    keys = [[top / divisors[i] if i else math.inf for i in row] for top, row in zip(tops, numbers)]
    sets = [rx.keys() for rx in placed_roles(reader.scheme.family)]
    ends, n = reader.ends, len(reader.ends)
    listed = [
        (combine(keys[x][p], keys[y][p]), x, y, p)
        for x in range(n)
        for y in range(n)
        if ends[x] != ends[y]
        for p in sorted(sets[x] ^ sets[y])
    ]
    limit = min(key for key, *_ in listed) * (1 + adversary._SHORTLIST_TOL)
    return [(x, y, p) for key, x, y, p in listed if key <= limit]


# grid m=1 T=7's pairwise listing takes over a second per evaluator; its
# outputs are pinned in TIE_HEAVY_PINS
@pytest.mark.parametrize("evaluate", ["quantum", "relational"])
@pytest.mark.parametrize(
    "fam_args",
    [fam for fam in TALLY_FAMILIES if fam != (GRID_KIND, 1, 7)],
    ids=lambda a: f"{a[0]}-m{a[1]}-T{a[2]}",
)
def test_vertex_scan_lists_the_pairwise_shortlist(fam_args, evaluate, monkeypatch):
    # the per-vertex scan, on the keys each evaluator hands it, against a
    # pair-by-pair listing of every candidate
    fam = enumerate_paths(*fam_args)
    if evaluate == "quantum":
        kind = QUANTUM_HYPERCUBE if fam.kind == HYPERCUBE_KIND else QUANTUM_GRID
        evaluate = quantum_adversary_value
    else:
        kind, evaluate = RANDOMIZED, relational_adversary_value
    seen = {}
    shortlist = _FamilyReader.shortlist

    def spy(self, *args):
        seen.update(reader=self, args=args)
        seen["got"] = shortlist(self, *args)
        return seen["got"]

    monkeypatch.setattr(_FamilyReader, "shortlist", spy)
    evaluate(build_scheme(kind, fam, endpoint_relation(fam)))
    assert seen["got"] == pairwise_shortlist(seen["reader"], *seen["args"])


@pytest.mark.parametrize("combine", [mul, max], ids=["product", "max"])
@pytest.mark.parametrize(
    "fam_args",
    [(HYPERCUBE_KIND, 2, 3), (HYPERCUBE_KIND, 3, 1), (GRID_KIND, 1, 4), (GRID_KIND, 2, 3)],
    ids=lambda a: f"{a[0]}-m{a[1]}-T{a[2]}",
)
def test_vertex_scan_on_random_keys(fam_args, combine):
    # tops and divisors drawn from 1..3 tie often; drawn from 1..1000 they
    # leave a few vertices whose least held and least missed keys come from
    # walks with one endpoint and lie below every candidate's key.  Tally
    # number 0 (no tally, key inf) is drawn as often as each other number
    fam = enumerate_paths(*fam_args)
    reader = adversary._reader(build_scheme(RANDOMIZED, fam, endpoint_relation(fam)))
    rng = random.Random(sum(fam_args[1:]))
    for top in [3, 1000] * 15:
        tops = [rng.randint(1, top) for _ in fam.walks]
        divisors = [0] + [rng.randint(1, top) for _ in range(6)]
        numbers = [[rng.randrange(len(divisors)) for _ in reader.verts] for _ in fam.walks]
        args = tops, numbers, divisors, combine
        assert reader.shortlist(*args) == pairwise_shortlist(reader, *args)


#: the evaluators' outputs on tie-heavy families, as the pair-by-pair scan
#: gave them: the quantum radicand's numerator, the first 16 hex digits of
#: the sha256 of its denominator's string and the witness, then the
#: relational value and witness
TIE_HEAVY_PINS = {
    (HYPERCUBE_KIND, 4, 3): (
        "40135/3072", "733d4d49710517c5", (1, 17, (1, 1, 1, 1, 1, 2)),
        "349/83", (0, 1, (1, 1, 1, 1, 1, 2)),
    ),
    (HYPERCUBE_KIND, 2, 7): (
        "81/4", "c5b3923139531c21", (0, 1, (1, 1, 1, 1, 2)),
        "1", (0, 1, (1, 1, 1, 1, 2)),
    ),
    (GRID_KIND, 1, 7): (
        "787319/16384", "30f6ee6914e1eb4f", (23, 208, (2, 8)),
        "877/537", (1, 7, (2, 8)),
    ),
    (GRID_KIND, 3, 5): (
        "2115/64", "a4502df9f2970e6d", (7, 34, (3, 3, 3, 6)),
        "47/11", (6, 7, (3, 3, 3, 6)),
    ),
}


@pytest.mark.parametrize("fam_args", TIE_HEAVY_PINS, ids=lambda a: f"{a[0]}-m{a[1]}-T{a[2]}")
def test_evaluators_keep_pinned_outputs_on_tie_heavy_families(fam_args):
    fam = enumerate_paths(*fam_args)
    rel = endpoint_relation(fam)
    kind = QUANTUM_HYPERCUBE if fam.kind == HYPERCUBE_KIND else QUANTUM_GRID
    quantum = quantum_adversary_value(build_scheme(kind, fam, rel))
    relational = relational_adversary_value(build_scheme(RANDOMIZED, fam, rel))
    q_w, r_w = quantum.witness, relational.witness
    got = (
        str(quantum.radicand_num),
        hashlib.sha256(str(quantum.radicand_den).encode()).hexdigest()[:16],
        (q_w.x_index, q_w.y_index, q_w.position),
        str(relational.value),
        (r_w.x_index, r_w.y_index, r_w.position),
    )
    assert got == TIE_HEAVY_PINS[fam_args]
    # the reported float is SurdSum's float of the pinned radicand
    assert quantum.value == (float(quantum.radicand_num) / float(quantum.radicand_den)) ** 0.5


@pytest.mark.parametrize(
    "fam_args",
    [(HYPERCUBE_KIND, 2, 3), (GRID_KIND, 1, 4), (GRID_KIND, 2, 4)],
    ids=lambda a: f"{a[0]}-m{a[1]}-T{a[2]}",
)
def test_evaluators_exact_on_shuffled_walks(fam_args, monkeypatch):
    # the range tally reads a family in product order; read pair by pair,
    # the walks shuffled give the library's values on the walks in order
    fam = enumerate_paths(*fam_args)
    order = list(range(len(fam)))
    random.Random(sum(fam_args[1:])).shuffle(order)
    shuffled = reordered(fam, order)
    kind = QUANTUM_HYPERCUBE if fam.kind == HYPERCUBE_KIND else QUANTUM_GRID
    (q_in, r_in), (q_out, r_out) = (
        (build_scheme(kind, family, endpoint_relation(family)),
         build_scheme(RANDOMIZED, family, endpoint_relation(family)))
        for family in (fam, shuffled)
    )
    quantum, relational = quantum_adversary_value(q_in), relational_adversary_value(r_in)
    monkeypatch.setattr(adversary, "_reader", PairwiseReader)
    assert quantum.radicand_equals(quantum_adversary_value(q_out))
    assert relational.value == relational_adversary_value(r_out).value

