"""Adversary bound tests, including independent re-derivations of both bounds."""

import random
from fractions import Fraction
from itertools import permutations

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
    PathFamily,
    Surd,
    SurdSum,
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
from lslab.instances import _replay_hypercube
from pairwise_reader import PairwiseReader, TableScheme


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
    """The family with its walks listed in `order`."""
    walks = tuple(fam.walks[i] for i in order)
    return PathFamily(kind=fam.kind, m=fam.m, T=fam.T, side=fam.side, walks=walks)


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
# (14, 6, ...) is a mirror (y, x) of a scanned x < y candidate that wins on
# the float of its exact denominator
LARGER_REFERENCE_FAMILIES = [(HYPERCUBE_KIND, 3, 3), (GRID_KIND, 2, 5), (GRID_KIND, 3, 4)]


@pytest.mark.parametrize(
    "fam_args",
    REFERENCE_FAMILIES + LARGER_REFERENCE_FAMILIES,
    ids=lambda a: f"{a[0]}-m{a[1]}-T{a[2]}",
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
    fam = PathFamily(kind=HYPERCUBE_KIND, m=m, T=T, side=2, walks=())
    scheme = WeightScheme(QUANTUM_HYPERCUBE, fam, endpoint_relation(fam))
    return {term.mono for s in range(1, T + 2) for term in scheme.multiplier_pair(s)} - {()}


def test_hypercube_multipliers_carry_at_most_one_irrational_monomial():
    # the evaluators run x over orbit representatives on every hypercube
    # family; an orbit image's u and v sums hold the same terms in another
    # order, and have the same floats when each sum has at most two terms.
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


def pairwise_tally(reader):
    """The u tally of a `_FamilyReader`, pair by pair over increasing y, as
    `rows` made it before it read divergence ranges: each walk's row maps a
    vertex number to {(k, s, x holds): count}, keys in first-seen order."""
    walks, sets, roles, ends = reader.scheme.family.walks, reader.sets, reader.roles, reader.ends
    tallied = {}
    for x in reader.xs:
        sx, rx, ex = sets[x], roles[x], ends[x]
        cells = {}
        for y in range(len(walks)):
            if ends[y] == ex:
                continue
            k = diverge_index(walks[x], walks[y])
            sy, ry = sets[y], roles[y]
            for p in sx - sy:
                cell = cells.setdefault(p, {})
                key = (k, rx[p] - k, True)
                cell[key] = cell.get(key, 0) + 1
            for p in sy - sx:
                cell = cells.setdefault(p, {})
                key = (k, ry[p] - k, False)
                cell[key] = cell.get(key, 0) + 1
        tallied[x] = cells
    if reader.orbit is None:
        return [tallied[x] for x in range(len(walks))]
    return [
        tallied[y] if y == rep else {
            q: tallied[rep][p] for q, p in enumerate(perm) if p in tallied[rep]
        }
        for y, (rep, perm) in enumerate(reader.orbit)
    ]


TALLY_FAMILIES = REFERENCE_FAMILIES + LARGER_REFERENCE_FAMILIES + [
    (HYPERCUBE_KIND, 4, 3),
    (HYPERCUBE_KIND, 2, 7),
    (GRID_KIND, 1, 7),
    (GRID_KIND, 3, 5),
]


def quantum_reader_rows(fam, monkeypatch):
    """The stock quantum scheme's reader and the reduced u rows that
    quantum_adversary_value read from it."""
    kind = QUANTUM_HYPERCUBE if fam.kind == HYPERCUBE_KIND else QUANTUM_GRID
    scheme = build_scheme(kind, fam, endpoint_relation(fam))
    seen = {}
    rows = _FamilyReader.rows

    def spy(self, reduce):
        seen["reader"] = self
        seen["rows"] = rows(self, reduce)[0]
        return seen["rows"], seen["rows"]

    monkeypatch.setattr(_FamilyReader, "rows", spy)
    quantum_adversary_value(scheme)
    return scheme, seen["reader"], seen["rows"]


@pytest.mark.parametrize("fam_args", TALLY_FAMILIES, ids=lambda a: f"{a[0]}-m{a[1]}-T{a[2]}")
def test_range_tally_matches_pairwise_tally(fam_args, monkeypatch):
    fam = enumerate_paths(*fam_args)
    scheme, reader, reduced = quantum_reader_rows(fam, monkeypatch)
    expect = pairwise_tally(reader)
    got, _ = reader.rows(lambda cells: cells)
    assert len(got) == len(expect) == len(fam)
    sums = {}
    for x, (row, cells) in enumerate(zip(got, expect)):
        decoded = {
            p: [(reader.decode(key), count) for key, count in cell.items()]
            for p, cell in enumerate(row)
            if cell is not None
        }
        # same cells, same counts, keys in the same order
        assert decoded == {p: list(cell.items()) for p, cell in cells.items()}, x
        for p, cell in cells.items():
            # the sum of Fraction-coefficient terms in tally order, and its float
            tally = tuple(cell.items())
            if tally not in sums:
                total = SurdSum()
                for key, count in tally:
                    term = scheme.uv_at(*key)[0]
                    total.add(Surd(term.coef * count, term.mono))
                sums[tally] = (list(total._terms.items()), float(total))
            value, key = reduced[x][p]
            assert (list(value._terms.items()), key) == sums[tally], (x, p)


@pytest.mark.parametrize(
    "fam_args",
    [(HYPERCUBE_KIND, 2, 3), (GRID_KIND, 1, 4), (GRID_KIND, 2, 4)],
    ids=lambda a: f"{a[0]}-m{a[1]}-T{a[2]}",
)
def test_evaluators_exact_on_shuffled_walks(fam_args, monkeypatch):
    # the range tally holds only for walks in enumeration order, and the
    # library refuses a family listed in any other order; read pair by pair,
    # the shuffled walks give the library's values on the walks in order
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
    for evaluate, scheme in ((quantum_adversary_value, q_out), (relational_adversary_value, r_out)):
        with pytest.raises(ValueError, match="enumerate_paths order"):
            evaluate(scheme)
    quantum, relational = quantum_adversary_value(q_in), relational_adversary_value(r_in)
    monkeypatch.setattr(adversary, "_reader", PairwiseReader)
    assert quantum.radicand_equals(quantum_adversary_value(q_out))
    assert relational.value == relational_adversary_value(r_out).value


def termwise_product(a, b):
    out = SurdSum()
    for mono_a, coef_a in a._terms.items():
        for mono_b, coef_b in b._terms.items():
            out.add(Surd(coef_a, mono_a) * Surd(coef_b, mono_b))
    return out


def test_memoized_products_equal_termwise_products(monkeypatch):
    sums = set()
    for fam_args in LARGER_REFERENCE_FAMILIES:
        _, _, reduced = quantum_reader_rows(enumerate_paths(*fam_args), monkeypatch)
        sums.update(cell[0] for row in reduced for cell in row if cell is not None)
    monomials = {mono for total in sums for mono in total._terms}
    ones = {mono: SurdSum({mono: Fraction(1)}) for mono in monomials}
    # every monomial pair the families meet, then sums of several terms
    for a in ones.values():
        for b in ones.values():
            assert list((a * b)._terms.items()) == list(termwise_product(a, b)._terms.items())
    listed = sorted(sums, key=str)
    for a, b in zip(listed, listed[1:] + listed[:1]):
        assert list((a * b)._terms.items()) == list(termwise_product(a, b)._terms.items())
    assert len(adversary._products) <= adversary._PRODUCT_MEMO_LIMIT


def test_product_memo_stays_bounded():
    one = SurdSum.of(1)
    for q in range(2, adversary._PRODUCT_MEMO_LIMIT + 12):
        root = SurdSum({((2, Fraction(1, q)),): Fraction(1)})
        assert list((root * one)._terms.items()) == [(((2, Fraction(1, q)),), Fraction(1))]
        assert len(adversary._products) <= adversary._PRODUCT_MEMO_LIMIT
