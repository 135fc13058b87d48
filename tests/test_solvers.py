"""Solver tests: descent, sampling, charge formulas, and the planar search."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lslab import solvers
from lslab.bench import _smooth_oracle
from lslab.errors import BudgetExceeded
from lslab.grid import GridShape, l1_distance, neighbors
from lslab.instances import gen_grid_instance, gen_hypercube_instance
from lslab.oracles import QueryLedger, ValueOracle
from lslab.solvers import (
    RegionState,
    SolveResult,
    durr_hoyer_min,
    grid2d_quantum,
    grover_exists,
    sample_then_descend,
    steepest_descent,
    verify_local_min,
)


def cone_oracle(n, center):
    shape = GridShape(n, 2)
    return ValueOracle(shape, lambda v: l1_distance(v, center))


class TestSteepestDescent:
    def test_already_minimal(self):
        oracle = cone_oracle(5, (2, 3))
        result = steepest_descent(oracle, (2, 3))
        assert result.found == (2, 3)
        assert result.rounds == 0
        assert result.is_local_min
        assert result.outcome == "success"

    def test_unique_basin(self):
        oracle = cone_oracle(7, (3, 6))
        result = steepest_descent(oracle, (7, 1))
        assert result.found == (3, 6)
        assert result.is_local_min

    def test_hard_instance_with_nonreturning_walk(self):
        # a walk that never revisits a walk-space point leaves the descent no
        # clock-chord shortcuts: it must traverse all 2(T+1) trajectory points
        from lslab.instances import _replay_hypercube

        inst = _replay_hypercube(8, 5, (0, 1, 2, 3, 4, 0, 1, 2), seed=None)
        oracle = ValueOracle.for_instance(inst)
        result = steepest_descent(oracle, inst.start)
        assert result.found == inst.endpoint
        assert result.rounds == 2 * inst.T + 1
        assert result.classical_queries >= 2 * inst.T

    def test_hard_instance_random_seeds(self):
        # clock chords can shortcut the descent when the walk part returns to
        # an earlier position, but the endpoint is always found
        for seed in range(6):
            inst = gen_hypercube_instance(6, 3, seed=seed)
            oracle = ValueOracle.for_instance(inst)
            result = steepest_descent(oracle, inst.start)
            assert result.found == inst.endpoint
            assert result.is_local_min
            assert result.rounds <= 2 * inst.T + 1

    def test_tie_break_lowest_snake_rank(self):
        shape = GridShape(3, 1)
        oracle = ValueOracle.from_table(shape, {(1,): 0, (2,): 1, (3,): 0})
        result = steepest_descent(oracle, (2,))
        assert result.found == (1,)

    def test_tie_break_reads_every_neighbor_first(self):
        # from (2,2) the neighbors come as (1,2), (3,2), (2,1), (2,3); (1,2)
        # and (2,1) tie for the minimum, and (2,1) has the lower snake rank
        # (2 against 6), so the descent moves there although it is read later
        table = {
            (1, 1): 3, (2, 1): 1, (3, 1): 3,
            (1, 2): 1, (2, 2): 5, (3, 2): 4,
            (1, 3): 9, (2, 3): 4, (3, 3): 9,
        }
        read = set()

        def fn(v):
            read.add(v)
            return table[v]

        result = steepest_descent(ValueOracle(GridShape(3, 2), fn), (2, 2))
        assert result.found == (2, 1)
        assert result.rounds == 1
        # (2,2) and its 4 neighbors, then the 2 new neighbors of (2,1)
        assert result.classical_queries == len(read) == 7


class TestChargedSubroutines:
    def test_min_charge_example(self):
        led = QueryLedger()
        assert durr_hoyer_min([3, 1, 2], 0.25, led) == 1
        assert led.charged_quantum_queries == 4  # ceil(sqrt 3)=2 times ceil(log2 4)=2

    def test_min_single_element(self):
        led = QueryLedger()
        assert durr_hoyer_min([9], 0.25, led) == 0
        assert led.charged_quantum_queries == 2

    def test_min_tie_breaks_low_index(self):
        assert durr_hoyer_min([2, 1, 1], 0.5, QueryLedger()) == 1

    def test_min_empty_rejected(self):
        with pytest.raises(ValueError):
            durr_hoyer_min([], 0.25, QueryLedger())

    def test_min_faithful_failure_rate(self):
        rng = random.Random(0)
        led = QueryLedger()
        wrong = sum(
            durr_hoyer_min([5, 1, 7], 0.3, led, rng=rng) != 1
            for _ in range(2000)
        )
        assert 0.2 < wrong / 2000 < 0.4
        # failures return a non-minimal index, never the minimum by accident
        for _ in range(200):
            idx = durr_hoyer_min([5, 1, 7], 0.5, led, rng=rng)
            assert idx in (0, 1, 2)

    def test_min_faithful_pick_matches_choice_over_losers(self):
        # the failing call draws as rng.choice over the list of non-minimal
        # indices would, without building that list
        gen = random.Random(11)
        for seed in range(300):
            values = [gen.randrange(4) for _ in range(gen.randrange(1, 12))]
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(5):
                got = durr_hoyer_min(values, 0.75, QueryLedger(), rng=rng)
                want = values.index(min(values))
                if ref.random() < 0.75:
                    losers = [i for i, x in enumerate(values) if x != min(values)]
                    if losers:
                        want = ref.choice(losers)
                assert got == want
            assert rng.getstate() == ref.getstate()

    def test_exists_exact_and_charges(self):
        led = QueryLedger()
        assert grover_exists([1, 2, 3, 4], lambda x: x > 3, 0.25, led) is True
        assert led.charged_quantum_queries == 4  # ceil(sqrt 4)=2 times 2

    def test_exists_empty_is_free_and_false(self):
        led = QueryLedger()
        assert grover_exists([], lambda x: True, 0.25, led) is False
        assert led.charged_quantum_queries == 0

    def test_exists_flipped_whenever_failure_fires(self):
        class AlwaysFails(random.Random):
            def random(self):  # every draw lands below eps
                return 0.0

        rng = AlwaysFails(1)
        led = QueryLedger()
        for _ in range(50):
            assert (
                grover_exists([1], lambda x: x == 1, 0.5, led, rng=rng)
                is False
            )
            assert (
                grover_exists([1], lambda x: x == 2, 0.5, led, rng=rng)
                is True
            )

    @pytest.mark.parametrize("eps", [0, 1, 1.5])
    def test_eps_outside_open_unit_interval_rejected(self, eps):
        led = QueryLedger()
        with pytest.raises(ValueError):
            durr_hoyer_min([3, 1], eps, led)
        with pytest.raises(ValueError):
            grover_exists([1], lambda x: True, eps, led)
        assert led.charged_quantum_queries == 0


class TestSampleThenDescend:
    def test_full_sampling_hits_global_min(self):
        shape = GridShape(4, 2)
        table = {v: l1_distance(v, (2, 2)) for v in shape.iter_vertices()}
        oracle = ValueOracle.from_table(shape, table)
        result = sample_then_descend(oracle, samples=16, seed=0)
        assert result.found == (2, 2)
        assert result.is_local_min

    def test_single_sample_is_random_start_descent(self):
        oracle = cone_oracle(5, (1, 1))
        result = sample_then_descend(oracle, samples=1, seed=3)
        assert result.found == (1, 1)

    def test_sample_count_bounds(self):
        oracle = cone_oracle(3, (1, 1))
        with pytest.raises(ValueError):
            sample_then_descend(oracle, samples=0, seed=0)
        with pytest.raises(ValueError):
            sample_then_descend(oracle, samples=10, seed=0)

    def test_sample_count_over_the_trajectory_limit_refused_before_any_draw(self, monkeypatch):
        def no_read(v):
            raise AssertionError("a sample was read")

        # the limit lowered to 100, so a refusal that is missing costs 101 draws
        monkeypatch.setattr(solvers, "DEFAULT_TRAJECTORY_LIMIT", 100)
        oracle = ValueOracle(GridShape(4, 4), no_read)
        with pytest.raises(BudgetExceeded, match="exceeds the limit 100"):
            sample_then_descend(oracle, samples=101, seed=0)
        assert oracle.ledger.breakdown() == {}

    def test_quantum_charging_uses_formula(self):
        oracle = cone_oracle(8, (4, 4))
        result = sample_then_descend(oracle, samples=9, seed=1, charging="quantum")
        assert result.charged_quantum_queries == math.ceil(math.sqrt(9)) * math.ceil(
            math.log2(4)
        )
        # sampled reads were charged through the formula, not per read
        assert result.phase_breakdown["sample"][0] == 0

    def test_classical_charging_counts_samples(self):
        oracle = cone_oracle(8, (4, 4))
        result = sample_then_descend(oracle, samples=9, seed=1, charging="classical")
        assert result.phase_breakdown["sample"][0] == 9

    # (charging, seed, found, rounds, phase breakdown) as the run that built
    # every drawn vertex before reading any value gave them
    PINNED_RUNS = [
        ("classical", 0, (2, 2, 1, 2, 2, 1, 1, 1, 1, 2), 10, {"sample": (95, 0), "descent": (78, 0)}),
        ("classical", 1, (1, 1, 2, 2, 2, 2, 1, 1, 1, 2), 0, {"sample": (98, 0), "descent": (10, 0)}),
        ("classical", 2, (1, 2, 2, 1, 2, 2, 1, 1, 1, 2), 2, {"sample": (92, 0), "descent": (24, 0)}),
        ("classical", 3, (1, 2, 1, 1, 1, 2, 1, 1, 1, 2), 0, {"sample": (93, 0), "descent": (8, 0)}),
        ("quantum", 0, (2, 2, 1, 2, 2, 1, 1, 1, 1, 2), 10, {"sample": (0, 22), "descent": (87, 0)}),
        ("quantum", 1, (1, 1, 2, 2, 2, 2, 1, 1, 1, 2), 0, {"sample": (0, 22), "descent": (10, 0)}),
        ("quantum", 2, (1, 2, 2, 1, 2, 2, 1, 1, 1, 2), 2, {"sample": (0, 22), "descent": (27, 0)}),
        ("quantum", 3, (1, 2, 1, 1, 1, 2, 1, 1, 1, 2), 0, {"sample": (0, 22), "descent": (10, 0)}),
    ]

    @pytest.mark.parametrize("charging, seed, found, rounds, breakdown", PINNED_RUNS)
    def test_runs_match_pins(self, charging, seed, found, rounds, breakdown):
        inst = gen_hypercube_instance(10, 6, seed=seed)
        oracle = ValueOracle.for_instance(inst)
        result = sample_then_descend(oracle, samples=101, seed=seed, charging=charging)
        assert (result.found, result.rounds, result.phase_breakdown) == (found, rounds, breakdown)

    def test_quantum_sampling_keeps_no_vertex_list(self):
        # 50000 draws on [16]^4: a list of the drawn vertex tuples peaked
        # at 4.5 MB under tracemalloc; one rank per draw stays near 2.5 MB
        oracle = ValueOracle(GridShape(16, 4), sum)
        tracemalloc.start()
        try:
            result = sample_then_descend(oracle, samples=50000, seed=0, charging="quantum")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.found == (1,) * 4
        assert result.phase_breakdown == {"sample": (0, 448), "descent": (8, 0)}
        assert peak < 3_500_000

    def test_hard_instance_cost_tracks_sample_count(self):
        # with s ~ sqrt(N n) samples the descent tail is short: a sampled
        # point lands late on the trajectory with high probability
        totals = []
        for seed in range(8):
            inst = gen_hypercube_instance(10, 6, seed=seed)
            oracle = ValueOracle.for_instance(inst)
            n_vertices = inst.shape.vertex_count
            s = math.ceil(math.sqrt(n_vertices * 10))
            result = sample_then_descend(oracle, samples=s, seed=seed)
            assert result.is_local_min
            totals.append(result.classical_queries)
        mean = sum(totals) / len(totals)
        assert mean <= 6 * s


class TestRegionState:
    def test_count_matches_enumeration(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(3, 12)
            region = RegionState(n=n)
            for _ in range(rng.randrange(0, 3)):
                center = (rng.randrange(1, n + 1), rng.randrange(1, n + 1))
                region = region.with_ball(center, rng.randrange(0, n + 2))
            brute = [
                (x, y)
                for x in range(1, n + 1)
                for y in range(1, n + 1)
                if region.contains((x, y))
            ]
            # the sampler's total is the count grid2d_quantum runs on
            if brute:
                assert region.sampler(random.Random(0))[1] == len(brute)
            else:
                with pytest.raises(ValueError, match="empty region"):
                    region.sampler(random.Random(0))
            assert sorted(region.vertices()) == sorted(brute)

    def test_sampler_uniform_support(self):
        region = RegionState(n=5).with_ball((3, 3), 2)
        draw, total = region.sampler(random.Random(0))
        assert total == len(region.vertices())
        drawn, vertex = draw(800, lambda v: v)
        assert set(drawn) == set(region.vertices())
        assert [vertex(i) for i in range(800)] == drawn

    def test_sphere_examples(self):
        region3 = RegionState(n=3)
        assert sorted(region3.sphere((1, 1), 1)) == [(1, 2), (2, 1)]
        assert region3.sphere((2, 2), 0) == [(2, 2)]
        region9 = RegionState(n=9)
        assert len(region9.sphere((5, 5), 2)) == 8

    def test_sphere_respects_constraints(self):
        region = RegionState(n=9).with_ball((5, 5), 2)
        pts = region.sphere((5, 5), 2)
        assert all(region.contains(v) for v in pts)
        assert not region.sphere((5, 5), 3)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_sphere_equals_brute_force(self, data):
        n = data.draw(st.integers(2, 40))
        coord = st.integers(1, n)
        region = RegionState(n=n)
        for _ in range(data.draw(st.integers(0, 4))):
            region = region.with_ball((data.draw(coord), data.draw(coord)),
                                      data.draw(st.integers(0, 2 * n)))
        cx, cy = data.draw(coord), data.draw(coord)
        for r in range(2 * n + 1):
            # the whole l1 sphere in Z^2, by increasing x, larger y first
            candidates = [
                (cx + dx, cy + dy)
                for dx in range(-r, r + 1)
                for dy in ((r - abs(dx), abs(dx) - r) if abs(dx) < r else (0,))
            ]
            assert region.sphere((cx, cy), r) == [v for v in candidates if region.contains(v)]

    def test_grid_boundary_empty(self):
        assert RegionState(n=6).boundary() == set()


class TestGrid2dQuantum:
    def test_smooth_instance_success(self):
        oracle = cone_oracle(16, (11, 5))
        result = grid2d_quantum(oracle, seed=4)
        assert result.outcome == "success"
        assert result.found == (11, 5)
        assert result.is_local_min

    def test_constant_function(self):
        shape = GridShape(16, 2)
        oracle = ValueOracle(shape, lambda v: 7)
        result = grid2d_quantum(oracle, seed=1)
        assert result.outcome == "success"
        assert result.is_local_min

    def test_one_sample_held_at_a_time(self):
        # one n=1024 trial peaked at 3.85 MB under tracemalloc while round
        # r's sample stayed bound through round r+1's draw; one sample at a
        # time stays near 2.5 MB
        oracle, _ = _smooth_oracle(1024, 2, 7)
        tracemalloc.start()
        try:
            result = grid2d_quantum(oracle, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.outcome == "success"
        assert peak < 2_800_000

    @pytest.mark.parametrize("n, refused", [
        (4096, False),  # about 108k first-round samples
        (74000, False),
        (75000, True),
        (10**310, True),  # past every float: math.sqrt(n) overflowed in the round loop
    ], ids=["n4096", "n74000", "n75000", "n1e310"])
    def test_first_round_sample_budget(self, n, refused):
        # a side whose first round would sample more than the trajectory
        # limit is refused before any round; an allowed side reaches its
        # first value read
        class Reached(Exception):
            pass

        def read(v):
            raise Reached

        oracle = ValueOracle(GridShape(n, 2), read)
        with pytest.raises(BudgetExceeded if refused else Reached):
            grid2d_quantum(oracle, seed=0)
        assert oracle.ledger.classical_queries == oracle.ledger.charged_quantum_queries == 0

    def test_requires_two_dims(self):
        inst = gen_hypercube_instance(5, 2, seed=0)
        with pytest.raises(ValueError):
            grid2d_quantum(ValueOracle.for_instance(inst), seed=0)

    def test_hard_instance_success(self):
        inst = gen_grid_instance(16, 2, 1, seed=9)
        oracle = ValueOracle.for_instance(inst)
        result = grid2d_quantum(oracle, seed=9)
        assert result.outcome == "success"
        assert result.is_local_min
        assert result.found == inst.endpoint

    def test_round_bound_and_region_monotonicity(self):
        for seed in range(12):
            oracle = cone_oracle(64, (17, 40))
            result = grid2d_quantum(oracle, seed=seed)
            assert result.rounds <= math.floor(math.log2(64))
            records = result.trace
            for a, b in zip(records, records[1:]):
                assert b.region_size <= a.region_size
                if a.chosen_radius is not None:
                    prev = a.region.constraints[-1][1] if a.region.constraints else 64
                    assert a.chosen_radius <= math.ceil(3 * prev / 4)

    def test_region_shrinks_to_subsets(self):
        oracle = cone_oracle(32, (9, 9))
        result = grid2d_quantum(oracle, seed=3)
        regions = [r.region for r in result.trace]
        for a, b in zip(regions, regions[1:]):
            av = set(a.vertices())
            assert set(b.vertices()) <= av

    def test_boundary_containment(self):
        # every round's new boundary sits inside the old boundary union the
        # accepted sphere, hence inside the union of accepted spheres
        for seed in (0, 5, 11):
            oracle = cone_oracle(32, (20, 13))
            result = grid2d_quantum(oracle, seed=seed)
            assert result.outcome == "success"
            spheres_so_far = set()
            prev_region = RegionState(n=32)
            prev_boundary = prev_region.boundary()
            for rec in result.trace:
                if rec.chosen_radius is None:
                    break
                sphere = set(prev_region.sphere(rec.anchor, rec.chosen_radius))
                spheres_so_far |= sphere
                new_region = prev_region.with_ball(rec.anchor, rec.chosen_radius)
                new_boundary = new_region.boundary()
                assert new_boundary <= prev_boundary | sphere
                assert new_boundary <= spheres_so_far
                prev_region, prev_boundary = new_region, new_boundary

    def test_anchor_values_monotone(self):
        oracle = cone_oracle(64, (33, 2))
        result = grid2d_quantum(oracle, seed=7)
        values = [r.anchor_value for r in result.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_good_radius_abundance(self):
        # when the anchor dominates all but m/4 of the region, at least
        # m/4 - 1 radii in the window are good (disjoint spheres absorb the
        # better vertices); checked by direct enumeration
        oracle = cone_oracle(48, (13, 37))
        result = grid2d_quantum(oracle, seed=2)
        prev_region = RegionState(n=48)
        prev_radius = 48
        for rec in result.trace:
            region_vals = {v: oracle.peek(v) for v in prev_region.vertices()}
            below = sum(1 for fv in region_vals.values() if fv < rec.anchor_value)
            if below <= prev_radius / 4:
                lo, hi = prev_radius // 4, math.ceil(3 * prev_radius / 4)
                good = 0
                for m_try in range(lo, hi + 1):
                    sphere = prev_region.sphere(rec.anchor, m_try)
                    if all(oracle.peek(w) >= rec.anchor_value for w in sphere):
                        good += 1
                assert good >= prev_radius / 4 - 1
            if rec.chosen_radius is None:
                break
            prev_region = prev_region.with_ball(rec.anchor, rec.chosen_radius)
            prev_radius = rec.chosen_radius

    def test_faithful_mode_mostly_succeeds(self):
        wins = 0
        for seed in range(30):
            oracle = cone_oracle(32, (7, 26))
            result = grid2d_quantum(oracle, seed=seed, mode="faithful")
            wins += result.outcome == "success"
            if result.outcome == "success":
                assert result.is_local_min
        assert wins >= 15

    def test_success_implies_verified_min(self):
        inst = gen_grid_instance(32, 2, 1, seed=5)
        for seed in range(6):
            oracle = ValueOracle.for_instance(inst)
            result = grid2d_quantum(oracle, seed=seed)
            if result.outcome == "success":
                assert result.is_local_min
                assert verify_local_min(oracle, result.found)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: grid2d_quantum(cone_oracle(8, (2, 3)), 0, mode="x"), "unknown mode 'x'"),
        (lambda: sample_then_descend(cone_oracle(8, (2, 3)), 4, 0, charging="x"),
         "unknown charging 'x'"),
        (lambda: RegionState(8).sphere((4, 4), -1), "negative radius"),
    ],
    ids=["grid2d-mode", "sample-charging", "sphere-radius"],
)
def test_unknown_settings_and_negative_radius_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()
