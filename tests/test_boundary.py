"""The validation boundary: public entry points check every vertex, the
trusted ``_`` helpers agree with them on valid input, and importing the
package stays light."""

import dataclasses
import os
import random
import subprocess
import sys
import tracemalloc
from operator import getitem

import pytest

import lslab
from lslab.adversary import enumerate_paths
from lslab.bench import _smooth_oracle
from lslab.errors import BudgetExceeded
from lslab.grid import (
    DEFAULT_SCAN_LIMIT,
    GridShape,
    _distance_maps,
    _l1,
    _neighbors,
    _snake_rank,
    neighbors,
    snake_rank,
    snake_unrank,
)
from lslab.instances import (
    _instance_value,
    _value_table,
    clock_metadata,
    gen_block_instance,
    gen_grid_instance,
    gen_hypercube_instance,
    instance_from_dict,
    instance_membership,
    instance_to_dict,
    instance_value,
    verify_instance,
)
from lslab.oracles import MembershipOracle, ValueOracle, simulate_value_via_membership
from lslab.solvers import RegionState
from lslab.walkstats import line_walk_endpoint_counts, line_walk_table, parity_prob_enumerated

SMALL = (
    gen_hypercube_instance(6, 3, seed=1),
    gen_grid_instance(4, 3, 1, seed=2),
    gen_grid_instance(5, 2, 1, seed=3),
    gen_block_instance(9, 2, 0.5, seed=4),
)


def _off_domain(shape: GridShape):
    k, l = shape.k, shape.l
    return [
        (1,) * (l - 1),  # too short
        (1,) * (l + 1),  # too long
        (0,) + (1,) * (l - 1),
        (1,) * (l - 1) + (k + 1,),
    ]


def _entry_points(inst):
    value, membership = ValueOracle.for_instance(inst), MembershipOracle(inst)
    meta = clock_metadata(inst)
    return [
        lambda v: snake_rank(inst.shape, v),
        lambda v: neighbors(inst.shape, v),
        lambda v: instance_value(inst, v),
        lambda v: instance_membership(inst, v),
        value.query,
        value.peek,
        membership.query,
        membership.peek,
        lambda v: simulate_value_via_membership(meta, membership, v),
    ], (value.ledger, membership.ledger)


@pytest.mark.parametrize("inst", SMALL, ids=lambda i: f"{i.family}-{i.shape.k}^{i.shape.l}")
def test_public_entry_points_reject_off_domain_vertices(inst):
    entries, ledgers = _entry_points(inst)
    for v in _off_domain(inst.shape):
        for entry in entries:
            with pytest.raises(ValueError):
                entry(v)
    # a rejected vertex is never charged
    assert all(ledger.classical_queries == 0 for ledger in ledgers)


def test_non_integer_coordinates_rejected():
    # each of these used to answer: 7.5, 5.5, [(0.5, 2), ...] and 8.5
    inst = gen_grid_instance(4, 2, 1, seed=0)
    oracle = ValueOracle.for_instance(inst)
    probes = [
        lambda: instance_value(inst, (1.5, 2)),
        lambda: snake_rank(GridShape(3, 2), (1.5, 2)),
        lambda: neighbors(GridShape(3, 2), (1.5, 2)),
        lambda: oracle.query((2.5, 3)),
    ]
    for probe in probes:
        with pytest.raises(ValueError):
            probe()
    assert oracle.ledger.classical_queries == 0
    # a coordinate equal to an integer of the grid still passes, and reads
    # as that integer, on the path and off it
    assert instance_value(inst, (1.0, True)) == instance_value(inst, (1, 1))
    assert type(instance_value(inst, (1.0, True))) is int
    off = next(v for v in inst.shape.iter_vertices() if v not in inst.value_by_vertex)
    as_floats = tuple(map(float, off))
    assert instance_value(inst, as_floats) == instance_value(inst, off)
    assert type(instance_value(inst, as_floats)) is int


@pytest.mark.parametrize("inst", SMALL, ids=lambda i: f"{i.family}-{i.shape.k}^{i.shape.l}")
def test_trusted_helpers_equal_public_functions(inst):
    shape, k = inst.shape, inst.shape.k
    membership = MembershipOracle(inst)
    member, meta = membership._member, clock_metadata(inst)
    for v in shape.iter_vertices():
        # the definition, read without the per-axis distance maps
        expected = inst.value_by_vertex.get(v)
        if expected is None:
            expected = _l1(v, inst.start) + inst.off_path_base
        assert _instance_value(inst, v) == instance_value(inst, v) == expected
        assert simulate_value_via_membership(meta, membership, v) == expected
        assert member(v) == instance_membership(inst, v)
        assert _snake_rank(k, v) == snake_rank(shape, v)
        assert _neighbors(k, v) == neighbors(shape, v)


@pytest.mark.parametrize("inst", SMALL, ids=lambda i: f"{i.family}-{i.shape.k}^{i.shape.l}")
def test_tick_table_is_the_clock_snake_rank(inst):
    for case in (inst, instance_from_dict(instance_to_dict(inst))):
        meta = clock_metadata(case)
        if case.m is None:  # blocks have no clock axes
            assert meta.clock_ticks is meta.clock_points is None
            continue
        clocks = list(GridShape(case.shape.k, case.shape.l - case.m).iter_vertices())
        expected = {c: _snake_rank(case.shape.k, c) - 1 for c in clocks}
        assert meta.clock_ticks == expected
        assert [meta.clock_ticks[c] for c in meta.clock_points] == list(range(case.T + 1))
        assert all(p[case.m :] == meta.clock_points[i // 2] for i, p in enumerate(case.trajectory))


def _backwards(inst):
    # the walk parts in reverse order on the same clocks, valued as the walk
    # families value a trajectory (2T - i at point i), over the stored points
    m, path = inst.m, inst.trajectory
    walk = [p[:m] for p in path[::2]] + [inst.endpoint[:m]]
    walk.reverse()
    values = {}
    for t, p in enumerate(path[::2]):
        values[walk[t] + p[m:]] = 2 * (inst.T - t)
        values[walk[t + 1] + p[m:]] = 2 * (inst.T - t) - 1
    return dataclasses.replace(inst, value_by_vertex=values)


def _reference_report(inst):
    # the definition verify_instance's stride scan must match: a dict of
    # public values and neighbors() lookups
    shape = inst.shape
    points = set(inst.trajectory)
    values = {v: instance_value(inst, v) for v in shape.iter_vertices()}
    minima = [
        v for v, fv in values.items() if all(values[w] >= fv for w in neighbors(shape, v))
    ]
    return dict(
        self_avoiding=len(points) == len(inst.trajectory),
        unique_local_min=minima == [inst.endpoint],
        membership_consistent=all(
            instance_membership(inst, v) == (v in points) for v in shape.iter_vertices()
        ),
        local_min_count=min(len(minima), 9),  # the scan stops after nine
        minimum=minima[0] if len(minima) == 1 else None,
    )


@pytest.mark.parametrize("inst", SMALL, ids=lambda i: f"{i.family}-{i.shape.k}^{i.shape.l}")
def test_verify_matches_neighbour_scan(inst):
    report = verify_instance(inst)
    assert dataclasses.asdict(report) == _reference_report(inst)
    assert report.ok
    # the function's minimum is no longer at the stored endpoint
    moved = dataclasses.replace(inst, endpoint=inst.start)
    report = verify_instance(moved)
    assert dataclasses.asdict(report) == _reference_report(moved)
    assert not report.unique_local_min
    if inst.m is not None:
        # a walk read backwards: membership at odds with the stored points
        backwards = _backwards(inst)
        report = verify_instance(backwards)
        assert dataclasses.asdict(report) == _reference_report(backwards)
        assert not report.membership_consistent
    else:
        # isolated pits at every all-odd vertex: more minima than the scan counts
        pits = [v for v in inst.shape.iter_vertices() if all(c % 2 for c in v)]
        pitted = dataclasses.replace(inst, value_by_vertex=dict.fromkeys(pits, 0))
        report = verify_instance(pitted)
        assert dataclasses.asdict(report) == _reference_report(pitted)
        assert report.local_min_count == 9


def _table_cases():
    # the instances of test_verify_matches_neighbour_scan, with the reversed
    # walk and the pitted blocks it verifies
    for inst in SMALL:
        yield inst
        if inst.m is not None:
            yield _backwards(inst)
        else:
            pits = [v for v in inst.shape.iter_vertices() if all(c % 2 for c in v)]
            yield dataclasses.replace(inst, value_by_vertex=dict.fromkeys(pits, 0))


@pytest.mark.parametrize(
    "inst", list(_table_cases()), ids=lambda i: f"{i.family}-{i.shape.k}^{i.shape.l}"
)
def test_value_table_equals_registered_value(inst):
    assert _value_table(inst) == [_instance_value(inst, v) for v in inst.shape.iter_vertices()]


def _regions():
    rng = random.Random(7)
    for n in (2, 5, 16, 33):
        region = RegionState(n=n)
        yield region
        for _ in range(4):
            region = region.with_ball(rng.choice(region.vertices()), rng.randrange(0, n))
            yield region


def _edge_regions():
    # at totals of 1 and of exact powers of two, total.bit_length() exceeds
    # (total - 1).bit_length(): randrange rejects half of its draws there, and
    # a sampler drawing one bit fewer would read a different stream
    yield RegionState(n=5).with_ball((3, 3), 0), 1
    yield RegionState(n=2).with_ball((1, 1), 1).with_ball((2, 2), 1), 2
    yield RegionState(n=2), 4
    yield RegionState(n=4).with_ball((1, 2), 2), 8
    yield RegionState(n=4), 16
    yield RegionState(n=6).with_ball((2, 3), 5), 32
    yield RegionState(n=16), 256


def _identity(v):
    return v


def test_region_draws_follow_the_enumeration_order():
    # pins the draw -> vertex map that byte-identical bench CSVs depend on:
    # one batched draw reads the same stream as repeated randrange calls
    edges = list(_edge_regions())
    assert [region.sampler(random.Random(0))[1] for region, _ in edges] == [
        total for _, total in edges
    ]
    for region in [region for region, _ in edges] + list(_regions()):
        vertices = region.vertices()
        rng = random.Random(region.n * 1000 + len(region.constraints))
        clone = random.Random()
        clone.setstate(rng.getstate())
        draw, total = region.sampler(rng)
        assert total == len(vertices)
        # an identity read hands back the vertices themselves as the values
        drawn, vertex = draw(200, _identity)
        assert drawn == [vertices[clone.randrange(total)] for _ in range(200)]
        assert [vertex(i) for i in range(200)] == drawn
        assert rng.getstate() == clone.getstate()
        # the stream carries on across batches, as it does across randrange
        # calls; 5000 draws refill several times on the half-rejecting totals
        for count in (3, 0, 5, 5000):
            drawn, vertex = draw(count, _identity)
            assert drawn == [vertices[clone.randrange(total)] for _ in range(count)]
            assert [vertex(i) for i in range(count)] == drawn
            assert rng.getstate() == clone.getstate()


@pytest.mark.parametrize("k, l", [(9, 2), (5, 3)])
def test_smooth_oracle_reads_the_l1_distance(k, l):
    shape = GridShape(k, l)
    for seed in range(3):
        oracle, _ = _smooth_oracle(k, l, seed)
        # the centre is the oracle's first draw, as _smooth_oracle makes it
        rng = random.Random(seed)
        center = snake_unrank(shape, rng.randrange(shape.vertex_count) + 1)
        for v in shape.iter_vertices():
            assert oracle.peek(v) == _l1(center, v)


def test_wide_smooth_oracle_builds_no_maps():
    # [2^17]^2 is over the scan limit: listed per-axis maps would hold 2^18
    # entries (about 27 MB), so its maps compute each read and store nothing
    tracemalloc.start()
    try:
        oracle, start = _smooth_oracle(1 << 17, 2, 0)
        oracle.peek(start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_wide_distance_maps_stay_empty():
    shape = GridShape(1 << 17, 2)
    p = (5, 70000)
    maps = _distance_maps(shape, p, 3)
    for v in ((1, 1), (5, 70000), (1 << 17, 2), (9.0, True)):
        assert sum(map(getitem, maps, v)) == _l1(tuple(map(int, v)), p) + 3
    assert all(len(axis) == 0 for axis in maps)


def test_off_path_reads_on_a_wide_grid():
    # k * l = 80000 is over the scan limit, so the grid's per-axis distance
    # maps are the unlisted kind; every off-path read still goes through
    # them and returns the integer distance, also for a float or True spelling
    inst = gen_grid_instance(40000, 2, 1, 5)
    assert inst.shape.k * inst.shape.l > DEFAULT_SCAN_LIMIT
    oracle = ValueOracle.for_instance(inst)
    membership, meta = MembershipOracle(inst), clock_metadata(inst)
    rng = random.Random(0)
    sampled = [(rng.randint(1, 40000), rng.randint(1, 40000)) for _ in range(200)]
    off = [v for v in sampled + [(1, 40000)] if v not in inst.value_by_vertex]
    assert len(off) > 150 and off[-1] == (1, 40000)
    spellings = [(v, v) for v in off] + [(tuple(map(float, v)), v) for v in off]
    spellings.append(((True, 40000), (1, 40000)))
    for spelled, v in spellings:
        expected = _l1(v, inst.start) + inst.off_path_base
        for got in (
            instance_value(inst, spelled),
            oracle.peek(spelled),
            simulate_value_via_membership(meta, membership, spelled),
        ):
            assert got == expected and type(got) is int


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: gen_hypercube_instance(20000, 1, seed=0),
         "trajectory of 2^20000 points exceeds 2097152"),
        (lambda: gen_grid_instance(5, 20000, 1, seed=0),
         "trajectory of 2 * 5^19999 points exceeds 2097152"),
        (lambda: gen_block_instance(9, 10**7, 0.5, seed=0),
         "trajectory of about 12 * 3^9999999 points exceeds 2097152"),
        (lambda: GridShape(2, 20000).iter_vertices(),
         "[2]^20000 has 2^20000 vertices, over the scan limit 65536"),
        (lambda: verify_instance(gen_hypercube_instance(20000, 19998, seed=0)),
         "[2]^20000 has 2^20000 vertices, over the scan limit 65536"),
        (lambda: parity_prob_enumerated(10, 20000, (0,) * 10),
         "m^t = 10^20000 exceeds enumeration limit 4194304"),
        (lambda: line_walk_endpoint_counts(3, 20000, 1),
         "2^t = 2^20000 exceeds enumeration limit 4194304"),
        (lambda: line_walk_table(10**2200, 0),
         f"n^2 (t_max + 1) = {10**2200}^2 exceeds table limit 4194304"),
        # a base, exponent or factor of 5001 digits is stated as a power of 2
        (lambda: line_walk_table(10**5000, 0),
         "n^2 (t_max + 1) = (about 2^16610)^2 exceeds table limit 4194304"),
        (lambda: line_walk_table(3, 10**5000),
         "n^2 (t_max + 1) = (about 2^16610) * 3^2 exceeds table limit 4194304"),
        (lambda: line_walk_endpoint_counts(3, 10**5000, 1),
         "2^t = 2^(about 2^16610) exceeds enumeration limit 4194304"),
        (lambda: parity_prob_enumerated(2, 10**5000, (0, 0)),
         "m^t = 2^(about 2^16610) exceeds enumeration limit 4194304"),
        (lambda: enumerate_paths("grid", 1, 10**5000),
         "2^(about 2^16610) walks exceed the family limit 131072"),
        (lambda: GridShape(10**5000, 2).iter_vertices(),
         "[(about 2^16610)]^2 has (about 2^16610)^2 vertices, over the scan limit 65536"),
        (lambda: GridShape(2, 10**5000).iter_vertices(),
         "[2]^(about 2^16610) has 2^(about 2^16610) vertices, over the scan limit 65536"),
    ],
    ids=["hypercube-walk", "grid-walk", "grid-blocks", "iter-vertices", "verify",
         "parity-enumerated", "line-endpoints", "line-table", "line-table-huge-side",
         "line-table-huge-horizon", "line-endpoints-huge-t", "parity-huge-t",
         "family-huge-T", "iter-vertices-huge-side", "iter-vertices-huge-axes"],
)
def test_refusals_past_4300_digits_state_the_size_as_a_power(refuse, message):
    # each size has over 4300 digits, which CPython refuses to print, and
    # each is decided from its exponent without being built; a number of
    # over 4300 digits in the statement is itself stated as about 2^e
    with pytest.raises(BudgetExceeded) as refused:
        refuse()
    assert str(refused.value) == message


def test_import_does_not_load_numpy():
    # numpy alone adds about 11 MB of resident memory to every lslab process
    src = os.path.dirname(os.path.dirname(lslab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, lslab; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
