"""The validation boundary: public entry points check every vertex, the
trusted ``_`` helpers agree with them on valid input, and importing the
package stays light."""

import os
import random
import subprocess
import sys

import pytest

import lslab
from lslab.grid import GridShape, _neighbors, _snake_rank, neighbors, snake_rank
from lslab.instances import (
    _membership,
    _value,
    clock_metadata,
    gen_block_instance,
    gen_grid_instance,
    gen_hypercube_instance,
    instance_membership,
    instance_value,
)
from lslab.oracles import MembershipOracle, ValueOracle, simulate_value_via_membership
from lslab.solvers import RegionState

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


@pytest.mark.parametrize("inst", SMALL, ids=lambda i: f"{i.family}-{i.shape.k}^{i.shape.l}")
def test_trusted_helpers_equal_public_functions(inst):
    shape, k = inst.shape, inst.shape.k
    for v in shape.iter_vertices():
        assert _value(inst, v) == instance_value(inst, v)
        assert _membership(inst, v) == instance_membership(inst, v)
        assert _snake_rank(k, v) == snake_rank(shape, v)
        assert _neighbors(k, v) == neighbors(shape, v)


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


def test_region_draws_follow_the_enumeration_order():
    # pins the draw -> vertex map that byte-identical bench CSVs depend on:
    # one batched draw reads the same stream as repeated randrange calls
    edges = list(_edge_regions())
    assert [region.count() for region, _ in edges] == [total for _, total in edges]
    for region in [region for region, _ in edges] + list(_regions()):
        vertices = region.vertices()
        assert region.count() == len(vertices)
        rng = random.Random(region.n * 1000 + region.round_index)
        clone = random.Random()
        clone.setstate(rng.getstate())
        draw, total = region.sampler(rng)
        assert total == len(vertices)
        drawn = draw(200)
        assert drawn == [vertices[clone.randrange(total)] for _ in range(200)]
        # the stream carries on across batches, as it does across randrange calls
        assert draw(3) + draw(0) + draw(5) == [
            vertices[clone.randrange(total)] for _ in range(8)
        ]


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
