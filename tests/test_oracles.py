"""Oracle, ledger, and membership-to-value reduction tests."""

import pytest

from lslab.grid import GridShape, l1_distance
from lslab.instances import (
    clock_metadata,
    gen_block_instance,
    gen_grid_instance,
    gen_hypercube_instance,
    instance_value,
)
from lslab.oracles import (
    MembershipOracle,
    QueryLedger,
    ValueOracle,
    simulate_value_via_membership,
)


class TestLedger:
    def test_counts_accumulate(self):
        led = QueryLedger()
        led.record_classical()
        led.record_classical(3)
        led.record_quantum(5)
        assert led.classical_queries == 4
        assert led.charged_quantum_queries == 5

    def test_phases_sum_to_totals(self):
        led = QueryLedger()
        led.record_classical()
        with led.phase("sample"):
            led.record_classical(2)
            with led.phase("dh"):
                led.record_quantum(7)
        led.record_classical()
        bd = led.breakdown()
        assert bd["main"] == (2, 0)
        assert bd["sample"] == (2, 0)
        assert bd["dh"] == (0, 7)
        assert led.classical_queries == sum(c for c, _ in bd.values())
        assert led.charged_quantum_queries == sum(q for _, q in bd.values())

    def test_phase_appears_on_its_first_record_even_of_zero(self):
        led = QueryLedger()
        with led.phase("idle"):
            pass
        assert led.breakdown() == {}
        with led.phase("sample"):
            led.record_quantum(0)
            with led.phase("idle"):
                pass
        led.record_classical(0)
        assert list(led.breakdown().items()) == [("sample", (0, 0)), ("main", (0, 0))]

    def test_negative_rejected(self):
        led = QueryLedger()
        with pytest.raises(ValueError):
            led.record_classical(-1)

    def test_running_totals_equal_breakdown_sums(self):
        # the totals are kept next to the buckets, not summed on read
        led = QueryLedger()

        def sums():
            bd = led.breakdown()
            return sum(c for c, _ in bd.values()), sum(q for _, q in bd.values())

        led.record_quantum(2)
        with led.phase("sample"):
            led.record_classical(3)
            with led.phase("dh"):
                led.record_quantum(11)
                led.record_classical()
                with led.phase("sample"):  # a label re-entered inside itself
                    led.record_classical(4)
                    led.record_quantum(1)
            assert (led.classical_queries, led.charged_quantum_queries) == sums() == (8, 14)
        led.record_classical(0)
        assert (led.classical_queries, led.charged_quantum_queries) == sums() == (8, 14)
        for record in (led.record_classical, led.record_quantum):
            with pytest.raises(ValueError):
                record(-3)
        assert (led.classical_queries, led.charged_quantum_queries) == sums() == (8, 14)


class TestValueOracle:
    def test_table_query_counts(self):
        shape = GridShape(2, 2)
        oracle = ValueOracle.from_table(shape, {(1, 1): 5})
        assert oracle.query((1, 1)) == 5
        assert oracle.ledger.classical_queries == 1
        assert oracle.query((1, 1)) == 5  # deterministic repeat
        assert oracle.ledger.classical_queries == 2

    def test_off_domain(self):
        oracle = ValueOracle.from_table(GridShape(2, 2), {(1, 1): 5})
        with pytest.raises(ValueError):
            oracle.query((3, 1))

    def test_missing_table_entry(self):
        oracle = ValueOracle.from_table(GridShape(2, 2), {(1, 1): 5})
        with pytest.raises(ValueError):
            oracle.query((2, 2))

    def test_peek_uncounted(self):
        inst = gen_hypercube_instance(4, 2, seed=0)
        oracle = ValueOracle.for_instance(inst)
        oracle.peek(inst.start)
        assert oracle.ledger.classical_queries == 0

    def test_every_query_lands_in_ledger(self):
        # no silent queries: wrap the evaluation rule and compare call counts
        inst = gen_grid_instance(4, 2, 1, seed=1)
        calls = 0

        def fn(v):
            nonlocal calls
            calls += 1
            return instance_value(inst, v)

        oracle = ValueOracle(inst.shape, fn)
        for v in inst.trajectory[:5]:
            oracle.query(v)
        assert calls == oracle.ledger.classical_queries == 5


class TestMembershipOracle:
    def test_start_is_member(self):
        inst = gen_hypercube_instance(4, 2, seed=0)
        mo = MembershipOracle(inst)
        assert mo.query(inst.start) is True
        assert mo.ledger.classical_queries == 1

    def test_far_vertices_not_members(self):
        inst = gen_hypercube_instance(5, 2, seed=0)
        mo = MembershipOracle(inst)
        on_path = set(inst.trajectory)
        far = [
            v
            for v in inst.shape.iter_vertices()
            if all(l1_distance(v, p) > 1 for p in on_path)
        ]
        for v in far:
            assert mo.query(v) is False

    def test_off_domain(self):
        inst = gen_hypercube_instance(4, 2, seed=0)
        mo = MembershipOracle(inst)
        with pytest.raises(ValueError):
            mo.query((5, 1, 1, 1))

    def test_peek_checks_the_vertex_and_charges_nothing(self):
        inst = gen_hypercube_instance(4, 2, seed=0)
        mo = MembershipOracle(inst)
        on_path = set(inst.trajectory)
        assert [mo.peek(v) for v in inst.shape.iter_vertices()] == [
            v in on_path for v in inst.shape.iter_vertices()
        ]
        with pytest.raises(ValueError):
            mo.peek((5, 1, 1, 1))
        assert mo.ledger.classical_queries == 0
        assert mo.ledger.breakdown() == {}


class TestValueSimulation:
    def probes_for(self, inst, v):
        mo = MembershipOracle(inst)
        meta = clock_metadata(inst)
        got = simulate_value_via_membership(meta, mo, v)
        return got, mo.ledger.classical_queries

    def test_off_path_one_query(self):
        inst = gen_hypercube_instance(5, 2, seed=2)
        off = next(
            v for v in inst.shape.iter_vertices() if v not in set(inst.trajectory)
        )
        got, probes = self.probes_for(inst, off)
        assert got == l1_distance(off, inst.start) + 2 * inst.T
        assert probes == 1

    def test_start_one_query(self):
        inst = gen_hypercube_instance(5, 2, seed=2)
        got, probes = self.probes_for(inst, inst.start)
        assert got == 2 * inst.T
        assert probes == 1

    def test_on_path_two_queries(self):
        inst = gen_hypercube_instance(5, 2, seed=2)
        v = inst.trajectory[4]  # tick 1, pre-step point
        got, probes = self.probes_for(inst, v)
        assert got == instance_value(inst, v)
        assert probes == 2

    def test_backtracking_walk_decoded_exactly(self):
        # consecutive flips of the same coordinate make the predecessor probe
        # land for both points of the tick; parity must still resolve them
        from lslab.instances import _replay_hypercube

        inst = _replay_hypercube(4, 2, (0, 0, 1, 0), seed=None)
        mo = MembershipOracle(inst)
        meta = clock_metadata(inst)
        for v in inst.trajectory:
            assert simulate_value_via_membership(meta, mo, v) == instance_value(
                inst, v
            )

    def test_shape_mismatch_rejected_before_any_charge(self):
        # the simulator hands v, checked against meta.shape only, to the
        # oracle's unchecked membership function, so the shapes must agree
        meta = clock_metadata(gen_hypercube_instance(5, 2, seed=1))
        mo = MembershipOracle(gen_hypercube_instance(4, 2, seed=1))
        for v in ((1,) * 5, (2, 1, 2, 1, 1)):
            with pytest.raises(ValueError, match="cannot serve"):
                simulate_value_via_membership(meta, mo, v)
        assert mo.ledger.classical_queries == 0
        assert mo.ledger.breakdown() == {}

    @pytest.mark.parametrize(
        "inst",
        [
            gen_hypercube_instance(6, 1, seed=3),
            gen_hypercube_instance(6, 3, seed=4),
            gen_grid_instance(5, 2, 1, seed=5),
            gen_grid_instance(4, 3, 2, seed=6),
            gen_block_instance(9, 2, 0.5, seed=7),
            gen_block_instance(16, 2, 0.5, seed=8),
        ],
    )
    def test_exact_on_every_vertex(self, inst):
        meta = clock_metadata(inst)
        for v in inst.shape.iter_vertices():
            mo = MembershipOracle(inst)
            got = simulate_value_via_membership(meta, mo, v)
            assert got == instance_value(inst, v)
            assert mo.ledger.classical_queries <= 2
