"""Instance generator tests: geometry, induced values, verification, files."""

import dataclasses
import json
import math

import pytest

from lslab.errors import BudgetExceeded, InstanceFormatError
from lslab.cli import main
from lslab.grid import GridShape, l1_distance, neighbors, snake_rank, snake_unrank
from lslab.instances import (
    _replay_grid,
    _replay_hypercube,
    BlockLayout,
    block_layout,
    clock_metadata,
    gen_block_instance,
    gen_grid_instance,
    gen_hypercube_instance,
    instance_from_dict,
    instance_membership,
    instance_to_dict,
    instance_value,
    load_instance,
    recommended_params,
    save_instance,
    verify_instance,
)


class TestHypercubeInstance:
    def test_shape_and_length(self):
        inst = gen_hypercube_instance(3, 2, seed=7)
        assert inst.T == 1
        assert len(inst.trajectory) == 4
        assert inst.shape == GridShape(2, 3)

    def test_start_is_all_zero_bits(self):
        inst = gen_hypercube_instance(3, 2, seed=1)
        assert inst.start == (1, 1, 1)

    def test_no_clock_space(self):
        with pytest.raises(ValueError):
            gen_hypercube_instance(3, 3, seed=1)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            gen_hypercube_instance(40, 2, seed=1)

    def test_endpoint_replay(self):
        # flips 0 then 1 from 00 land on 11 with the clock at snake rank 2
        from lslab.instances import _replay_hypercube

        inst = _replay_hypercube(3, 2, (0, 1), seed=None)
        assert inst.endpoint[:2] == (2, 2)
        assert snake_rank(GridShape(2, 1), inst.endpoint[2:]) == 2

    def test_values_on_path(self):
        inst = gen_hypercube_instance(5, 2, seed=3)
        T = inst.T
        assert instance_value(inst, inst.start) == 2 * T
        assert instance_value(inst, inst.endpoint) == -1
        values = [instance_value(inst, v) for v in inst.trajectory]
        assert values == list(range(2 * T, -2, -1))[: len(values)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_off_path_neighbor_of_start(self):
        inst = gen_hypercube_instance(5, 2, seed=3)
        off = [
            v
            for v in neighbors(inst.shape, inst.start)
            if not instance_membership(inst, v)
        ]
        assert off
        assert all(instance_value(inst, v) == 2 * inst.T + 1 for v in off)

    def test_determinism(self):
        a = gen_hypercube_instance(6, 3, seed=11)
        b = gen_hypercube_instance(6, 3, seed=11)
        assert a.steps == b.steps and a.trajectory == b.trajectory
        c = gen_hypercube_instance(6, 3, seed=12)
        assert a.steps != c.steps


class TestGridInstance:
    def test_params(self):
        inst = gen_grid_instance(4, 2, 1, seed=5)
        assert inst.T == 3
        assert inst.start[0] == 2  # walk coordinates start at floor(n/2)
        assert len(inst.trajectory) == 8

    def test_t_formula(self):
        inst = gen_grid_instance(3, 3, 2, seed=5)
        assert inst.T == 2

    def test_m_must_leave_clock(self):
        with pytest.raises(ValueError):
            gen_grid_instance(3, 2, 2, seed=5)

    def test_walk_moves_are_unit_steps(self):
        inst = gen_grid_instance(5, 2, 1, seed=9)
        pos = [p[:1] for p in inst.trajectory[::2]] + [inst.endpoint[:1]]
        assert all(l1_distance(a, b) == 1 for a, b in zip(pos, pos[1:]))
        assert all(1 <= w[0] <= 5 for w in pos)

    def test_all_sign_choices_saturate_at_border(self):
        from lslab.instances import _replay_grid

        inst = _replay_grid(4, 2, 1, (1, 1, 1, 1), seed=None)
        # 2 -> 3 -> 4 -> (blocked, re-aimed) 3 -> 4
        walk = [p[0] for p in inst.trajectory[::2]] + [inst.endpoint[0]]
        assert walk == [2, 3, 4, 3, 4]
        assert inst.endpoint[0] == 4


class TestBlockInstance:
    def test_layout_example(self):
        lay = block_layout(9, 2, 0.5)
        assert (lay.alpha, lay.beta, lay.nprime) == (3, 3, 9)
        assert lay.iterations == 9

    def test_degenerate_alpha(self):
        with pytest.raises(ValueError):
            gen_block_instance(4, 2, 0.1, seed=1)

    @pytest.mark.parametrize("n", [-8, 0, 1])
    def test_side_below_two_rejected(self, n):
        # a negative side used to reach n**r as a complex number (TypeError)
        with pytest.raises(ValueError, match="n >= 2"):
            block_layout(n, 2, 0.5)

    def test_integer_power_not_lost(self):
        lay = block_layout(27, 2, 2 / 3)
        assert lay.alpha == 9

    def test_trajectory_self_avoiding(self):
        for seed in range(25):
            inst = gen_block_instance(9, 2, 0.5, seed=seed)
            assert len(set(inst.trajectory)) == len(inst.trajectory)

    def test_endpoint_in_last_block(self):
        for seed in range(10):
            inst = gen_block_instance(9, 2, 0.5, seed=seed)
            lay = inst.block
            c, rw = inst.endpoint
            assert (lay.beta - 1) * lay.alpha < c <= lay.beta * lay.alpha
            assert lay.alpha < rw <= lay.nprime - lay.alpha

    def test_values_strictly_decreasing(self):
        inst = gen_block_instance(9, 2, 0.5, seed=4)
        values = [instance_value(inst, v) for v in inst.trajectory]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_consecutive_points_adjacent(self):
        inst = gen_block_instance(16, 2, 0.5, seed=2)
        traj = inst.trajectory
        assert all(l1_distance(a, b) == 1 for a, b in zip(traj, traj[1:]))

    def test_block_thread_bijection(self):
        # non-segment points (those inside block interiors) map one-to-one
        # onto the 2L tick slots of the threaded walk-with-clock space
        inst = gen_block_instance(9, 2, 0.5, seed=3)
        lay = inst.block
        interior = [
            v
            for v in inst.trajectory
            if lay.alpha < v[1] <= lay.nprime - lay.alpha
        ]
        assert len(interior) == 2 * lay.iterations
        assert len(set(interior)) == len(interior)


class TestVerification:
    @pytest.mark.parametrize(
        "inst",
        [
            gen_hypercube_instance(5, 2, seed=0),
            gen_hypercube_instance(6, 1, seed=1),
            gen_grid_instance(4, 2, 1, seed=2),
            gen_grid_instance(4, 3, 2, seed=3),
            gen_block_instance(9, 2, 0.5, seed=4),
        ],
    )
    def test_good_instances_verify(self, inst):
        report = verify_instance(inst)
        assert report.self_avoiding
        assert report.unique_local_min
        assert report.membership_consistent
        assert report.ok
        assert report.minimum == inst.endpoint

    def test_corrupted_trajectory_flagged(self):
        inst = gen_hypercube_instance(5, 2, seed=0)
        bad = dataclasses.replace(
            inst, trajectory=inst.trajectory[:-1] + (inst.trajectory[0],)
        )
        report = verify_instance(bad)
        assert not report.self_avoiding

    def test_scan_budget(self, monkeypatch):
        # refused before the value table allocates one entry per vertex
        def no_table(inst):
            raise AssertionError(f"value table built for {inst.shape.vertex_count} vertices")

        monkeypatch.setattr("lslab.instances._value_table", no_table)
        inst = gen_hypercube_instance(20, 16, seed=0)
        with pytest.raises(BudgetExceeded):
            verify_instance(inst)

    def test_off_path_vertices_have_smaller_neighbor(self):
        inst = gen_grid_instance(5, 2, 1, seed=8)
        on_path = set(inst.trajectory)
        for v in inst.shape.iter_vertices():
            if v in on_path:
                continue
            fv = instance_value(inst, v)
            assert any(
                instance_value(inst, w) < fv for w in neighbors(inst.shape, v)
            )

    def test_distinct_steps_distinct_point_sets(self):
        # complete walk families: different step sequences never share a
        # point set, so membership functions identify walks
        from itertools import product as iproduct

        from lslab.instances import _replay_hypercube

        for T in (1, 3):
            n = 2 + int(math.log2(T + 1))
            seen = set()
            for steps in iproduct(range(2), repeat=T + 1):
                inst = _replay_hypercube(n, 2, steps, seed=None)
                key = frozenset(inst.trajectory)
                assert key not in seen
                seen.add(key)


class TestRecommendedParams:
    def test_hypercube_examples(self):
        assert recommended_params("hypercube-walk", "randomized", n=10) == {"m": 6}
        assert recommended_params("hypercube-walk", "quantum", n=12) == {"m": 6}

    def test_block_examples(self):
        assert recommended_params("grid-blocks", "randomized", d=4) == {"r": 2 / 3}
        assert recommended_params("grid-blocks", "randomized", d=2) == {"r": 2 / 3}
        assert recommended_params("grid-blocks", "quantum", d=2) == {"r": 2 / 3}
        assert recommended_params("grid-blocks", "quantum", d=6) == {"r": 12 / 15}

    def test_grid_modes(self):
        assert recommended_params("grid-walk", "randomized", d=2) == {"m": 1}
        assert recommended_params("grid-walk", "randomized", d=6) == {"m": 3}
        assert recommended_params("grid-walk", "quantum", d=5) == {"m": 3}

    @pytest.mark.parametrize(
        "family, mode, n, d, expected",
        [
            # grid randomized: m = 2 for d in {3, 4}
            ("grid-walk", "randomized", None, 3, {"m": 2}),
            ("grid-walk", "randomized", None, 4, {"m": 2}),
            # grid quantum: m = 1 for d = 2, 4 for d = 6, round(2d/3) above
            ("grid-walk", "quantum", None, 2, {"m": 1}),
            ("grid-walk", "quantum", None, 6, {"m": 4}),
            ("grid-walk", "quantum", None, 7, {"m": 5}),
            ("grid-walk", "quantum", None, 9, {"m": 6}),
            # blocks randomized, d = 3: r = 3/4 - log log n / (4 log n), n >= 4
            ("grid-blocks", "randomized", 16, 3, {"r": 3 / 4 - 2 / 16}),
            ("grid-blocks", "randomized", 256, 3, {"r": 3 / 4 - 3 / 32}),
            ("grid-blocks", "randomized", 3, 3, ValueError),
            ("grid-blocks", "randomized", None, 3, ValueError),
            # the smallest sizes each family takes
            ("hypercube-walk", "randomized", 1, None, ValueError),
            ("hypercube-walk", "quantum", None, None, ValueError),
            ("grid-walk", "randomized", None, 1, ValueError),
            ("grid-walk", "quantum", None, None, ValueError),
            ("grid-blocks", "quantum", 16, 1, ValueError),
            ("grid-blocks", "randomized", 16, None, ValueError),
        ],
    )
    def test_formula_table(self, family, mode, n, d, expected):
        if expected is ValueError:
            with pytest.raises(ValueError):
                recommended_params(family, mode, n=n, d=d)
        else:
            assert recommended_params(family, mode, n=n, d=d) == expected

    def test_unsupported(self):
        with pytest.raises(ValueError):
            recommended_params("hypercube-walk", "annealed", n=8)
        with pytest.raises(ValueError):
            recommended_params("moebius", "quantum", n=8)


class TestInstanceFiles:
    def test_roundtrip(self, tmp_path):
        for inst in (
            gen_hypercube_instance(6, 3, seed=5),
            gen_grid_instance(4, 2, 1, seed=6),
            gen_block_instance(9, 2, 0.5, seed=7),
        ):
            path = tmp_path / "inst.json"
            save_instance(inst, str(path))
            loaded = load_instance(str(path))
            assert loaded.family == inst.family
            assert loaded.trajectory == inst.trajectory
            assert loaded.steps == inst.steps

    def test_unknown_version_rejected(self):
        data = instance_to_dict(gen_hypercube_instance(5, 2, seed=1))
        data["format_version"] = 99
        with pytest.raises(InstanceFormatError):
            instance_from_dict(data)

    def test_tampered_endpoint_rejected(self):
        data = instance_to_dict(gen_hypercube_instance(5, 2, seed=1))
        data["endpoint"] = list(data["start"])
        with pytest.raises(InstanceFormatError):
            instance_from_dict(data)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(InstanceFormatError):
            load_instance(str(path))

    @pytest.mark.parametrize("data", [[], 7, {"params": []}], ids=repr)
    def test_not_an_instance_object(self, tmp_path, data):
        if isinstance(data, dict):
            data = dict(instance_to_dict(gen_hypercube_instance(5, 2, seed=1)), **data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceFormatError):
            load_instance(str(path))

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: d.update(T=999), "T=999"),
            (lambda d: d.pop("T"), "'T'"),
            (lambda d: d.update(T=str(d["T"])), "T='"),
            (lambda d: d.update(note="x"), "unknown fields: note"),
            (lambda d: d["params"].update(k=2), "unknown fields: params.k"),
            (lambda d: d.update(format_version=True), "format_version True"),
            # equal to the replayed points, but not integers
            (lambda d: d.update(start=[True if c == 1 else c for c in d["start"]]),
             "start must hold integers"),
            (lambda d: d.update(endpoint=[float(c) for c in d["endpoint"]]),
             "endpoint must hold integers"),
        ],
        ids=["T-999", "T-missing", "T-string", "unknown-key", "unknown-param", "version-true",
             "start-bool", "endpoint-float"],
    )
    def test_fields_that_disagree_or_nothing_reads_rejected(self, tmp_path, edit, match):
        for inst in (gen_hypercube_instance(5, 2, seed=1), gen_block_instance(9, 2, 0.5, seed=3)):
            data = instance_to_dict(inst)
            edit(data)
            with pytest.raises(InstanceFormatError, match=match):
                instance_from_dict(data)
            path = tmp_path / "inst.json"
            path.write_text(json.dumps(data))
            assert main(["solve", "--inst", str(path), "--algo", "steepest"]) == 2

    def test_truncated_walk_rejected(self, tmp_path):
        # two steps cut and the endpoint edited to match the shorter walk
        data = instance_to_dict(gen_hypercube_instance(5, 2, seed=1))
        flips = data["step_sequence"][:-2]
        walk = [1, 1]
        for f in flips:
            walk[f] = 3 - walk[f]
        data["step_sequence"] = flips
        data["endpoint"] = walk + list(snake_unrank(GridShape(2, 3), len(flips)))
        with pytest.raises(InstanceFormatError):
            instance_from_dict(data)
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--inst", str(path), "--algo", "steepest"]) == 2

    def test_replay_needs_one_step_per_tick(self):
        with pytest.raises(InstanceFormatError):
            _replay_hypercube(5, 2, (0, 1) * 3, seed=None)  # 8 ticks
        with pytest.raises(InstanceFormatError):
            _replay_hypercube(5, 2, (0, 1) * 5, seed=None)
        with pytest.raises(InstanceFormatError):
            _replay_grid(4, 2, 1, (1, -1, 1), seed=None)  # 4 ticks
        with pytest.raises(InstanceFormatError):
            _replay_grid(4, 2, 0, (1, -1, 1, 1), seed=None)

    def test_walk_space_filling_the_grid_is_refused(self):
        # m = n leaves the clock no axis; with the endpoints a clockless
        # replay would give, the file must still be refused
        data = instance_to_dict(gen_hypercube_instance(3, 2, seed=0))
        data["params"]["m"] = 3
        data.update(step_sequence=[0], start=[1, 1, 1, 1], endpoint=[2, 1, 1, 1])
        with pytest.raises(InstanceFormatError):
            instance_from_dict(data)
        with pytest.raises(ValueError):
            _replay_hypercube(3, 3, (0,), seed=None)

    @pytest.mark.parametrize(
        "inst, key",
        [
            (gen_hypercube_instance(5, 2, seed=1), "m"),
            (gen_hypercube_instance(5, 2, seed=1), "n"),
            (gen_grid_instance(4, 2, 1, seed=2), "d"),
            (gen_grid_instance(4, 2, 1, seed=2), "m"),
            (gen_block_instance(9, 2, 0.5, seed=3), "d"),
            (gen_block_instance(9, 2, 0.5, seed=3), "r"),
        ],
        ids=lambda p: p if isinstance(p, str) else p.family,
    )
    def test_missing_or_mistyped_param_rejected(self, tmp_path, inst, key):
        data = instance_to_dict(inst)
        del data["params"][key]
        with pytest.raises(InstanceFormatError):
            instance_from_dict(data)
        data["params"][key] = "2"
        with pytest.raises(InstanceFormatError):
            instance_from_dict(data)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--inst", str(path), "--algo", "steepest"]) == 2

    @pytest.mark.parametrize(
        "inst, step, needle",
        [
            (gen_hypercube_instance(5, 2, seed=1), 2, "flip index out of range"),
            (gen_grid_instance(4, 2, 1, seed=2), 0, "grid steps must be signs"),
            (gen_block_instance(9, 2, 0.5, seed=3), 2, "block steps must be signs"),
        ],
        ids=["hypercube-walk", "grid-walk", "grid-blocks"],
    )
    def test_step_outside_the_familys_steps_exits_2(self, tmp_path, capsys, inst, step, needle):
        data = instance_to_dict(inst)
        data["step_sequence"][0] = step
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--inst", str(path), "--algo", "steepest"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert needle in err

    @pytest.mark.parametrize("bad", ["1", 0.5, None, [0]], ids=repr)
    def test_non_integer_step_rejected(self, bad):
        for inst in (gen_hypercube_instance(5, 2, seed=1), gen_grid_instance(4, 2, 1, seed=2)):
            data = instance_to_dict(inst)
            data["step_sequence"][3] = bad
            with pytest.raises(InstanceFormatError):
                instance_from_dict(data)
