"""Experiment runner and CLI tests."""

import json

import pytest

from lslab import bench
from lslab.bench import (
    ExperimentCell,
    ExperimentConfig,
    fit_loglog_slope,
    rows_to_csv,
    run_experiment,
    strip_runtime_column,
)
from lslab.errors import ConfigError
from lslab.cli import main
from lslab.instances import gen_hypercube_instance
from lslab.oracles import ValueOracle
from lslab.solvers import sample_then_descend, steepest_descent


SMALL_CONFIG = {
    "cells": [
        {"family": "hypercube-walk", "algo": "steepest", "n": 6, "m": 3, "trials": 3},
        {"family": "smooth-l1", "algo": "grid2d-quantum", "n": 8, "trials": 3},
        {
            "family": "grid-walk",
            "algo": "sample-descend",
            "n": 4,
            "d": 2,
            "m": 1,
            "samples": 6,
            "trials": 2,
        },
    ]
}

# the builtin function of `lslab solve`
CONE = ["--function", "l1-cone", "--n", "12"]


class TestConfig:
    def test_row_cardinality(self):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        rows = run_experiment(config)
        assert len(rows) == 8

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"cells": [], "plots": True})

    def test_unknown_cell_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"cells": [{"family": "smooth-l1", "algo": "steepest", "n": 4, "x": 1}]}
            )

    def test_unknown_algo_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"cells": [{"family": "smooth-l1", "algo": "tabu", "n": 4}]}
            )

    def test_success_rows_verified(self):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        for row in run_experiment(config):
            if row.outcome == "success":
                assert row.is_local_min

    def test_quantum_sample_descend_cell_reads_samples_quantum(self):
        # the instances and sample count of TestSampleThenDescend::PINNED_RUNS
        cell = ExperimentCell.from_dict({
            "family": "hypercube-walk", "algo": "quantum-sample-descend",
            "n": 10, "m": 6, "samples": 101, "trials": 4,
        })
        for seed in range(4):
            oracle = ValueOracle.for_instance(gen_hypercube_instance(10, 6, seed=seed))
            expect = sample_then_descend(oracle, samples=101, seed=seed, charging="quantum")
            assert bench.run_trial(cell, seed) == expect

    def test_determinism_modulo_runtime(self):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        a = strip_runtime_column(rows_to_csv(run_experiment(config)))
        b = strip_runtime_column(rows_to_csv(run_experiment(config)))
        assert a == b


class TestSlopeFit:
    def test_exact_square_root(self):
        rows = [{"x": n, "y": n**0.5} for n in (4, 16, 64, 256)]
        slope, stderr = fit_loglog_slope(rows, "x", "y")
        assert abs(slope - 0.5) < 1e-9
        assert stderr < 1e-9

    def test_linear(self):
        rows = [{"x": n, "y": 3 * n} for n in (2, 4, 8)]
        slope, _ = fit_loglog_slope(rows, "x", "y")
        assert abs(slope - 1.0) < 1e-9

    def test_single_x_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([{"x": 4, "y": 1}, {"x": 4, "y": 2}], "x", "y")
        with pytest.raises(ValueError, match="positive values"):
            fit_loglog_slope([{"x": 2, "y": 1}, {"x": 4, "y": 0}], "x", "y")

    def test_per_x_means(self):
        rows = [
            {"x": 2, "y": 1},
            {"x": 2, "y": 3},
            {"x": 4, "y": 4},
        ]
        slope, _ = fit_loglog_slope(rows, "x", "y")
        assert abs(slope - 1.0) < 1e-9


class TestCli:
    def test_gen_and_solve(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        code = main(
            [
                "gen",
                "--family",
                "hypercube-walk",
                "--n",
                "8",
                "--m",
                "5",
                "--seed",
                "1",
                "--out",
                inst_path,
            ]
        )
        assert code == 0
        code = main(["solve", "--inst", inst_path, "--algo", "steepest", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["outcome"] == "success"
        assert payload["is_local_min"] is True

    def test_solve_builtin(self, capsys):
        code = main(
            [
                "solve",
                "--function",
                "l1-cone",
                "--n",
                "16",
                "--algo",
                "grid2d-quantum",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        assert "outcome=success" in capsys.readouterr().out

    def test_builtin_cone_is_bench_smooth_l1(self, monkeypatch, capsys):
        # the CLI's l1-cone and a bench smooth-l1 cell with the same n, d and
        # seed hand the solver the same start and the same function
        seen = []

        def capture(oracle, start):
            seen.append((oracle, start))
            return steepest_descent(oracle, start)

        monkeypatch.setattr(bench, "steepest_descent", capture)
        argv = ["solve", "--function", "l1-cone", "--n", "6", "--d", "3", "--seed", "5"]
        assert main(argv + ["--algo", "steepest"]) == 0
        bench.run_trial(ExperimentCell(family="smooth-l1", algo="steepest", n=6, d=3), 5)
        (cli_oracle, cli_start), (bench_oracle, bench_start) = seen
        assert cli_start == bench_start
        assert cli_oracle.shape == bench_oracle.shape
        assert [cli_oracle.peek(v) for v in cli_oracle.shape.iter_vertices()] == [
            bench_oracle.peek(v) for v in bench_oracle.shape.iter_vertices()
        ]

    def test_builtin_without_n_exits_2(self, capsys):
        assert main(["solve", "--function", "l1-cone", "--algo", "steepest"]) == 2
        assert "builtin functions need --n" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["bench", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_instance_exits_2(self, tmp_path, capsys, name):
        # a nonexistent file and a directory both fail to open
        path = str(tmp_path / name)
        assert main(["solve", "--inst", path, "--algo", "steepest"]) == 2
        assert "cannot read instance" in capsys.readouterr().err

    def test_bad_cell_param_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cells": [{"family": "nope", "algo": "steepest", "n": 4}]}))
        assert main(["bench", "--config", str(cfg)]) == 2

    def test_bench_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "rows.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("family,n,d,m_or_r,algo,mode,seed")
        assert len(text.splitlines()) == 9

    def test_stats_balls(self, capsys):
        assert main(["stats", "balls", "--m", "2", "--t-max", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "m,t,parity,probability_num,probability_den"
        assert "2,2,00,1,2" in out

    def test_stats_line(self, capsys):
        assert main(["stats", "line", "--n", "2", "--t-max", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "2,1,1,1,1,2" in out

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["stats", "balls", "--m", "40"], "2^40 parity masks"),
            (["stats", "line", "--n", "100000000"], "n^2 (t_max + 1)"),
            (["stats", "balls", "--m", "40", "--t-max", "3"], "2^40 parity masks"),
            (["stats", "balls", "--t-max", "-1"], "--t-max must be nonnegative"),
            (["stats", "line", "--t-max", "-1"], "--t-max must be nonnegative"),
        ],
    )
    def test_stats_over_the_table_limit_exits_2(self, capsys, argv, needle):
        # refused before the table is allocated or the CSV header printed,
        # as a usage error
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert needle in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["adversary", "--kind", "grid", "--m", "1", "--T", "20000"],
             "2^20001 walks exceed the family limit 131072"),
            (["gen", "--family", "hypercube-walk", "--n", "20000", "--m", "1"],
             "trajectory of 2^20000 points exceeds 2097152"),
        ],
        ids=["adversary", "gen"],
    )
    def test_sizes_past_4300_digits_exit_2(self, capsys, tmp_path, argv, message):
        # refused with the size stated as a power, not the interpreter's
        # int-to-str error
        if argv[0] == "gen":
            argv = argv + ["--out", str(tmp_path / "refused.json")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "refused.json").exists()

    def test_adversary_command(self, capsys):
        assert (
            main(
                [
                    "adversary",
                    "--kind",
                    "hypercube",
                    "--m",
                    "2",
                    "--T",
                    "3",
                    "--scheme",
                    "quantum",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "walks=16" in out
        assert "bound value" in out
        assert "witness" in out

    def test_randomized_adversary_command_is_pinned(self, capsys):
        argv = ["adversary", "--kind", "hypercube", "--m", "2", "--T", "3", "--scheme", "randomized"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "family kind=hypercube m=2 T=3 walks=16\n"
            "relation pairs=128\n"
            "scheme randomized\n"
            "bound value = 1 (~1)\n"
            "witness pair=(0,1) position=(1, 1, 1, 2)\n"
        )

    def test_bench_without_out_writes_the_csv_to_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        assert main(["bench", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        expect = rows_to_csv(run_experiment(ExperimentConfig.from_dict(SMALL_CONFIG)))
        assert strip_runtime_column(out) == strip_runtime_column(expect)
        assert err == ""

    @pytest.mark.parametrize("algo", ["sample-descend", "quantum-sample-descend"])
    def test_wide_grid_default_sample_count_exits_2(self, capsys, algo):
        # on 2^2000 vertices the default sample count was a float square
        # root: an OverflowError traceback and exit 1
        argv = ["solve", "--function", "l1-cone", "--n", "2", "--d", "2000", "--algo", algo]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "sample count exceeds the limit" in err

    def test_solve_needs_exactly_one_of_inst_and_function(self, tmp_path, capsys):
        inst = str(tmp_path / "inst.json")
        argv = ["gen", "--family", "hypercube-walk", "--n", "6", "--m", "3", "--out", inst]
        assert main(argv) == 0
        capsys.readouterr()
        for source in ([], ["--inst", inst, "--function", "l1-cone"]):
            assert main(["solve", *source, "--n", "8", "--algo", "steepest"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "pass exactly one of --inst or --function" in err

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--family", "grid-blocks", "--n", "9", "--d", "1", "--r", "0.5"], "need d >= 2"),
            (["--family", "grid-blocks", "--n", "9", "--d", "2", "--r", "1.5"],
             "strictly between 0 and 1"),
            (["--family", "grid-blocks", "--n", "5", "--d", "2", "--r", "0.9"],
             "degenerate block grid: beta=1"),
            (["--family", "grid-blocks", "--n", "4", "--d", "2", "--r", "0.5"],
             "no in-block clock room"),
            (["--family", "grid-walk", "--n", "1", "--d", "2", "--m", "1"],
             "side length must be >= 2, got n=1"),
        ],
        ids=["blocks-d1", "blocks-r1.5", "blocks-beta1", "blocks-no-clock-room", "grid-n1"],
    )
    def test_gen_sizes_no_instance_has_exit_2(self, tmp_path, capsys, argv, needle):
        out = tmp_path / "inst.json"
        assert main(["gen", *argv, "--out", str(out)]) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()

    def test_gen_missing_param_exits_2(self, tmp_path):
        code = main(
            [
                "gen",
                "--family",
                "grid-walk",
                "--n",
                "4",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("kind", ["grid", "hypercube"])
    def test_adversary_without_walk_dimensions_exits_2(self, capsys, kind):
        assert main(["adversary", "--kind", kind, "--m", "0", "--T", "3"]) == 2
        assert "m >= 1" in capsys.readouterr().err

    def test_adversary_single_walk_family_exits_2(self, capsys):
        # m=1 has one walk and no pair; it was a ZeroDivisionError traceback
        assert main(["adversary", "--kind", "hypercube", "--m", "1", "--T", "1"]) == 2
        assert "empty relation" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["randomized", "quantum"])
    def test_refused_adversary_family_prints_nothing(self, capsys, scheme):
        argv = ["adversary", "--kind", "hypercube", "--m", "1", "--T", "3", "--scheme", scheme]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "empty relation" in err

    def test_adversary_side_on_hypercube_exits_2(self, capsys):
        argv = ["adversary", "--kind", "hypercube", "--m", "2", "--T", "3", "--side", "5"]
        assert main(argv) == 2
        assert "side applies to grid families only" in capsys.readouterr().err

    def test_gen_into_missing_directory_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "inst.json")
        argv = ["gen", "--family", "hypercube-walk", "--n", "6", "--m", "3", "--out", out]
        assert main(argv) == 2
        assert "cannot write instance" in capsys.readouterr().err

    def test_bench_into_missing_directory_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        out = str(tmp_path / "missing" / "rows.csv")
        assert main(["bench", "--config", str(cfg), "--out", out]) == 2
        assert "cannot write CSV" in capsys.readouterr().err

    def test_sample_descend_defaults_its_sample_count(self, capsys):
        # without --samples, solve draws bench's min(|V|, ceil(sqrt(2 l |V|)))
        argv = ["solve", "--function", "l1-cone", "--n", "8", "--algo", "sample-descend"]
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cell = ExperimentCell(family="smooth-l1", algo="sample-descend", n=8)
        result = bench.run_trial(cell, 0)
        assert payload["classical_queries"] == result.classical_queries
        assert payload["found"] == list(result.found)

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (CONE + ["--algo", "quantum-sample-descend", "--mode", "faithful"],
             "quantum-sample-descend takes no"),
            (CONE + ["--algo", "steepest", "--mode", "faithful"], "steepest takes no mode"),
            (CONE + ["--algo", "grid2d-quantum", "--samples", "4"], "grid2d-quantum takes no"),
            (["gen", "--family", "hypercube-walk", "--n", "6", "--m", "3", "--d", "9"],
             "hypercube-walk takes no d"),
            (["gen", "--family", "grid-blocks", "--n", "9", "--d", "2", "--r", "0.5", "--m", "4"],
             "grid-blocks takes no m"),
        ],
    )
    def test_untaken_settings_exit_2(self, tmp_path, capsys, argv, needle):
        # a setting that the algorithm or family does not take is refused, not
        # dropped, before anything is written
        out = tmp_path / "inst.json"
        if argv[0] == "gen":
            argv = argv + ["--out", str(out)]
        else:
            argv = ["solve"] + argv
        assert main(argv) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()

    def test_instance_with_builtin_sizes_exits_2(self, tmp_path, capsys):
        inst = str(tmp_path / "inst.json")
        argv = ["gen", "--family", "hypercube-walk", "--n", "6", "--m", "3", "--out", inst]
        assert main(argv) == 0
        for flag in ("--n", "--d"):
            assert main(["solve", "--inst", inst, flag, "5", "--algo", "steepest"]) == 2
            assert f"an instance file takes no {flag[2:]}" in capsys.readouterr().err

    def test_builtin_zero_dimensions_exits_2(self, capsys):
        argv = ["solve", "--function", "l1-cone", "--n", "8", "--d", "0", "--algo", "steepest"]
        assert main(argv) == 2
        assert "axis count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "hypercube-walk", "--n", "6", "--m", "3", "--seed", "-5"],
            ["solve"] + CONE + ["--algo", "grid2d-quantum", "--seed", "-1"],
        ],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        # random.Random(-5) seeds as Random(5): `gen --seed -5` wrote the
        # instance of `--seed 5`
        out = tmp_path / "inst.json"
        if argv[0] == "gen":
            argv = argv + ["--out", str(out)]
        assert main(argv) == 2
        assert "--seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


# Malformed configs found by running `lslab bench` on them: each used to end
# in a traceback (or, for `"trials": true`, to run one trial, and for a
# negative `seed_start`, to repeat the trials of the seeds' absolute values).
BAD_CONFIGS = {
    "string n": {"cells": [{"family": "smooth-l1", "algo": "steepest", "n": "8"}]},
    "string trials": {
        "cells": [{"family": "smooth-l1", "algo": "steepest", "n": 8, "trials": "3"}]
    },
    "top-level list": [{"family": "smooth-l1", "algo": "steepest", "n": 8}],
    "boolean trials": {
        "cells": [{"family": "smooth-l1", "algo": "steepest", "n": 8, "trials": True}]
    },
    "negative seed_start": {
        "cells": [{"family": "grid-walk", "algo": "grid2d-quantum", "n": 32, "d": 2, "m": 1,
                   "seed_start": -3, "trials": 7}]
    },
    "missing m in the last cell": {
        "cells": SMALL_CONFIG["cells"]
        + [{"family": "grid-walk", "algo": "steepest", "n": 4, "d": 2}]
    },
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_malformed_config_exits_2_before_any_trial(tmp_path, monkeypatch, capsys, name):
    def no_trial(cell, seed):
        raise AssertionError("a trial ran before the config was rejected")

    monkeypatch.setattr(bench, "run_trial", no_trial)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(BAD_CONFIGS[name])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BAD_CONFIGS[name]))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# `lslab solve --json` payloads, phase_breakdown key order included: the query
# counts are the lab's cited outputs, so any change to how results or quantum
# charges are built must leave them byte for byte.  The faithful seed 17 run
# fails a round and exits 1.
GRID_WALK_INSTANCE = ["--family", "grid-walk", "--n", "16", "--d", "2", "--m", "1", "--seed", "2"]
PINNED_SOLVES = {
    "steepest": (
        CONE + ["--algo", "steepest", "--seed", "5"],
        0,
        '{"found": [7, 6], "outcome": "success", "is_local_min": true, "rounds": 4, '
        '"classical_queries": 16, "charged_quantum_queries": 0, '
        '"phase_breakdown": {"descent": [16, 0]}}',
    ),
    "sample-descend": (
        CONE + ["--algo", "sample-descend", "--seed", "7"],
        0,
        '{"found": [11, 7], "outcome": "success", "is_local_min": true, "rounds": 0, '
        '"classical_queries": 26, "charged_quantum_queries": 0, '
        '"phase_breakdown": {"sample": [23, 0], "descent": [3, 0]}}',
    ),
    "sample-descend-quantum": (
        CONE + ["--algo", "quantum-sample-descend", "--seed", "7"],
        0,
        '{"found": [11, 7], "outcome": "success", "is_local_min": true, "rounds": 0, '
        '"classical_queries": 4, "charged_quantum_queries": 10, '
        '"phase_breakdown": {"sample": [0, 10], "descent": [4, 0]}}',
    ),
    "grid2d-exact": (
        ["--function", "l1-cone", "--n", "32", "--algo", "grid2d-quantum", "--seed", "3"],
        0,
        '{"found": [25, 16], "outcome": "success", "is_local_min": true, "rounds": 3, '
        '"classical_queries": 5, "charged_quantum_queries": 550, '
        '"phase_breakdown": {"sample-min": [0, 414], "sphere-test": [0, 136], '
        '"descent": [5, 0]}}',
    ),
    "grid2d-faithful": (
        ["--algo", "grid2d-quantum", "--mode", "faithful", "--seed", "1"],
        0,
        '{"found": [8, 16], "outcome": "success", "is_local_min": true, "rounds": 4, '
        '"classical_queries": 4, "charged_quantum_queries": 433, '
        '"phase_breakdown": {"sample-min": [0, 305], "sphere-test": [0, 128], '
        '"descent": [4, 0]}}',
    ),
    "grid2d-faithful-fail": (
        ["--algo", "grid2d-quantum", "--mode", "faithful", "--seed", "17"],
        1,
        '{"found": [3, 16], "outcome": "fail", "is_local_min": false, "rounds": 0, '
        '"classical_queries": 0, "charged_quantum_queries": 226, '
        '"phase_breakdown": {"sample-min": [0, 90], "sphere-test": [0, 136]}}',
    ),
}


@pytest.mark.parametrize("name", list(PINNED_SOLVES))
def test_solve_json_accounting_is_pinned(tmp_path, capsys, name):
    argv, code, expected = PINNED_SOLVES[name]
    if "--function" not in argv:  # the faithful runs use one grid-walk instance
        inst = str(tmp_path / "inst.json")
        assert main(["gen", *GRID_WALK_INSTANCE, "--out", inst]) == 0
        argv = ["--inst", inst, *argv]
        capsys.readouterr()
    assert main(["solve", *argv, "--json"]) == code
    assert capsys.readouterr().out == expected + "\n"
