"""Command-line front end.

Subcommands: gen (write an instance file), solve (run one solver), stats
(exact probability tables as CSV), adversary (bound values on enumerated
families), bench (experiment sweeps to CSV).  Exit codes: 0 on success, 1
when a solver reports failure, 2 for invalid configuration or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .adversary import (
    GRID_KIND,
    HYPERCUBE_KIND,
    QUANTUM_GRID,
    QUANTUM_HYPERCUBE,
    RANDOMIZED,
    build_scheme,
    endpoint_relation,
    enumerate_paths,
    quantum_adversary_value,
    relational_adversary_value,
)
from .bench import ExperimentConfig, _smooth_oracle, rows_to_csv, run_experiment
from .errors import ConfigError, InstanceFormatError
from .instances import (
    BLOCKS,
    GRID,
    HYPERCUBE,
    gen_block_instance,
    gen_grid_instance,
    gen_hypercube_instance,
    load_instance,
    save_instance,
)
from .oracles import ValueOracle
from .solvers import grid2d_quantum, sample_then_descend, steepest_descent
from .walkstats import line_walk_table, parity_prob_table


def _cmd_gen(args) -> int:
    if args.family == HYPERCUBE:
        if args.m is None:
            raise ConfigError("hypercube-walk needs --m")
        inst = gen_hypercube_instance(args.n, args.m, args.seed)
    elif args.family == GRID:
        if args.d is None or args.m is None:
            raise ConfigError("grid-walk needs --d and --m")
        inst = gen_grid_instance(args.n, args.d, args.m, args.seed)
    elif args.family == BLOCKS:
        if args.d is None or args.r is None:
            raise ConfigError("grid-blocks needs --d and --r")
        inst = gen_block_instance(args.n, args.d, args.r, args.seed)
    else:
        raise ConfigError(f"unknown family {args.family!r}")
    save_instance(inst, args.out)
    print(f"wrote {args.family} instance ({len(inst.trajectory)} points) to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    if (args.inst is None) == (args.function is None):
        raise ConfigError("pass exactly one of --inst or --function")
    if args.inst is not None:
        inst = load_instance(args.inst)
        oracle = ValueOracle.for_instance(inst)
        start = inst.start
    else:
        # l1-cone is bench's smooth-l1 function: same n, d and seed, same oracle
        if args.function != "l1-cone":
            raise ConfigError(f"unknown builtin function {args.function!r}")
        if args.n is None:
            raise ConfigError("builtin functions need --n")
        oracle, start = _smooth_oracle(args.n, args.d if args.d else 2, args.seed)

    if args.algo == "steepest":
        result = steepest_descent(oracle, start)
    elif args.algo == "sample-descend":
        samples = args.samples
        if samples is None:
            raise ConfigError("sample-descend needs --samples")
        charging = "quantum" if args.quantum_charging else "classical"
        result = sample_then_descend(oracle, samples, args.seed, charging=charging)
    elif args.algo == "grid2d-quantum":
        result = grid2d_quantum(oracle, args.seed, mode=args.mode)
    else:
        raise ConfigError(f"unknown algo {args.algo!r}")

    if args.json:
        payload = asdict(result)
        payload["found"] = list(result.found)
        payload.pop("trace")
        print(json.dumps(payload))
    else:
        print(
            f"outcome={result.outcome} found={result.found} "
            f"local_min={result.is_local_min} rounds={result.rounds} "
            f"classical={result.classical_queries} "
            f"quantum={result.charged_quantum_queries}"
        )
    return 0 if result.outcome == "success" else 1


def _cmd_stats(args) -> int:
    if args.table == "balls":
        print("m,t,parity,probability_num,probability_den")
        for t in range(args.t_max + 1):
            table = parity_prob_table(args.m, t)
            for bits in sorted(table):
                p = table[bits]
                parity = "".join(str(b) for b in bits)
                print(f"{args.m},{t},{parity},{p.numerator},{p.denominator}")
    else:
        table = line_walk_table(args.n, args.t_max)
        print("n,t,i,j,p_num,p_den")
        for t in range(args.t_max + 1):
            for i in range(1, args.n + 1):
                for j in range(1, args.n + 1):
                    p = table.prob(t, i, j)
                    print(f"{args.n},{t},{i},{j},{p.numerator},{p.denominator}")
    return 0


def _cmd_adversary(args) -> int:
    kind = HYPERCUBE_KIND if args.kind == "hypercube" else GRID_KIND
    family = enumerate_paths(kind, args.m, args.T, side=args.side)
    relation = endpoint_relation(family)
    if args.scheme == "randomized":
        scheme_kind = RANDOMIZED
    else:
        scheme_kind = QUANTUM_HYPERCUBE if kind == HYPERCUBE_KIND else QUANTUM_GRID
    scheme = build_scheme(scheme_kind, family, relation)
    print(f"family kind={args.kind} m={args.m} T={args.T} walks={len(family)}")
    print(f"relation pairs={len(relation)}")
    print(f"scheme {scheme_kind}")
    if scheme_kind == RANDOMIZED:
        bound = relational_adversary_value(scheme)
        value = bound.value
        print(f"bound value = {value} (~{float(value):.6g})")
    else:
        bound = quantum_adversary_value(scheme)
        print(f"bound value = {bound}")
    w = bound.witness
    print(f"witness pair=({w.x_index},{w.y_index}) position={w.position}")
    return 0


def _cmd_bench(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    rows = run_experiment(config)
    csv_text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lslab",
        description="local-search query-complexity laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", required=True, choices=[HYPERCUBE, GRID, BLOCKS])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("solve", help="run a solver on an instance or builtin")
    p.add_argument("--inst")
    p.add_argument("--function", choices=["l1-cone"])
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument(
        "--algo",
        required=True,
        choices=["steepest", "sample-descend", "grid2d-quantum"],
    )
    p.add_argument("--mode", choices=["exact", "faithful"], default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int)
    p.add_argument("--quantum-charging", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("stats", help="print exact probability tables as CSV")
    p.add_argument("table", choices=["balls", "line"])
    p.add_argument("--m", type=int, default=3, help="bins (balls table)")
    p.add_argument("--n", type=int, default=4, help="line points (line table)")
    p.add_argument("--t-max", type=int, default=6)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("adversary", help="evaluate adversary bounds")
    p.add_argument("--kind", choices=["hypercube", "grid"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--side", type=int)
    p.add_argument(
        "--scheme", choices=["randomized", "quantum"], default="randomized"
    )
    p.set_defaults(fn=_cmd_adversary)

    p = sub.add_parser("bench", help="run an experiment sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
