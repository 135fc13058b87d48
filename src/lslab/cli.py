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
from dataclasses import asdict, replace

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
from .bench import ALGORITHMS, MODES, SMOOTH, ExperimentConfig, instance_oracle, make_oracle
from .bench import rows_to_csv, run_experiment, solve
from .errors import ConfigError, InstanceFormatError
from .instances import FAMILIES, family_params, load_instance, refuse_untaken, save_instance
from .walkstats import line_walk_table, parity_prob_table


def _cmd_gen(args) -> int:
    family, params = family_params(args.family, vars(args), ConfigError)
    inst = family.generate(*params, args.seed)
    save_instance(inst, args.out)
    print(f"wrote {args.family} instance ({len(inst.trajectory)} points) to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    if (args.inst is None) == (args.function is None):
        raise ConfigError("pass exactly one of --inst or --function")
    if args.inst is not None:
        refuse_untaken("an instance file", (), vars(args), ConfigError)  # --n, --d
        oracle, start = instance_oracle(load_instance(args.inst))
    else:
        # l1-cone, the one --function choice, is bench's smooth-l1 function:
        # same n, d and seed, same oracle
        if args.n is None:
            raise ConfigError("builtin functions need --n")
        _, make = make_oracle(SMOOTH, vars(args))
        oracle, start = make(args.seed)

    result = solve(oracle, start, args.algo, args.seed, args.mode, args.samples)
    if args.json:
        # grid2d's round records stay out of the payload
        payload = asdict(replace(result, trace=None))
        del payload["trace"]
        payload["found"] = list(result.found)
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
    if args.t_max < 0:
        raise ConfigError(f"--t-max must be nonnegative, got {args.t_max}")
    if args.table == "balls":
        table = parity_prob_table(args.m, 0)  # refuses an oversized m before any output
        print("m,t,parity,probability_num,probability_den")
        for t in range(args.t_max + 1):
            if t:
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
    # evaluated before any output, so a refused family prints nothing
    if scheme_kind == RANDOMIZED:
        bound = relational_adversary_value(scheme)
        shown = f"{bound.value} (~{float(bound.value):.6g})"
    else:
        bound = quantum_adversary_value(scheme)
        shown = str(bound)
    print(f"family kind={args.kind} m={args.m} T={args.T} walks={len(family)}")
    print(f"relation pairs={len(relation)}")
    print(f"scheme {scheme_kind}")
    print(f"bound value = {shown}")
    w = bound.witness
    print(f"witness pair=({w.x_index},{w.y_index}) position={w.position}")
    return 0


def _cmd_bench(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    rows = run_experiment(config)
    csv_text = rows_to_csv(rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        except OSError as exc:
            raise ConfigError(f"cannot write CSV: {exc}") from exc
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
    p.add_argument("--family", required=True, choices=list(FAMILIES))
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
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int)
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
        # gen and solve: random.Random(-s) seeds as Random(s), so -s would repeat s's run
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        return args.fn(args)
    except (ConfigError, InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
