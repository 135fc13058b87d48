"""Write pins.json: the digests of pass 0 of every workload at the default seed.

    python3 perfbench/record_pins.py

Run it only when a change of behaviour is intended and explained; the
benchmark fails any op whose pinned digest it no longer reproduces.
"""

import json
import sys

import run

run.import_lslab()
import workloads  # noqa: E402  (needs lslab on the path)


def main() -> int:
    pins = {}
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES:
            workload = workloads.make(name, size)
            records = [run.run_op(op) for op in workload.pass_ops(workloads.DEFAULT_SEED, 0)]
            bad = [r for r in records if r.problems]
            if bad:
                print(f"{name}/{size}: {bad[0].op.label}: {bad[0].problems}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[size] = {
                "seed": workloads.DEFAULT_SEED,
                "pass_sha256": workload.pass_digest(records),
                "ops": {r.op.label: r.digest for r in records},
            }
            print(f"{name}/{size}: {len(records)} ops pinned")
    with open(run.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
