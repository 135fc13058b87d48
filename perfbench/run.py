"""lslab benchmark: one workload per run, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # sweep, verify, exact in turn

Run from the root of a checkout; lslab is imported from its `src/` and never
from an installed copy.  With `--trace 0` the run repeats the workload's
passes for `--seconds` (pass 0 always completes) and reports the end-to-end
metrics of BENCHMARK.json.  With `--trace 1` it runs pass 0 untraced and then
traced, and reports the per-layer metrics.  Every op's output is checked;
ops whose label is pinned in pins.json must reproduce the pinned digest.  The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record (run header, per-kind timings, and in the traced run the spans
and the call table) goes to perfbench/out/.  The exit code is 0 only when
every op passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from math import exp, log

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# (name, unit, better); BENCHMARK.json lists the same metrics with their bounds
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
)

# Set-up probes run between ops, one at most every seconds/SETUP_REPEATS, so
# their median spans the same slow and fast spells of the machine as the ops.
SETUP_REPEATS = 11
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.make(sys.argv[3], sys.argv[4]).pass_ops(int(sys.argv[5]), 0)
print(time.perf_counter() - t0)
"""


@dataclass
class Record:
    op: object
    ns: int
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def import_lslab():
    """Import lslab from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "lslab", "__init__.py")):
        sys.exit(f"perfbench: no lslab sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import lslab

    if os.path.dirname(os.path.dirname(os.path.abspath(lslab.__file__))) != SRC:
        sys.exit(f"perfbench: imported lslab from {lslab.__file__}, not from {SRC}")
    return lslab


def run_op(op, tracer=None) -> Record:
    t0 = time.perf_counter_ns()
    try:
        if tracer is None:
            outcome = op.run()
        else:
            with tracer.op(op.label):
                outcome = op.run()
    except Exception:  # an op that raises is a failed op; the run goes on
        rec = Record(op, time.perf_counter_ns() - t0)
        rec.problems.append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
        return rec
    rec = Record(op, time.perf_counter_ns() - t0, outcome.digest, list(outcome.problems))
    rec.counts = outcome.counts()
    return rec


def check_pins(workload, seed: int, pass_index: int, records: list[Record], pins: dict) -> None:
    """Mark ops whose pinned digest differs; at the pinned seed, also check the
    digest of the whole of pass 0."""
    pinned = pins.get("ops", {})
    for rec in records:
        want = pinned.get(rec.op.label)
        if want is not None and rec.digest != want and not rec.problems:
            rec.problems.append(f"digest {rec.digest!r} differs from pinned {want!r}")
    if pass_index == 0 and seed == pins.get("seed") and "pass_sha256" in pins:
        got = pass_digest(workload, records)
        if got is not None and got != pins["pass_sha256"]:
            for rec in records:
                rec.problems.append(f"pass digest {got} differs from pinned {pins['pass_sha256']}")


def pass_digest(workload, records: list[Record]) -> str | None:
    """The digest of a whole pass; None when an op already failed."""
    if any(rec.problems for rec in records):
        return None
    return workload.pass_digest(records)


def setup_seconds(name: str, size: str, seed: int, repeats: int) -> list[float]:
    """Import lslab and build the workload's first pass in fresh interpreters."""
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, BENCH_DIR, SRC, name, size, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def geomean(values) -> float:
    values = list(values)
    return exp(sum(log(v) for v in values) / len(values))


def latencies_by_kind(records: list[Record]) -> dict[str, list[float]]:
    by_kind: dict[str, list[float]] = {}
    for rec in records:
        by_kind.setdefault(rec.op.kind, []).append(rec.ns / 1e6)
    return by_kind


def end_to_end(workloads, records: list[Record], setup: list[float]) -> dict[str, float]:
    """Per-kind statistics combined over kinds, so the mix of kinds a run
    happens to finish does not move them."""
    by_kind = latencies_by_kind(records)
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": 1000 * len(by_kind) / sum(statistics.fmean(v) for v in by_kind.values()),
        "op_p50_ms": geomean(workloads.quantile(v, 0.5) for v in by_kind.values()),
        "op_p90_ms": geomean(workloads.quantile(v, 0.9) for v in by_kind.values()),
    }


def header(lslab, workloads, name: str, size: str, seed: int, trace: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "lslab_version": lslab.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "git_commit": git_commit(),
        "workload": name,
        "size": size,
        "seed": seed,
        "trace": trace,
        "inputs_sha256": {
            w: workloads.definition_sha256(workloads.make(w, size)) for w in workloads.WORKLOADS
        },
    }


def git_commit() -> str | None:
    """The commit of the measured tree, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run(name: str, seed: int, seconds: float, trace: int, size: str = "full",
        pins: dict | None = None) -> dict:
    """Run one workload; returns the result line plus the full record."""
    lslab = import_lslab()
    import workloads

    if pins is None:
        with open(PINS_PATH, encoding="utf-8") as fh:
            pins = json.load(fh)
    wl_pins = pins.get(name, {}).get(size, {})
    workload = workloads.make(name, size)
    record = {"header": header(lslab, workloads, name, size, seed, trace)}

    if not trace:
        setup: list[float] = []
        records: list[Record] = []
        start = time.perf_counter()
        next_probe = 0.0
        pass_index = 0
        while pass_index == 0 or time.perf_counter() - start < seconds:
            done = []
            for op in workload.pass_ops(seed, pass_index):
                done.append(run_op(op))
                elapsed = time.perf_counter() - start
                if elapsed >= next_probe and len(setup) < SETUP_REPEATS:
                    setup += setup_seconds(name, size, seed, 1)
                    next_probe = elapsed + seconds / SETUP_REPEATS
                # later passes may stop between ops: the metrics are per kind
                if pass_index and elapsed >= seconds:
                    break
            check_pins(workload, seed, pass_index, done, wl_pins)
            records += done
            pass_index += 1
        setup += setup_seconds(name, size, seed, SETUP_REPEATS - len(setup))
        metrics = end_to_end(workloads, records, setup)
        units = {n: u for n, u, _ in END_TO_END}
        figures = [(n, v, units[n], len(setup) if n == "setup_s" else len(records))
                   for n, v in metrics.items()]
        figures += workload.figures(records)
        record["passes"] = pass_index
        record["setup_samples_s"] = setup
    else:
        import tracing

        untraced = [run_op(op) for op in workload.pass_ops(seed, 0)]
        wall_untraced = sum(r.ns for r in untraced)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = [run_op(op, tracer) for op in workload.pass_ops(seed, 0)]
            digests = [pass_digest(workload, recs) for recs in (untraced, traced)]
        finally:
            tracer.remove()
        wall_traced = sum(r.ns for r in traced)
        for a, b in zip(untraced, traced):
            if a.digest != b.digest and not b.problems:
                b.problems.append(f"traced digest {b.digest!r} differs from untraced {a.digest!r}")
        if digests[0] != digests[1]:
            for rec in traced:
                rec.problems.append(f"traced pass digest {digests[1]} differs from {digests[0]}")
        check_pins(workload, seed, 0, untraced, wl_pins)
        check_pins(workload, seed, 0, traced, wl_pins)
        records = untraced + traced
        counts: dict[str, int] = {}
        for rec in traced:
            for key, value in rec.counts.items():
                if isinstance(value, int):
                    counts[key] = counts.get(key, 0) + value
        metrics = tracing.layer_metrics(tracer, counts, wall_traced / wall_untraced - 1)
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        figures = [(n, v, units[n], len(traced)) for n, v in metrics.items()]
        record["spans"] = [tracer.run_span()] + tracer.spans
        record["calls"] = tracer.dump()

    failed = sum(1 for r in records if r.problems)
    for rec in records:
        for problem in rec.problems:
            print(f"FAILED {rec.op.label}: {problem}", file=sys.stderr)
    figures.append(("error_frac", failed / len(records), "ratio", len(records)))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    record["figures"] = [{"name": n, "value": v, "unit": u, "samples": k} for n, v, u, k in figures]
    record["kinds"] = kind_summary(workloads, records)
    record["result"] = result
    return record


def kind_summary(workloads, records: list[Record]) -> dict:
    return {
        kind: {"ops": len(v), "p50_ms": workloads.quantile(v, 0.5),
               "p90_ms": workloads.quantile(v, 0.9)}
        for kind, v in latencies_by_kind(records).items()
    }


def write_record(record: dict) -> str:
    h = record["header"]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{h['workload']}-seed{h['seed']}-trace{h['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return path


def run_all(args) -> int:
    """Each workload in its own interpreter, so set-up and memory stay apart."""
    status = 0
    results = {}
    for name in ("sweep", "verify", "exact"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "verify", "exact", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record = run(args.workload, args.seed, args.seconds, args.trace)
    path = write_record(record)
    h = record["header"]
    print(f"# lslab {h['lslab_version']} python {h['python']} nproc {h['nproc']} "
          f"cpu {h['cpu_model']!r} commit {h['git_commit']}")
    print(f"# workload {h['workload']} seed {h['seed']} trace {h['trace']} "
          f"inputs sha256 {h['inputs_sha256'][h['workload']]}")
    for fig in record["figures"]:
        print(f"{fig['name']:<40} {fig['value']:>16.6g} {fig['unit']:<6} n={fig['samples']}")
    print(f"# record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
