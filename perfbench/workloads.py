"""The benchmark's three workloads: sweep, verify and exact.

A workload is an endless schedule of passes.  Pass p is a list of ops built
from the workload seed and p alone, so the same seed always gives the same
inputs.  An op calls the public lslab API, checks its output, and returns a
digest: a string fixed by the op's inputs, which pins its behaviour.

Every op has a kind.  Ops of one kind do comparable work (one bench cell, one
instance parameter set, one bound computation), and the end-to-end latency
metrics are taken per kind so that the mix of kinds in a run does not move
them.  See DESIGN.md for why each workload exists and what it is meant to
catch.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable

from lslab import adversary, bench, instances, oracles, walkstats

DEFAULT_SEED = 0
SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Outcome:
    """What an op produced: its digest, the checks it failed and the counts
    the traced run reports.  ``counts`` is called outside the op's timing."""

    digest: str
    problems: tuple[str, ...] = ()
    counts: Callable[[], dict] = dict


@dataclass(frozen=True)
class Op:
    kind: str  # ops of one kind do comparable work
    group: str  # which reported end-to-end figure the op counts towards
    label: str  # names the op's inputs; equal labels give equal digests
    run: Callable[[], Outcome] = field(compare=False)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # string seeding hashes with sha512, so it does not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{pass_index}")


# ---------------------------------------------------------------------------
# sweep: what `lslab bench` users run
# ---------------------------------------------------------------------------

SWEEP_CELLS = {
    "full": (
        {"family": "smooth-l1", "algo": "grid2d-quantum", "n": 256},
        {"family": "smooth-l1", "algo": "grid2d-quantum", "n": 1024},
        {"family": "grid-walk", "algo": "grid2d-quantum", "n": 256, "d": 2, "m": 1,
         "mode": "faithful"},
        {"family": "grid-walk", "algo": "grid2d-quantum", "n": 1024, "d": 2, "m": 1},
        {"family": "hypercube-walk", "algo": "steepest", "n": 14, "m": 8},
        {"family": "hypercube-walk", "algo": "steepest", "n": 20, "m": 12},
        {"family": "grid-walk", "algo": "steepest", "n": 32, "d": 3, "m": 1},
        {"family": "grid-blocks", "algo": "steepest", "n": 64, "d": 2, "r": 0.6667},
        {"family": "hypercube-walk", "algo": "sample-descend", "n": 16, "m": 9},
    ),
    "smoke": (
        {"family": "smooth-l1", "algo": "grid2d-quantum", "n": 32},
        {"family": "grid-walk", "algo": "grid2d-quantum", "n": 32, "d": 2, "m": 1,
         "mode": "faithful"},
        {"family": "hypercube-walk", "algo": "steepest", "n": 8, "m": 5},
        {"family": "grid-walk", "algo": "steepest", "n": 6, "d": 3, "m": 1},
        {"family": "grid-blocks", "algo": "steepest", "n": 9, "d": 2, "r": 0.5},
        {"family": "hypercube-walk", "algo": "sample-descend", "n": 8, "m": 5},
    ),
}

_RUNTIME = bench.CSV_COLUMNS.index("runtime_ms")


def _stripped_row(row) -> str:
    fields = row.csv_fields()
    del fields[_RUNTIME]
    return ",".join(fields)


class Sweep:
    """Each op is one bench trial, run through `bench.run_experiment`."""

    name = "sweep"

    def __init__(self, size: str) -> None:
        self.definition = SWEEP_CELLS[size]
        self.cells = tuple(bench.ExperimentCell.from_dict(c) for c in self.definition)
        self.kinds = tuple(" ".join(f"{k}={v}" for k, v in c.items()) for c in self.definition)

    def pass_ops(self, seed: int, pass_index: int) -> list[Op]:
        rng = _pass_rng(self.name, seed, pass_index)
        ops = []
        for kind, cell in zip(self.kinds, self.cells):
            trial = replace(cell, seed_start=rng.randrange(1 << 31), trials=1)
            group = "grid2d" if cell.algo == "grid2d-quantum" else "descent"
            ops.append(Op(kind, group, f"{kind} seed={trial.seed_start}",
                          lambda trial=trial: self._trial(trial)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _trial(cell) -> Outcome:
        (row,) = bench.run_experiment(bench.ExperimentConfig(cells=(cell,)))
        problems = []
        if row.outcome == "success" and not row.is_local_min:
            problems.append("success row without a verified local minimum")
        if row.outcome == "fail" and cell.algo != "grid2d-quantum":
            problems.append(f"{cell.algo} reported failure")
        if row.outcome not in ("success", "fail"):
            problems.append(f"unknown outcome {row.outcome!r}")
        return Outcome(
            digest=_stripped_row(row),
            problems=tuple(problems),
            counts=lambda: {
                "classical_queries": row.classical_queries,
                "charged_quantum_queries": row.charged_quantum_queries,
                "row": row,
            },
        )

    def pass_digest(self, records) -> str:
        """sha256 of the pass's runtime-stripped CSV, as lslab.bench writes it."""
        # rows in cell order, as bench.run_experiment emits them
        rows = [r.counts["row"] for r in sorted(records, key=lambda r: self.kinds.index(r.op.kind))]
        return sha256_text(bench.strip_runtime_column(bench.rows_to_csv(rows)))

    @staticmethod
    def figures(records) -> list[tuple[str, float, str, int]]:
        out = []
        for group in ("descent", "grid2d"):
            ns = [r.ns for r in records if r.op.group == group]
            out.append((f"{group}_trials_per_s", len(ns) / (sum(ns) / 1e9), "1/s", len(ns)))
        ms = [r.ns / 1e6 for r in records]
        out.append(("trial_p50_ms", quantile(ms, 0.5), "ms", len(ms)))
        out.append(("trial_p90_ms", quantile(ms, 0.9), "ms", len(ms)))
        return out


# ---------------------------------------------------------------------------
# verify: exhaustive read traffic on instances, oracles and grid
# ---------------------------------------------------------------------------

_BLOCK_PARAMS = ((8, 1 / 3), (9, 1 / 3), (9, 0.5), (12, 0.5), (16, 0.5), (16, 0.4))


def _verify_params(size: str) -> list[tuple[str, dict]]:
    """The acceptance-criterion-5 parameter grid (full) or a tiny corner of it."""
    full = size == "full"
    params = []
    for n in range(4, 13 if full else 7):
        for m in range(1, n):
            params.append((instances.HYPERCUBE, {"n": n, "m": m}))
    for n in range(4, 9 if full else 5):
        for d in (2, 3):
            for m in range(1, d):
                params.append((instances.GRID, {"n": n, "d": d, "m": m}))
    for n, r in _BLOCK_PARAMS if full else _BLOCK_PARAMS[2:3]:
        params.append((instances.BLOCKS, {"n": n, "d": 2, "r": r}))
    return params


_GENERATORS = {
    instances.HYPERCUBE: lambda p, seed: instances.gen_hypercube_instance(p["n"], p["m"], seed),
    instances.GRID: lambda p, seed: instances.gen_grid_instance(p["n"], p["d"], p["m"], seed),
    instances.BLOCKS: lambda p, seed: instances.gen_block_instance(p["n"], p["d"], p["r"], seed),
}

VERIFY_SEEDS_PER_PASS = 2


class Verify:
    """Each op generates one instance, round-trips it through the instance
    dict format in memory, verifies it exhaustively, and recovers every
    vertex's value from membership queries."""

    name = "verify"

    def __init__(self, size: str) -> None:
        self.params = _verify_params(size)
        self.definition = {
            "params": [[family, p] for family, p in self.params],
            "seeds_per_pass": VERIFY_SEEDS_PER_PASS,
        }

    def pass_ops(self, seed: int, pass_index: int) -> list[Op]:
        rng = _pass_rng(self.name, seed, pass_index)
        ops = []
        for family, p in self.params:
            kind = f"{family} " + " ".join(f"{k}={v:.4g}" for k, v in p.items())
            for _ in range(VERIFY_SEEDS_PER_PASS):
                inst_seed = rng.randrange(1 << 31)
                ops.append(Op(kind, "instance", f"{kind} seed={inst_seed}",
                              lambda family=family, p=p, s=inst_seed, kind=kind:
                              self._instance(family, p, s, kind)))
        # shuffled, so each kind's samples spread over the run's machine noise
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _instance(family: str, params: dict, seed: int, kind: str) -> Outcome:
        made = _GENERATORS[family](params, seed)
        inst = instances.instance_from_dict(instances.instance_to_dict(made))
        report = instances.verify_instance(inst)
        meta = instances.clock_metadata(inst)
        membership = oracles.MembershipOracle(inst)
        ledger = membership.ledger
        wrong = over_budget = 0
        before = 0
        for v in inst.shape.iter_vertices():
            value = oracles.simulate_value_via_membership(meta, membership, v)
            if value != instances.instance_value(inst, v):
                wrong += 1
            after = ledger.classical_queries
            if after - before > 2:
                over_budget += 1
            before = after
        problems = []
        if inst.trajectory != made.trajectory:
            problems.append("round trip changed the trajectory")
        if not report.ok:
            problems.append(f"verification failed: {report}")
        if wrong:
            problems.append(f"{wrong} simulated values differ from instance_value")
        if over_budget:
            problems.append(f"{over_budget} vertices needed more than 2 membership probes")
        digest = (
            f"{kind} seed={seed} self_avoiding={report.self_avoiding} "
            f"unique_local_min={report.unique_local_min} "
            f"membership_consistent={report.membership_consistent} "
            f"local_min_count={report.local_min_count} minimum={report.minimum} "
            f"probes={ledger.classical_queries}"
        )
        return Outcome(digest, tuple(problems),
                       lambda: {"vertices": inst.shape.vertex_count})

    @staticmethod
    def pass_digest(records) -> str:
        return sha256_text("\n".join(sorted(r.digest for r in records)))

    @staticmethod
    def figures(records) -> list[tuple[str, float, str, int]]:
        vertices = sum(r.counts.get("vertices", 0) for r in records)
        seconds = sum(r.ns for r in records) / 1e9
        ms = [r.ns / 1e6 for r in records]
        return [
            ("vertices_per_s", vertices / seconds, "1/s", vertices),
            ("instance_p50_ms", quantile(ms, 0.5), "ms", len(ms)),
            ("instance_p90_ms", quantile(ms, 0.9), "ms", len(ms)),
        ]


# ---------------------------------------------------------------------------
# exact: Fraction-only computations
# ---------------------------------------------------------------------------

EXACT_FAMILIES = {
    # name: (family kind, m, T, quantum scheme)
    "full": {
        "hypercube": (adversary.HYPERCUBE_KIND, 3, 3, adversary.QUANTUM_HYPERCUBE),
        "grid": (adversary.GRID_KIND, 2, 5, adversary.QUANTUM_GRID),
    },
    "smoke": {
        "hypercube": (adversary.HYPERCUBE_KIND, 2, 3, adversary.QUANTUM_HYPERCUBE),
        "grid": (adversary.GRID_KIND, 2, 3, adversary.QUANTUM_GRID),
    },
}

WALKSTATS_SIZES = {
    # parity bins (criteria 1 and 2), closed-form bins, line-walk sizes for the
    # table check (criterion 3) and for the envelope (criterion 4)
    "full": {"parity_m": 5, "cond_m": 4, "closed_m": 12, "table_n": 6, "envelope_n": (4, 8, 16, 32)},
    "smoke": {"parity_m": 3, "cond_m": 3, "closed_m": 5, "table_n": 4, "envelope_n": (4, 8)},
}


def _witness(w) -> str:
    return f"({w.x_index},{w.y_index},{w.position})"


def _pair_counts(family, relation) -> dict:
    walks = family.walks
    positions = sum(
        len(walks[ix].point_set ^ walks[iy].point_set) for ix, iy in relation.pairs
    )
    return {"quantum_pairs": len(relation), "quantum_positions": positions}


class Exact:
    """Each op is one adversary bound (enumerate, relation, scheme, value) on
    one walk family, or the walkstats tables of acceptance criteria 1-4.
    The inputs do not depend on the seed; the seed only orders the ops."""

    name = "exact"

    def __init__(self, size: str) -> None:
        self.families = EXACT_FAMILIES[size]
        self.walk_sizes = WALKSTATS_SIZES[size]
        self.definition = {"families": self.families, "walkstats": self.walk_sizes}

    def pass_ops(self, seed: int, pass_index: int) -> list[Op]:
        ops = []
        for name, (kind, m, T, scheme) in self.families.items():
            for group in ("relational", "quantum"):
                label = f"{group}/{name} m={m} T={T}"
                ops.append(Op(label, group, label,
                              lambda g=group, k=kind, m=m, T=T, s=scheme: self._bound(g, k, m, T, s)))
        ops.append(Op("walkstats", "walkstats", "walkstats", self._walkstats))
        _pass_rng(self.name, seed, pass_index).shuffle(ops)
        return ops

    @staticmethod
    def _bound(group: str, kind: str, m: int, T: int, scheme_kind: str) -> Outcome:
        family = adversary.enumerate_paths(kind, m, T)
        relation = adversary.endpoint_relation(family)
        if group == "relational":
            scheme = adversary.build_scheme(adversary.RANDOMIZED, family, relation)
            bound = adversary.relational_adversary_value(scheme)
            ok = bound.value > 0
            digest = f"value={bound.value} witness={_witness(bound.witness)}"
            return Outcome(digest, () if ok else ("non-positive bound",))
        # quantum_adversary_value refuses a scheme that fails scheme_is_valid
        scheme = adversary.build_scheme(scheme_kind, family, relation)
        bound = adversary.quantum_adversary_value(scheme)
        ok = bound.value > 0
        digest = (
            f"num={bound.radicand_num} den={bound.radicand_den} "
            f"witness={_witness(bound.witness)}"
        )
        return Outcome(digest, () if ok else ("non-positive bound",),
                       lambda: _pair_counts(family, relation))

    def _walkstats(self) -> Outcome:
        z = self.walk_sizes
        problems = []
        parity, closed, line = [], [], []
        for m in range(2, z["parity_m"] + 1):
            for t in range(2, 11, 2):
                brute = walkstats.parity_prob_bruteforce(m, t, (0,) * m)
                forms = (walkstats.parity_prob_closed_form(m, t),
                         walkstats.parity_prob_recursion(m, t))
                parity.append(brute)
                closed.extend(forms)
                if any(f != brute for f in forms):
                    problems.append(f"parity routes disagree at m={m} t={t}")
        for m in range(2, z["closed_m"] + 1):
            brute = walkstats.parity_prob_bruteforce(m, 2, (0,) * m)
            forms = (walkstats.parity_prob_closed_form(m, 2),
                     walkstats.parity_prob_recursion(m, 2))
            parity.append(brute)
            closed.extend(forms)
            if any(f != brute for f in forms):
                problems.append(f"parity routes disagree at m={m} t=2")
        for m in range(2, z["cond_m"] + 1):
            for t in range(1, 9):
                plain = walkstats.parity_prob_table(m, t)
                parity.extend(plain.values())
                for istar in range(m):
                    cond = walkstats.parity_prob_table(m, t, excluded_first_bin=istar)
                    parity.extend(cond.values())
        for m in (2, 3):
            for t in (1, 3, 5, 7):
                if not walkstats.odd_step_reduction_holds(m, t):
                    problems.append(f"odd-step reduction fails at m={m} t={t}")
        for n in range(2, z["table_n"] + 1):
            table = walkstats.line_walk_table(n, 14)
            for t in range(15):
                for i in range(1, n + 1):
                    tallies = walkstats.line_walk_endpoint_counts(n, t, i)
                    row = [table.count(t, i, j) for j in range(1, n + 1)]
                    line.extend(row)
                    if row != tallies[1:]:
                        problems.append(f"line table differs from enumeration at n={n} t={t}")
        for n in z["envelope_n"]:
            maxima = walkstats.line_walk_max_counts(n, 4 * n * n)
            line.extend(maxima)
        digest = " ".join(
            f"{name}={sha256_text(repr(values))[:16]}"
            for name, values in (("parity", parity), ("closed_form", closed), ("line", line))
        )
        return Outcome(digest, tuple(problems))

    @staticmethod
    def pass_digest(records) -> str:
        return sha256_text("\n".join(sorted(r.digest for r in records)))

    @staticmethod
    def figures(records) -> list[tuple[str, float, str, int]]:
        out = []
        for group in ("relational", "quantum", "walkstats"):
            by_kind: dict[str, list[int]] = {}
            for r in records:
                if r.op.group == group:
                    by_kind.setdefault(r.op.kind, []).append(r.ns)
            seconds = sum(sum(v) / len(v) for v in by_kind.values()) / 1e9
            n = min(len(v) for v in by_kind.values())
            out.append((f"{group}_bound_s" if group != "walkstats" else "walkstats_s",
                        seconds, "s", n))
        return out


WORKLOADS = {cls.name: cls for cls in (Sweep, Verify, Exact)}


def make(name: str, size: str = "full"):
    return WORKLOADS[name](size)


def definition_sha256(workload) -> str:
    return sha256_text(json.dumps(workload.definition, sort_keys=True))


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (the 'inclusive' method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
