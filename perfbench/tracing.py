"""Tracing wrappers for the traced benchmark run, and the per-layer metrics.

The layers are lslab's modules.  `Tracer.install` wraps the functions and
methods listed in FUNCTIONS and METHODS wherever lslab binds them: the
defining module, every `from .x import name` rebinding in another lslab
module, and the package namespace.  `Tracer.remove` puts the original objects
back.  The untraced run never imports this module.

Calls are too many to keep one by one (the verify workload alone makes
millions), so each wrapped call is folded into a (name, parent) -> [calls,
total ns, ns spent in wrapped children] table, where the parent is the
innermost wrapped call or op around it.  Self time is total minus children.
Ops, in contrast, are kept as full spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, attribute, span name); several attributes may share a span name
FUNCTIONS = (
    ("grid", "neighbors", "grid.neighbors"),
    ("grid", "snake_rank", "grid.snake_rank"),
    ("grid", "snake_unrank", "grid.snake_unrank"),
    ("instances", "gen_hypercube_instance", "instances.generate"),
    ("instances", "gen_grid_instance", "instances.generate"),
    ("instances", "gen_block_instance", "instances.generate"),
    ("instances", "_replay_hypercube", "instances.replay"),
    ("instances", "_replay_grid", "instances.replay"),
    ("instances", "_replay_blocks", "instances.replay"),
    ("instances", "instance_value", "instances.value"),
    ("instances", "instance_membership", "instances.membership"),
    ("instances", "verify_instance", "instances.verify"),
    ("oracles", "simulate_value_via_membership", "oracles.simulate"),
    ("solvers", "durr_hoyer_min", "solvers.durr_hoyer"),
    ("solvers", "grover_exists", "solvers.grover"),
    ("adversary", "enumerate_paths", "adversary.enumerate"),
    ("adversary", "endpoint_relation", "adversary.relation"),
    ("adversary", "build_scheme", "adversary.build_scheme"),
    ("adversary", "scheme_is_valid", "adversary.validity"),
    ("adversary", "relational_adversary_value", "adversary.relational"),
    ("adversary", "quantum_adversary_value", "adversary.quantum"),
    ("adversary", "differing_positions", "adversary.differing_positions"),
    ("walkstats", "parity_prob_bruteforce", "walkstats.parity"),
    ("walkstats", "parity_prob_table", "walkstats.parity"),
    ("walkstats", "odd_step_reduction_holds", "walkstats.parity"),
    ("walkstats", "parity_prob_closed_form", "walkstats.closed_form"),
    ("walkstats", "parity_prob_recursion", "walkstats.closed_form"),
    ("walkstats", "line_walk_table", "walkstats.line"),
    ("walkstats", "line_walk_endpoint_counts", "walkstats.line"),
    ("walkstats", "line_walk_max_counts", "walkstats.line"),
    ("bench", "run_trial", "bench.run_trial"),
    ("bench", "rows_to_csv", "bench.csv"),
    ("bench", "strip_runtime_column", "bench.csv"),
)

# (module, class, method, span name); phase and sampler are wrapped specially
METHODS = (
    ("grid", "GridShape", "require", "grid.require"),
    ("oracles", "ValueOracle", "query", "oracles.query"),
    ("oracles", "ValueOracle", "peek", "oracles.peek"),
    ("oracles", "MembershipOracle", "query", "oracles.membership_query"),
    ("oracles", "MembershipOracle", "peek", "oracles.membership_peek"),
    ("oracles", "QueryLedger", "record_classical", "oracles.ledger"),
    ("oracles", "QueryLedger", "record_quantum", "oracles.ledger"),
    ("oracles", "QueryLedger", "phase", "solvers.phase"),
    ("solvers", "RegionState", "sampler", "solvers.region.sampler"),
    ("solvers", "RegionState", "sphere", "solvers.region.sphere"),
    ("adversary", "WeightScheme", "uv", "adversary.uv"),
    ("adversary", "Surd", "power", "adversary.surd_power"),
)


class _Span:
    """Context manager that times one span and folds it into the table."""

    __slots__ = ("tracer", "name", "inner", "frame", "parent", "t0")

    def __init__(self, tracer: "Tracer", name: str, inner=None) -> None:
        self.tracer, self.name, self.inner = tracer, name, inner

    def __enter__(self):
        self.frame = [self.name, 0]
        self.parent = self.tracer.stack[-1]
        self.tracer.stack.append(self.frame)
        self.t0 = time.perf_counter_ns()
        return self.inner.__enter__() if self.inner is not None else self

    def __exit__(self, *exc):
        try:
            if self.inner is not None:
                return self.inner.__exit__(*exc)
            return False
        finally:
            self.tracer.close(self.frame, self.parent, time.perf_counter_ns() - self.t0)


class _OpSpan(_Span):
    __slots__ = ("label",)

    def __init__(self, tracer: "Tracer", label: str) -> None:
        super().__init__(tracer, "op")
        self.label = label

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        super().__exit__(*exc)
        tracer = self.tracer
        tracer.spans.append({
            "trace_id": tracer.trace_id,
            "span_id": len(tracer.spans) + 1,
            "parent_id": 0,
            "name": self.label,
            "start_ns": self.t0 - tracer.t0,
            "end_ns": end - tracer.t0,
            "self_ns": end - self.t0 - self.frame[1],
        })
        return False


class Tracer:
    def __init__(self) -> None:
        self.trace_id = os.urandom(8).hex()
        self.stack: list[list] = [["run", 0]]
        self.table: dict[tuple[str, str], list[int]] = {}
        self.spans: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter_ns()

    # -- recording ---------------------------------------------------------

    def close(self, frame: list, parent: list, dt: int) -> None:
        self.stack.pop()
        parent[1] += dt
        entry = self.table.get((frame[0], parent[0]))
        if entry is None:
            self.table[(frame[0], parent[0])] = [1, dt, frame[1]]
        else:
            entry[0] += 1
            entry[1] += dt
            entry[2] += frame[1]

    def wrap(self, name: str, fn):
        stack, table, clock = self.stack, self.table, time.perf_counter_ns

        # close() inlined: this wrapper runs millions of times per traced pass
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                entry = table.get((name, parent[0]))
                if entry is None:
                    table[(name, parent[0])] = [1, dt, frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += frame[1]

        return traced

    def op(self, label: str) -> "_OpSpan":
        """A full span for one op, parented to the run span."""
        return _OpSpan(self, label)

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "lslab" or name.startswith("lslab.")]
        modules = {m.__name__.split(".")[-1]: m for m in namespaces}
        for module, attr, name in FUNCTIONS:
            original = getattr(modules[module], attr)
            traced = self.wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, traced)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(modules[module], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                traced = classmethod(self.wrap(name, original.__func__))
            elif attr == "phase":
                traced = self._traced_phase(original)
            elif attr == "sampler":
                traced = self._traced_sampler(name, original)
            else:
                traced = self.wrap(name, original)
            self._patch(cls, attr, traced)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_phase(self, original):
        tracer = self

        @functools.wraps(original)
        def phase(ledger, label):
            return _Span(tracer, f"solvers.phase.{label}", original(ledger, label))

        return phase

    def _traced_sampler(self, name: str, original):
        # the sampler hands back a draw closure; its draws happen later, inside
        # the sample-min phase, and count towards the sampler's self time
        traced_sampler = self.wrap(name, original)
        wrap = self.wrap

        @functools.wraps(original)
        def sampler(region, rng):
            draw, total = traced_sampler(region, rng)
            return wrap("solvers.region.draw", draw), total

        return sampler

    # -- reading -----------------------------------------------------------

    def totals(self, name: str, parents=None) -> tuple[int, int, int]:
        calls = total = child = 0
        for (n, parent), (c, t, ch) in self.table.items():
            if n == name and (parents is None or parent in parents):
                calls += c
                total += t
                child += ch
        return calls, total, child

    def calls(self, name: str, parents=None) -> int:
        return self.totals(name, parents)[0]

    def self_ms(self, *names: str) -> float:
        out = 0
        for name in names:
            _, total, child = self.totals(name)
            out += total - child
        return out / 1e6

    def ns_per_call(self, name: str) -> float:
        calls, total, _ = self.totals(name)
        return total / calls if calls else 0.0

    def run_span(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": 0, "parent_id": None, "name": "run",
                "start_ns": 0, "end_ns": time.perf_counter_ns() - self.t0}

    def dump(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "calls": c, "total_ns": t, "child_ns": ch}
            for (n, p), (c, t, ch) in sorted(self.table.items())
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better): the per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("grid.require.calls", "count", "lower"),
    ("grid.require.ns_per_call", "ns", "lower"),
    ("grid.snake_rank.calls", "count", "lower"),
    ("grid.snake_rank.ns_per_call", "ns", "lower"),
    ("grid.snake_unrank.calls", "count", "lower"),
    ("grid.snake_unrank.ns_per_call", "ns", "lower"),
    ("grid.neighbors.calls", "count", "lower"),
    ("grid.neighbors.ns_per_call", "ns", "lower"),
    ("grid.require_per_oracle_call", "ratio", "lower"),
    ("instances.value.calls", "count", "lower"),
    ("instances.value.ns_per_call", "ns", "lower"),
    ("instances.membership.calls", "count", "lower"),
    ("instances.membership.ns_per_call", "ns", "lower"),
    ("instances.verify.ns_per_vertex", "ns", "lower"),
    ("instances.generate.self_ms", "ms", "lower"),
    ("instances.replay.self_ms", "ms", "lower"),
    ("oracles.query.calls", "count", "lower"),
    ("oracles.query.ns_per_call", "ns", "lower"),
    ("oracles.peek.calls", "count", "lower"),
    ("oracles.peek.ns_per_call", "ns", "lower"),
    ("oracles.simulate.ns_per_call", "ns", "lower"),
    ("oracles.simulate.probes_per_call", "ratio", "lower"),
    ("oracles.ledger.ns_per_record", "ns", "lower"),
    ("solvers.phase.descent.self_ms", "ms", "lower"),
    ("solvers.phase.sample.self_ms", "ms", "lower"),
    ("solvers.phase.sample-min.self_ms", "ms", "lower"),
    ("solvers.phase.sphere-test.self_ms", "ms", "lower"),
    ("solvers.region.sampler.self_ms", "ms", "lower"),
    ("solvers.region.sphere.self_ms", "ms", "lower"),
    ("solvers.grover.calls", "count", "lower"),
    ("solvers.durr_hoyer.calls", "count", "lower"),
    ("solvers.sphere_tests_per_round", "ratio", "lower"),
    ("solvers.peeks_per_classical_query", "ratio", "lower"),
    ("solvers.classical_queries", "count", "lower"),
    ("solvers.charged_quantum_queries", "count", "lower"),
    ("adversary.enumerate.self_ms", "ms", "lower"),
    ("adversary.relation.self_ms", "ms", "lower"),
    ("adversary.build_scheme.self_ms", "ms", "lower"),
    ("adversary.validity.self_ms", "ms", "lower"),
    ("adversary.relational.self_ms", "ms", "lower"),
    ("adversary.quantum.self_ms", "ms", "lower"),
    ("adversary.uv.calls", "count", "lower"),
    ("adversary.uv.ns_per_call", "ns", "lower"),
    ("adversary.uv_calls_per_position", "ratio", "lower"),
    ("adversary.surd_power.calls", "count", "lower"),
    ("adversary.differing_positions_per_pair", "ratio", "lower"),
    ("adversary.pairs", "count", "higher"),
    ("adversary.positions", "count", "higher"),
    ("walkstats.parity.self_ms", "ms", "lower"),
    ("walkstats.closed_form.self_ms", "ms", "lower"),
    ("walkstats.line.self_ms", "ms", "lower"),
    ("bench.run_trial.self_ms", "ms", "lower"),
    ("bench.csv.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_metrics(tr: Tracer, counts: dict, overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric from the call table and the ops' own counts.

    A layer the workload does not reach reports 0."""
    oracle_calls = sum(tr.calls(n) for n in (
        "oracles.query", "oracles.peek", "oracles.membership_query", "oracles.membership_peek"))
    quantum_parents = ("adversary.quantum", "adversary.validity")
    values = {
        "grid.require_per_oracle_call": _ratio(tr.calls("grid.require"), oracle_calls),
        "instances.verify.ns_per_vertex": _ratio(
            tr.totals("instances.verify")[1], counts.get("vertices", 0)),
        "instances.generate.self_ms": tr.self_ms("instances.generate"),
        "instances.replay.self_ms": tr.self_ms("instances.replay"),
        "oracles.simulate.probes_per_call": _ratio(
            tr.calls("oracles.membership_query", ("oracles.simulate",)),
            tr.calls("oracles.simulate")),
        "oracles.ledger.ns_per_record": tr.ns_per_call("oracles.ledger"),
        "solvers.region.sampler.self_ms": tr.self_ms(
            "solvers.region.sampler", "solvers.region.draw"),
        "solvers.sphere_tests_per_round": _ratio(
            tr.calls("solvers.grover", ("solvers.phase.sphere-test",)),
            tr.calls("solvers.region.sampler")),
        "solvers.peeks_per_classical_query": _ratio(
            tr.calls("oracles.peek"), tr.calls("oracles.query")),
        "solvers.classical_queries": counts.get("classical_queries", 0),
        "solvers.charged_quantum_queries": counts.get("charged_quantum_queries", 0),
        "adversary.uv_calls_per_position": _ratio(
            tr.calls("adversary.uv"), counts.get("quantum_positions", 0)),
        "adversary.differing_positions_per_pair": _ratio(
            tr.calls("adversary.differing_positions", quantum_parents),
            counts.get("quantum_pairs", 0)),
        "adversary.pairs": counts.get("quantum_pairs", 0),
        "adversary.positions": counts.get("quantum_positions", 0),
        "trace.overhead_frac": overhead_frac,
    }
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "calls":
            values[name] = tr.calls(span)
        elif stat == "ns_per_call":
            values[name] = tr.ns_per_call(span)
        elif stat == "self_ms":
            values[name] = tr.self_ms(span)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return {name: values[name] for name, _, _ in PER_LAYER}
