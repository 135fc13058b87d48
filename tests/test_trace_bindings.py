"""The traced benchmark run finds every binding it wraps, and its wrappers
leave a run's output as it is.

`perfbench/tracing.py` looks each FUNCTIONS entry up as a module attribute
and each METHODS entry in its class's own ``__dict__``; a renamed or moved
binding would stop `perfbench/run.py --trace 1` at startup.  It also unpacks
what some bindings return (`RegionState.sampler`'s ``(draw, total)``), so a
changed return shape would fail every traced grid2d op.

Pass 0 of the exact workload must reproduce its digests in `pins.json`, so a
drifted adversary witness or radicand fails here before the benchmark runs.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _lslab(module: str):
    return importlib.import_module(f"lslab.{module}")


def test_every_traced_function_is_a_module_attribute():
    missing = [
        (module, attr) for module, attr, _ in _load("tracing").FUNCTIONS
        if not callable(getattr(_lslab(module), attr, None))
    ]
    assert missing == []


def test_every_traced_method_is_in_its_class_dict():
    missing = [
        (module, cls, attr) for module, cls, attr, _ in _load("tracing").METHODS
        if attr not in vars(getattr(_lslab(module), cls))
    ]
    assert missing == []


def test_traced_grid2d_sweep_op_keeps_its_digest():
    tracing, workloads = _load("tracing"), _load("workloads")
    ops = [op for op in workloads.make("sweep", "smoke").pass_ops(workloads.DEFAULT_SEED, 0)
           if op.group == "grid2d"]
    untraced = [op.run().digest for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for op in ops:
            with tracer.op(op.label):
                traced.append(op.run().digest)
    finally:
        tracer.remove()
    assert ops and traced == untraced
    assert tracer.calls("solvers.region.draw") > 0


def test_exact_pass_reproduces_its_pins():
    # pass 0 of the exact workload at the pinned seed: every adversary
    # witness and radicand, and the walkstats digests, as pins.json holds them
    workloads = _load("workloads")
    pins = json.loads((PERFBENCH / "pins.json").read_text())["exact"]["full"]
    workload = workloads.make("exact", "full")
    outcomes = {op.label: op.run() for op in workload.pass_ops(pins["seed"], 0)}
    assert [o.problems for o in outcomes.values()] == [()] * len(outcomes)
    assert {label: o.digest for label, o in outcomes.items()} == pins["ops"]
    assert workload.pass_digest(list(outcomes.values())) == pins["pass_sha256"]
