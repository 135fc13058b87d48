"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite on purpose: they exercise the
benchmark harness, not lslab.
"""

import copy
import json
import os
import sys
import unittest

import run

run.import_lslab()
import tracing  # noqa: E402  (needs lslab on the path)
import workloads  # noqa: E402

SMOKE = "smoke"


def load_pins() -> dict:
    with open(run.PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def snapshot() -> dict:
    """Every binding the tracer could touch: lslab module and class namespaces."""
    out = {}
    for name, module in sys.modules.items():
        if name == "lslab" or name.startswith("lslab."):
            for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
                for attr, value in list(vars(owner).items()):
                    out[(id(owner), attr)] = value
    return out


class BenchmarkSelfTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))

    def test_altered_pin_fails_the_op(self):
        pins = copy.deepcopy(load_pins())
        ops = pins["verify"][SMOKE]["ops"]
        label = next(iter(ops))
        ops[label] = ops[label] + " altered"
        record = run.run("verify", workloads.DEFAULT_SEED, 0, 0, SMOKE, pins=pins)
        result = record["result"]
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_altered_pass_digest_fails_the_pass(self):
        pins = copy.deepcopy(load_pins())
        pins["sweep"][SMOKE]["pass_sha256"] = "0" * 64
        record = run.run("sweep", workloads.DEFAULT_SEED, 0, 0, SMOKE, pins=pins)
        self.assertEqual(record["result"]["failed"], record["result"]["attempted"])

    def test_remove_restores_every_binding(self):
        before = snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            during = snapshot()
            changed = [key for key, value in before.items() if during.get(key) is not value]
            self.assertGreater(len(changed), len(tracing.FUNCTIONS) + len(tracing.METHODS))
        finally:
            tracer.remove()
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_smoke_runs_pass_their_checks(self):
        for name in workloads.WORKLOADS:
            for seed in (workloads.DEFAULT_SEED, 7):
                for trace in (0, 1):
                    with self.subTest(workload=name, seed=seed, trace=trace):
                        record = run.run(name, seed, 0, trace, SMOKE)
                        result = record["result"]
                        self.assertTrue(result["correct"], record["figures"])
                        self.assertEqual(result["failed"], 0)
                        names = [n for n, _, _ in (tracing.PER_LAYER if trace else run.END_TO_END)]
                        self.assertEqual(list(result["metrics"]), names)


if __name__ == "__main__":
    unittest.main()
