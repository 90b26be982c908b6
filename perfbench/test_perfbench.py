"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import fractions
import inspect
import json
import random
import re
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from harness import (  # noqa: E402
    END_TO_END,
    REFERENCE_KERNEL_S,
    Loop,
    end_to_end,
    import_frvkit,
    percentile,
    run_op,
    samples_beyond,
    speed_scale,
)
from tracing import LAYERS, LAYER_METRICS, Tracer, frvkit_modules  # noqa: E402
from workloads import MEDIATOR_SLOTS, WORKLOADS, AxiomChecks, Mediator  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class MetricNames(unittest.TestCase):
    def test_every_metric_name_is_well_formed(self):
        bench = benchmark_json()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [name for name, _ in END_TO_END + LAYER_METRICS]
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)

    def test_benchmark_json_lists_what_the_harness_reports(self):
        bench = benchmark_json()
        units = dict(END_TO_END)
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.RESULT_END_TO_END))
        for metric in bench["end_to_end"]:
            self.assertEqual(metric["unit"], units[metric["name"]])
        units = dict(LAYER_METRICS)
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(run.RESULT_PER_LAYER))
        for metric in bench["per_layer"]:
            self.assertEqual(metric["unit"], units[metric["name"]])
        for workload in bench["workloads"]:
            self.assertIn(workload["name"], WORKLOADS)


class PercentileRule(unittest.TestCase):
    def test_p90_of_a_hundred_samples_has_ten_beyond_it(self):
        samples = random.Random(0).sample(range(1, 101), 100)
        self.assertEqual(percentile(samples, 90), 90)
        self.assertEqual(percentile(samples, 50), 50)
        self.assertEqual(samples_beyond(samples, 90), 10)

    def test_nearest_rank_on_few_samples(self):
        self.assertEqual(percentile([7.0], 90), 7.0)
        self.assertEqual(percentile([3, 1, 2], 50), 2)
        self.assertEqual(percentile([3, 1, 2], 90), 3)


class Flaky:
    """Op ``i`` raises when i % 4 == 0 and returns a wrong output when
    i % 4 == 1; both failing kinds are slow, the others fast."""

    cycle = 4

    def make(self, index):
        return index

    def run(self, index):
        if index % 4 in (0, 1):
            time.sleep(0.02)
        if index % 4 == 0:
            raise RuntimeError("boom")
        return index

    def check(self, index, output):
        return "wrong output" if index % 4 == 1 else None


class SpeedScale(unittest.TestCase):
    def test_times_scale_to_the_reference_kernel(self):
        self.assertEqual(speed_scale(REFERENCE_KERNEL_S, REFERENCE_KERNEL_S), 1.0)
        # A machine half as fast: its kernel and its ops take twice as long.
        self.assertEqual(speed_scale(2 * REFERENCE_KERNEL_S, 2 * REFERENCE_KERNEL_S), 0.5)
        self.assertEqual(speed_scale(REFERENCE_KERNEL_S, 3 * REFERENCE_KERNEL_S), 0.5)


class FailingOps(unittest.TestCase):
    def test_failed_ops_count_and_stay_out_of_latency(self):
        loop = Loop()
        # Flaky sleeps, which no machine speed moves: calibrate to scale 1.
        with mock.patch("harness.kernel_seconds", return_value=REFERENCE_KERNEL_S):
            for index in range(8):
                run_op(Flaky(), index, loop)
        self.assertEqual((loop.attempted, loop.failed, loop.wrong), (8, 4, 2))
        self.assertEqual(len(loop.latencies), 4)
        metrics = end_to_end(loop, setup_s=1.0)
        self.assertEqual(metrics["fail_ratio"]["value"], 0.5)
        self.assertLess(metrics["op_p90_ms"]["value"], 20.0)
        # The slow failed ops still count toward the timed wall time.
        self.assertLess(metrics["ops_per_s"]["value"], 4 / 0.08)


class TracerRestores(unittest.TestCase):
    def test_traced_run_puts_back_every_wrapped_object(self):
        fk = import_frvkit(ROOT / "src")
        namespaces = {module: dict(vars(module)) for module in frvkit_modules()}
        hooks = [
            (cls, name, cls.__dict__[name])
            for module in frvkit_modules()
            for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
            for name in ("__post_init__", "prob")
            if name in cls.__dict__
        ]
        hooks.append((fractions.Fraction, "__new__", fractions.Fraction.__dict__["__new__"]))

        tracer = Tracer()
        with tracer:
            self.assertIsNot(fk.mutual_information, namespaces[fk]["mutual_information"])
            self.assertIsNot(fk.cli.audit, namespaces[fk.cli]["audit"])
            tracer.begin_op(0)
            coin = fk.fair_coin()
            fk.mutual_information(coin, coin)
            tracer.end_op()
            # Calls between ops, like output checks, are not counted.
            fk.mutual_information(coin, coin)
            tracer.begin_op(1)
            tracer.end_op()
            self.assertEqual(tracer.totals["measures.mutual_information"][0], 1)

        for module, namespace in namespaces.items():
            for name, value in namespace.items():
                self.assertIs(vars(module)[name], value, f"{module.__name__}.{name}")
        for owner, name, value in hooks:
            self.assertIs(owner.__dict__[name], value, f"{owner.__name__}.{name}")
        metrics = tracer.layer_metrics(1.0)
        self.assertGreater(metrics["measures.calls"]["value"], 0)
        self.assertGreater(metrics["fractions.created"]["value"], 0)
        self.assertEqual({f"{layer}.calls" for layer in LAYERS} - set(metrics), set())


class OutputChecks(unittest.TestCase):
    def test_mediator_check_rejects_a_corrupted_table(self):
        workload = Mediator(import_frvkit(ROOT / "src"), seed=3, workdir=HERE)
        ops = map(workload.make, range(len(MEDIATOR_SLOTS)))
        inputs = next(op for op in ops if op[0] == "a")  # a family-a triangle
        mediator, verified, residuals = workload.run(inputs)
        self.assertIsNone(workload.check(inputs, (mediator, verified, residuals)))
        table = dict(mediator.table)
        # A hit cell (z, x) has P(z|x) > 0, and only y = (x, z) mediates it.
        z, x = next((z, x) for (z, x), y in table.items() if y == (x, z))
        table[z, x] = next(y for y in table.values() if y[0] != x)
        corrupted = type(mediator)(table)
        self.assertIsNotNone(workload.check(inputs, (corrupted, True, residuals)))

    def test_axiom_check_rejects_a_wrong_verdict(self):
        workload = AxiomChecks(import_frvkit(ROOT / "src"), seed=3, workdir=HERE)
        for index in range(2):  # a passing functional, then a failing one
            inputs = workload.make(index)
            report = workload.run(inputs)
            self.assertIsNone(workload.check(inputs, report))
            self.assertIsNotNone(workload.check(inputs, {**report, "failed_axioms": [1]}))


if __name__ == "__main__":
    unittest.main()
