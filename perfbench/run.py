"""Run one frvkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: frvkit is imported from the checkout's
``src/``, and the run fails without printing a result when that is missing.
Each run is one single-threaded process driving one closed loop with one
caller.  ``--seed`` fixes every input of the run.

``--trace 0`` times the ops untraced and reports the end-to-end metrics;
before its timed loop it starts SETUP_SAMPLES fresh interpreters, one at a
time, each of which sets up and exits, to time set-up.
``--trace 1`` runs ops untraced for 40% of ``--seconds``, then replays as
many of the same ops as the rest of ``--seconds`` allows with every frvkit
layer wrapped (see ``tracing.py``), and reports
the per-layer metrics per op plus ``trace.overhead_ratio``, the traced wall
time over the untraced wall time of the same ops.  Traced numbers never feed
an end-to-end metric; the spans go to ``perfbench/out/``.

Times are reported at reference speed: each op is timed between two runs
of a fixed calibration kernel and scaled to a machine on which that kernel
takes ``REFERENCE_KERNEL_S`` (see ``harness.py``), so the drifting speed of
a shared VM cancels out.  The run record keeps the raw wall times too.

Standard output ends with two JSON lines: the run record (environment,
sample counts, every metric with its unit, failures) and then the result
``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` is false when
any op's output failed its check; ops that raise count as failed only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    END_TO_END,
    REFERENCE_KERNEL_S,
    Loop,
    end_to_end,
    environment,
    measure,
    run_op,
    sample_counts,
    set_up,
    settled_kernel_seconds,
    speed_scale,
    wall_figures,
)
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every run ends within this many seconds of its start.
RUN_LIMIT = 170.0

# ``setup_s`` is the median set-up time of SETUP_SAMPLES fresh interpreters,
# started one after another before the timed loop, so no process runs
# alongside a timed op.  Each is timed from just before its launch.
SETUP_SAMPLES = 9

# ``fail_ratio`` is in the record, but not in the result line: it is zero on
# a healthy workload, and the result carries ``attempted`` and ``failed``.
RESULT_END_TO_END = tuple(name for name, _ in END_TO_END if name != "fail_ratio")

# The ``axioms.corpus_*`` metrics are in the record, but not in the result:
# only ``build_audit_corpus`` moves them, and only the ``audit`` workload,
# left out of BENCHMARK.json while that corpus crashes, calls it.
RESULT_PER_LAYER = tuple(name for name, _ in LAYER_METRICS if not name.startswith("axioms.corpus_"))


def failure_summary(loops) -> dict:
    reasons = {}
    for loop in loops:
        for _, kind, reason in loop.failures:
            key = f"{kind}: {reason.splitlines()[0][:160]}"
            reasons[key] = reasons.get(key, 0) + 1
    return dict(sorted(reasons.items(), key=lambda item: -item[1])[:10])


def fresh_set_ups(argv) -> list:
    """Set-up times of SETUP_SAMPLES fresh interpreters running this script
    with ``argv`` and ``--launched-at``, each waited for in turn."""
    times = []
    for _ in range(SETUP_SAMPLES):
        command = [sys.executable, str(HERE / "run.py"), *argv, "--launched-at", repr(time.perf_counter())]
        done = subprocess.run(command, capture_output=True, text=True, timeout=60, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def timed_run(workload, args, argv, started: float):
    setup_samples = fresh_set_ups(argv)
    loop = measure(workload, args.seconds, RUN_LIMIT - 20 - (time.perf_counter() - started))
    return [loop], {
        "setup_samples_s": setup_samples,
        "samples": sample_counts(loop),
        "metrics": end_to_end(loop, statistics.median(setup_samples)),
        "wall": wall_figures(loop),
    }


def traced_run(workload, args):
    begin = time.perf_counter()
    untraced = measure(workload, args.seconds * 0.4, RUN_LIMIT / 3, min_samples=1)
    traced = Loop()
    tracer = Tracer()
    with tracer:
        for index in range(untraced.attempted):
            if time.perf_counter() - begin > args.seconds and traced.attempted:
                break
            run_op(workload, index, traced, tracer)
    ratio = sum(traced.wall_durations) / sum(untraced.wall_durations[: traced.attempted])
    spans = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
    tracer.write_spans(spans)
    return [untraced, traced], {
        "samples": {"untraced": sample_counts(untraced), "traced": sample_counts(traced)},
        "wall": {"untraced": wall_figures(untraced), "traced": wall_figures(traced)},
        "metrics": tracer.layer_metrics(ratio),
        "spans": {"file": str(spans.relative_to(ROOT)), "recorded": tracer.span_count},
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    kernel_at_start = settled_kernel_seconds()  # calibrates a set-up sample
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up, print the time since the ``perf_counter`` value given (the
    # clock is system-wide) at reference speed, and exit: how fresh_set_ups
    # samples set-up.
    parser.add_argument("--launched-at", type=float, help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "frvkit" / "__init__.py").is_file():
        print(f"perfbench: no frvkit package under {src.name}/ of this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = set_up(src, lambda fk: WORKLOADS[args.workload](fk, args.seed, workdir))
        if args.launched_at is not None:
            setup_s = time.perf_counter() - args.launched_at
            print(json.dumps({"setup_s": setup_s * speed_scale(kernel_at_start, settled_kernel_seconds())}))
            return 0
        if args.trace:
            loops, record = traced_run(workload, args)
        else:
            loops, record = timed_run(workload, args, argv, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    reported = RESULT_PER_LAYER if args.trace else RESULT_END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, one process",
        "reference_kernel_ms": REFERENCE_KERNEL_S * 1e3,
        "environment": environment(ROOT),
        **record,
        "failures": failure_summary(loops),
    }
    result = {
        "correct": all(loop.wrong == 0 for loop in loops),
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {name: record["metrics"][name] for name in reported},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
