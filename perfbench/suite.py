"""Run every workload, one process after another, and print its metrics.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

The untimed pass (``--trace 0``) prints the end-to-end metrics of each
workload by name and unit, with its sample counts and failures; the traced
pass (``--trace 1``) prints each per-layer metric that is not zero, that is
each layer that runs on the workload, and ``trace.overhead_ratio``.  Without
``--trace`` both passes run.  ``--out`` writes every run record as one JSON
file, the form of the committed ``BENCH_*.json`` trajectory points.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}\n{done.stderr}")
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return {**record, "correct": result["correct"]}


def print_record(record: dict) -> None:
    print(f"{record['workload']}  trace={record['trace']}  seed={record['seed']}  "
          f"correct={record['correct']}  samples={json.dumps(record['samples'])}")
    for name, metric in record["metrics"].items():
        if record["trace"] and not metric["value"]:
            continue
        print(f"  {name:34s} {metric['value']:14.6g}  {metric['unit']}")
    for reason, count in record["failures"].items():
        print(f"  failed x{count}: {reason}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write every run record to this JSON file")
    args = parser.parse_args(argv)

    passes = (0, 1) if args.trace is None else (args.trace,)
    records = []
    for trace in passes:
        for workload in WORKLOADS:
            records.append(run_workload(workload, args.seed, args.seconds, trace))
            print_record(records[-1])
            sys.stdout.flush()
    if args.out:
        doc = {"benchmark": "perfbench", "seed": args.seed, "seconds": args.seconds,
               "runs": records}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
