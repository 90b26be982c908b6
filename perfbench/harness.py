"""The closed measuring loop, the percentile rule and the run record.

One caller runs one op at a time; the next op starts when the previous one
has ended and its output has been checked.  Only the op itself is timed:
input generation and output checks sit outside the timed region.

Every time is reported at a fixed reference speed.  On a shared VM the
speed of a vCPU swings by up to 2x between states that last from a tenth
of a second to minutes, and process CPU time swings with it, so raw wall
times of the same code differ by more than any useful bound from run to
run.  A calibration kernel, fixed pure-stdlib code of the kind frvkit runs
(small ``Fraction`` arithmetic, dicts, a sort, ``log2``), is therefore timed
right before and right after every op, and the op's wall time is scaled by
``REFERENCE_KERNEL_S`` over the mean of the two kernel times: the time the
op would have taken on a machine where the kernel takes exactly
``REFERENCE_KERNEL_S``.  The kernel never calls frvkit, so no change to
frvkit can move it.  Raw wall times stay in the run record.
"""

from __future__ import annotations

import importlib
import math
import os
import platform
import resource
import statistics
import time
from fractions import Fraction
from pathlib import Path

# Each run keeps measuring past ``--seconds`` until this many ops have
# completed, so that p90 has at least ten samples beyond it.
MIN_SAMPLES = 100
TAIL_PERCENTILE = 90

# Name and unit of every end-to-end metric, in report order.
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("fail_ratio", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


# Kernel runs per calibration, of which the median counts; the kernel takes
# about 0.35 to 0.6 ms on a 2-vCPU Xeon VM, depending on its speed state.
KERNEL_REPEATS = 3
# The kernel time of the reference machine every reported time is scaled to.
REFERENCE_KERNEL_S = 0.5e-3


def calibration_kernel() -> float:
    """Fixed work, made of the operations frvkit spends its time on."""
    total = Fraction(0)
    sums = {}
    for k in range(1, 60):
        share = Fraction(k % 7 + 1, k % 11 + 2)
        total += share * share
        sums[k % 13] = sums.get(k % 13, 0) + share
    values = sorted(float(value) for value in sums.values())
    return math.fsum(value * math.log2(value) for value in values) + float(total)


def kernel_seconds() -> float:
    """Median wall time of KERNEL_REPEATS runs of the calibration kernel."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# A fresh interpreter runs the kernel slower its first few times, while it
# specializes the bytecode: runs discarded before a set-up calibration.
KERNEL_WARMUP = 8


def settled_kernel_seconds() -> float:
    """Kernel time for calibrating set-up in a fresh interpreter: the median
    of three calibrations after KERNEL_WARMUP discarded kernel runs."""
    for _ in range(KERNEL_WARMUP):
        calibration_kernel()
    return statistics.median(kernel_seconds() for _ in range(3))


def speed_scale(before: float, after: float) -> float:
    """Factor from wall time to reference time, for work done between two
    calibrations that took ``before`` and ``after`` seconds."""
    return 2 * REFERENCE_KERNEL_S / (before + after)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the least sample with at least ``q`` percent
    of all samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(samples, q: float) -> int:
    cut = percentile(samples, q)
    return sum(1 for value in samples if value > cut)


class Loop:
    """What one closed-loop run saw: op latencies and failures."""

    def __init__(self):
        # Reference seconds (see the module docstring) unless named wall.
        self.latencies = []  # completed ops only
        self.durations = []  # every attempted op, failed ones too
        self.wall_latencies = []
        self.wall_durations = []
        self.kernel_times = []  # seconds, every calibration of the run
        self.failures = []  # (op index, "error" or "wrong", reason)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def wrong(self) -> int:
        """Ops whose output failed its check (raising is an error, not this)."""
        return sum(1 for _, kind, _ in self.failures if kind == "wrong")


def run_op(workload, index: int, loop: Loop, tracer=None) -> None:
    """Make op ``index``'s inputs, time the op between two calibrations,
    check its output.

    An op fails when it raises (an error) or when its output check fails
    (wrong); a failed op's time counts toward the timed wall time but not
    toward the latency samples.
    """
    try:
        inputs = workload.make(index)
    except Exception as exc:  # noqa: BLE001 - a failed op is recorded, not fatal
        loop.durations.append(0.0)
        loop.wall_durations.append(0.0)
        loop.failures.append((index, "error", f"inputs: {type(exc).__name__}: {exc}"))
        return
    before = kernel_seconds()
    if tracer is not None:
        tracer.begin_op(index)
    start = time.perf_counter()
    try:
        output = workload.run(inputs)
    except Exception as exc:  # noqa: BLE001
        output, error = None, f"{type(exc).__name__}: {exc}"
    else:
        error = None
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    after = kernel_seconds()
    elapsed = wall * speed_scale(before, after)
    loop.kernel_times += (before, after)
    loop.durations.append(elapsed)
    loop.wall_durations.append(wall)
    if error is not None:
        loop.failures.append((index, "error", error))
        return
    try:
        wrong = workload.check(inputs, output)
    except Exception as exc:  # noqa: BLE001
        wrong = f"check raised {type(exc).__name__}: {exc}"
    if wrong is None:
        loop.latencies.append(elapsed)
        loop.wall_latencies.append(wall)
    else:
        loop.failures.append((index, "wrong", wrong))


def measure(workload, seconds: float, hard_limit: float, min_samples: int = MIN_SAMPLES) -> Loop:
    """Run ops 0, 1, ... until ``seconds`` have passed, at least
    ``min_samples`` ops completed and the workload's cycle of op kinds is
    whole, so every run sees the same mix; or until ``hard_limit`` seconds."""
    loop = Loop()
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= hard_limit or (
            elapsed >= seconds
            and len(loop.latencies) >= min_samples
            and index % workload.cycle == 0
        ):
            return loop
        run_op(workload, index, loop)
        index += 1


def timing(latencies, durations) -> dict:
    """``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms`` of completed-op
    latencies and attempted-op durations, in seconds."""
    latencies_ms = [value * 1e3 for value in latencies]
    total = sum(durations)
    return {
        "ops_per_s": len(latencies_ms) / total if total else 0.0,
        "op_p50_ms": percentile(latencies_ms, 50) if latencies_ms else 0.0,
        "op_p90_ms": percentile(latencies_ms, TAIL_PERCENTILE) if latencies_ms else 0.0,
    }


def end_to_end(loop: Loop, setup_s: float) -> dict:
    values = {
        **timing(loop.latencies, loop.durations),
        "fail_ratio": loop.failed / loop.attempted if loop.attempted else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def wall_figures(loop: Loop) -> dict:
    """The timed metrics as raw wall time, and the median calibration, for
    the run record."""
    return {
        **timing(loop.wall_latencies, loop.wall_durations),
        "kernel_ms": statistics.median(loop.kernel_times) * 1e3 if loop.kernel_times else 0.0,
    }


def sample_counts(loop: Loop) -> dict:
    return {
        "attempted": loop.attempted,
        "completed": len(loop.latencies),
        "failed": loop.failed,
        "beyond_p90": samples_beyond(loop.latencies, TAIL_PERCENTILE) if loop.latencies else 0,
    }


# -- set-up ------------------------------------------------------------------


def import_frvkit(src: Path):
    """Import ``frvkit`` and ``frvkit.cli``, and make sure they come from ``src``."""
    package = importlib.import_module("frvkit")
    importlib.import_module("frvkit.cli")
    origin = Path(package.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"frvkit was imported from {origin}, not from the checkout")
    return package


def set_up(src: Path, make_workload):
    """Import frvkit, build the workload and run its warm-up ops."""
    workload = make_workload(import_frvkit(src))
    workload.warm_up()
    return workload


# -- environment -------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit(root: Path):
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
    }
