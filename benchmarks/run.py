"""The nilpath benchmark: one workload, closed loop, one client, in process.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload matrix-ladder --seed 1 --seconds 28 --trace 0

Each operation is one call to ``nilpath.cli.run(argv)`` with
``--format json`` and captured output, imported from this checkout's
``src/``. A pass runs the workload's whole operation list; passes repeat
until the next one would end after ``--seconds``. Untraced times are
scaled to a reference host speed by ``HostSpeed``. Every answer is checked
against ``answer_key``, which never calls nilpath. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``layer_trace`` with ``--trace 1``. A line before it
records the environment, the seed and the per-pass figures, and the same
record (with the trace spans) is written under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from answer_key import Answer, answer, check
from layer_trace import COUNTERS, INEXACT, TRACED, Tracer
from workloads import WORKLOADS, Op, generate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"


# A shared host runs the same code up to 1.5 times slower, in phases that
# last from seconds to longer than a run. A fixed pure-Python "spin" is
# timed between operations, and each operation's time is multiplied by
# REFERENCE_SPIN_S over the median of the latest spins: it is reported at
# the host speed at which a spin takes REFERENCE_SPIN_S, near the fastest
# per-run spin median seen on the reference machine (see README.md). The spin runs no nilpath code, so any
# change in nilpath's speed passes through the scaling unchanged. It mixes
# integer arithmetic with building a set of tuples, because the slow phases
# hit allocation-heavy code such as the certificate replay harder.
SPIN_LOOPS = 5000
REFERENCE_SPIN_S = 0.0013
SPIN_EVERY_S = 0.02
SPIN_WINDOW = 5


def _spin() -> float:
    t0 = perf_counter()
    x, seen = 0, set()
    for i in range(SPIN_LOOPS):
        x = (x * 33 + i) & 0xFFFFFFFF
        seen.add((i, x & 0xFFF))
    return perf_counter() - t0


class HostSpeed:
    """Scales measured times to the reference host speed.

    ``record`` appends a raw time to a list; the entry is replaced by its
    scaled value at the next spin, which runs once ``SPIN_EVERY_S`` has
    passed since the last one. Call ``spin`` before the first ``record``
    and ``flush`` before reading the lists.
    """

    def __init__(self) -> None:
        self.spins: list[float] = []
        self._pending: list[tuple[list[float], int]] = []
        self._last = 0.0

    def spin(self) -> None:
        self.spins.append(_spin())
        self._last = perf_counter()
        scale = REFERENCE_SPIN_S / statistics.median(self.spins[-SPIN_WINDOW:])
        for target, i in self._pending:
            target[i] *= scale
        self._pending.clear()

    def record(self, target: list[float], seconds: float) -> None:
        target.append(seconds)
        self._pending.append((target, len(target) - 1))
        if perf_counter() - self._last >= SPIN_EVERY_S:
            self.spin()

    def flush(self) -> None:
        if self._pending:
            self.spin()


class Setup:
    """Imports nilpath fresh from this checkout and builds the operation list.

    It is called before every pass, so that set-up is timed many times over
    the run; ``times`` holds each duration. Exits without a result when
    the package source is not in the checkout.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.times: list[float] = []

    def __call__(self) -> tuple[object, list[Op]]:
        if not (SRC / "nilpath" / "cli.py").is_file():
            sys.exit(f"benchmark: no nilpath source at {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules if m == "nilpath" or m.startswith("nilpath.")]:
            del sys.modules[name]
        t0 = perf_counter()
        cli = importlib.import_module("nilpath.cli")
        ops = generate(self.workload, self.seed)
        self.times.append(perf_counter() - t0)
        if Path(cli.__file__).resolve().parent != SRC / "nilpath":
            sys.exit(f"benchmark: imported nilpath from {cli.__file__}, not {SRC}")
        return cli, ops


def run_pass(
    cli: object, ops: list[Op], tracer: Tracer | None = None, speed: HostSpeed | None = None
) -> tuple[float, list, list[float]]:
    """Run every operation once.

    Returns the pass wall time, the raw results and, with ``speed``, the
    operations' latencies scaled to the reference host speed. ``cli.run``
    is looked up per call so that a traced binding is used.
    """
    results = []
    scaled: list[float] = []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        out, err = io.StringIO(), io.StringIO()
        # Each operation starts from a collected heap, as a fresh CLI process
        # would, so that it never pays for the garbage of the one before.
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code, error = cli.run(list(op.argv)), None
            except Exception as exc:  # an escaped exception is a failed operation
                code, error = None, f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
        results.append((code, out.getvalue(), error, latency))
        if speed is not None:
            speed.record(scaled, latency)
    wall = perf_counter() - start
    if speed is not None:
        speed.flush()
    return wall, results, scaled


class Checker:
    """Checks results against the answer key, caching each op's answer."""

    def __init__(self, ops: list[Op]) -> None:
        self.ops = ops
        self.answers: dict[int, Answer] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_failure: str | None = None

    def __call__(self, results: list) -> None:
        for i, (op, (code, out, error, _)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            if error is not None:
                reason = f"exception escaped cli.run: {error}"
            else:
                if i not in self.answers:
                    self.answers[i] = answer(op)
                reason = check(op, self.answers[i], code, out)
                self.wrong += reason is not None
            if reason is not None:
                self.failed += 1
                if self.first_failure is None:
                    self.first_failure = f"nilpath {' '.join(op.argv)}: {reason}"


def _keep_going(start: float, seconds: float, *walls: list[float]) -> bool:
    """Whether one more round of passes is projected to end within budget."""
    projected = sum(statistics.median(w) for w in walls)
    return perf_counter() - start + projected <= seconds


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def measure(setup: Setup, seconds: float, checker: Checker) -> dict:
    """Untraced passes; figures are medians of times scaled by ``HostSpeed``."""
    speed = HostSpeed()
    walls: list[float] = []
    setups: list[float] = []
    by_pass: list[list[float]] = []
    start = perf_counter()
    speed.spin()
    while True:
        cli, ops = setup()
        speed.record(setups, setup.times[-1])
        wall, results, scaled = run_pass(cli, ops, speed=speed)
        walls.append(wall)
        by_pass.append(scaled)
        checker(results)
        if not _keep_going(start, seconds, walls):
            break
    pass_s = [sum(lat) for lat in by_pass]
    latencies = [t for lat in by_pass for t in lat]
    p90 = _p90(latencies)
    return {
        "raw_pass_walls_s": walls,
        "scaled_pass_s": pass_s,
        "scaled_setup_s": setups,
        "spins": len(speed.spins),
        "spin_median_s": statistics.median(speed.spins),
        "latencies_s_by_pass": by_pass,
        "samples": len(latencies),
        "samples_above_p90": sum(t > p90 for t in latencies),
        "wall_s": statistics.median(pass_s),
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_p90_ms": p90 * 1000.0,
    }


def measure_traced(setup: Setup, seconds: float, checker: Checker) -> dict:
    """Alternate untraced and traced passes; per-layer figures are per pass."""
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    snapshots = []
    start = perf_counter()
    while True:
        cli, ops = setup()
        wall, results, _ = run_pass(cli, ops)
        plain.append(wall)
        checker(results)
        tracer.reset_totals()
        tracer.install()
        try:
            wall, results, _ = run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        checker(results)
        snapshots.append(
            (dict(tracer.calls), dict(tracer.busy), dict(tracer.self_time), dict(tracer.counts))
        )
        if not _keep_going(start, seconds, plain, traced):
            break
    def exact(counts: dict) -> dict:
        return {k: v for k, v in counts.items() if k not in INEXACT}

    repeatable = all(
        s[0] == snapshots[0][0] and exact(s[3]) == exact(snapshots[0][3]) for s in snapshots
    )
    calls, _, _, counts = snapshots[0]
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.busy_s"] = (statistics.median(s[1].get(name, 0.0) for s in snapshots), "s")
        metrics[f"{name}.self_s"] = (statistics.median(s[2].get(name, 0.0) for s in snapshots), "s")
        for key, unit in COUNTERS.get(name, {}).items():
            metrics[f"{name}.{key}"] = (counts.get(f"{name}.{key}", 0), unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return {
        "metrics": metrics,
        "plain_pass_walls_s": plain,
        "traced_pass_walls_s": traced,
        "counts_repeat_across_passes": repeatable,
        "missing_functions": tracer.missing,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped_spans,
        "spans": tracer.spans,
    }


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size").strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_cache": caches.get("l2", "unknown"),
        "l3_cache": caches.get("l3", "unknown"),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup = Setup(args.workload, args.seed)
    checker = Checker(generate(args.workload, args.seed))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": len(checker.ops),
        "env": environment(),
    }
    if args.trace:
        traced = measure_traced(setup, args.seconds, checker)
        spans = traced.pop("spans")
        metrics = traced.pop("metrics")
        record.update(traced)
    else:
        spans = None
        measured = measure(setup, args.seconds, checker)
        record.update(measured)
        metrics = {
            "wall_s": (measured["wall_s"], "s"),
            "op_p50_ms": (measured["op_p50_ms"], "ms"),
            "op_p90_ms": (measured["op_p90_ms"], "ms"),
            "success_ratio": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
            "setup_s": (measured["setup_s"], "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    record.update(
        setup_times_s=setup.times,
        attempted=checker.attempted,
        failed=checker.failed,
        wrong_answers=checker.wrong,
        fail_ratio=checker.failed / checker.attempted,
        first_failure=checker.first_failure,
    )
    result = {
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(record, spans=spans)) + "\n")
    if checker.first_failure is not None:
        print(f"first failure: {checker.first_failure}")
    record.pop("latencies_s_by_pass", None)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
