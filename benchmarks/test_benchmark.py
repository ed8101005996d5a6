"""Tests of the benchmark itself: answer key, workloads, tracer, entry point.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
The answer key is checked against brute force and against the package;
the tracer's work counts must repeat exactly for the same seed.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import answer_key as key  # noqa: E402
from layer_trace import COUNTERS, INEXACT, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

import nilpath  # noqa: E402
import nilpath.cli  # noqa: E402


def _walk_counts(n: int, x: int, k: int) -> list[int]:
    counts = [0] * (n + 2)
    counts[x] = 1
    for _ in range(k):
        counts = [0] + [counts[v - 1] + counts[v + 1] for v in range(1, n + 1)] + [0]
    return counts


def _all_walks(n: int, length: int):
    for start in range(1, n + 1):
        for steps in itertools.product((-1, 1), repeat=length):
            vs = [start]
            for s in steps:
                vs.append(vs[-1] + s)
            if all(1 <= v <= n for v in vs):
                yield vs


def test_image_counts_match_the_stepping_recurrence():
    for n in range(1, 13):
        for x in range(1, n + 1):
            for k in range(0, 31):
                counts = _walk_counts(n, x, k)
                for y in range(1, n + 1):
                    assert key.count_by_images(n, x, y, k) == counts[y]
                    assert key.parity_by_images(n, x, y, k) == counts[y] % 2


def test_parity_oracle_matches_the_package_on_random_cases():
    rng = random.Random(7)
    for _ in range(3000):
        n = rng.randint(1, 60)
        x, y, k = rng.randint(1, n), rng.randint(1, n), rng.randint(0, 300)
        assert key.parity_by_images(n, x, y, k) == nilpath.count_walks_parity(n, x, y, k)


def test_charpoly_string_matches_the_package_and_the_family():
    for n in range(0, 300):
        assert key.charpoly_string(n) == str(nilpath.charpoly_path(n))
        if n:
            assert (key.charpoly_string(n) == ("x" if n == 1 else f"x^{n}")) == key.is_family(n)


def test_census_matches_the_package():
    rng = random.Random(3)
    for m in (2, 3, 4, 5):
        n, pivot = 2**m - 1, 2 ** (m - 1)
        for _ in range(40):
            x, y, k = rng.randint(1, n), rng.randint(1, n), rng.randint(0, 2 * n)
            c = nilpath.class_census(n, pivot, x, y, k)
            assert key.census_by_images(n, pivot, x, y, k) == (c.c1, c.c2, c.c3, c.per_step_c2)


def test_enumeration_totals_match_brute_force():
    for n in range(1, 7):
        for length in range(0, 9):
            assert key.walks_of_length(n, length) == sum(1 for _ in _all_walks(n, length))
    for m in (2, 3):
        n, pivot = 2**m - 1, 2 ** (m - 1)
        for k in range(0, 9):
            brute = sum(
                1
                for length in range(k + 1)
                for vs in _all_walks(n, length)
                if vs.count(pivot) >= 2
            )
            assert key.class3_walks_up_to(n, pivot, k) == brute


@pytest.mark.parametrize("seed", range(5))
def test_exact_counts_sit_on_the_intended_side_of_the_digit_limit(seed):
    ops = [op for op in generate("proof-replay", seed) if op.command == "walk-count"]
    assert sum(op.params["oversized"] for op in ops) == 1
    for op in ops:
        p = op.params
        digits = key.count_by_images(p["n"], p["x"], p["y"], p["k"]).bit_length() * 0.30103
        if p["oversized"]:
            assert digits > 4400
        else:
            assert digits < 1000


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workloads_repeat_per_seed(workload):
    first = generate(workload, 11)
    assert first == generate(workload, 11)
    assert first != generate(workload, 12)
    assert all(op.argv[-2:] == ("--format", "json") for op in first)


def test_family_sweep_draws_one_k_per_stratum():
    ks = sorted(op.params["k"] for op in generate("family-sweep", 3) if op.command == "walk-count")
    small, large = ks[: len(ks) // 2], ks[len(ks) // 2 :]
    assert [int((k - 1) // (10**4 / len(small))) for k in small] == list(range(len(small)))
    width = (10**6 - 10**4) / len(large)
    assert [int((k - 10**4 - 1) // width) for k in large] == list(range(len(large)))


def _run_one(op):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = nilpath.cli.run(list(op.argv))
    return code, out.getvalue()


def _cheap(op) -> bool:
    p = op.params
    return {
        "check-nilpotent": lambda: p["n"] <= 300,
        "charpoly": lambda: True,
        "walk-count": lambda: p["k"] <= 3000,
        "verify-theorem": lambda: p["m"] <= 6,
        "census": lambda: True,
        "verify-lemma": lambda: p["max_k"] <= 10,
        "involution-test": lambda: p["m"] <= 3 and p["k"] <= 10,
        "naive-demo": lambda: True,
    }[op.command]()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_package_answers_agree_with_the_key(workload):
    for op in filter(_cheap, generate(workload, 5)):
        code, out = _run_one(op)
        assert key.check(op, key.answer(op), code, out) is None, op.argv


def test_key_rejects_wrong_answers():
    op = next(op for op in generate("family-sweep", 1) if op.command == "walk-count")
    code, out = _run_one(op)
    expected = key.answer(op)
    assert key.check(op, expected, code, out) is None
    report = json.loads(out)
    report["details"][0]["observed"] ^= 1
    report["details"][0]["expected"] ^= 1
    assert key.check(op, expected, code, json.dumps(report)) is not None
    assert key.check(op, expected, 1, out) is not None
    assert key.check(op, expected, 3, out) is not None
    assert key.check(op, expected, code, "not json") is not None


def _traced_totals(ops):
    tracer = Tracer()
    with tracer:
        for op in ops:
            try:
                _run_one(op)
            except ValueError:
                pass
    counts = {k: v for k, v in tracer.counts.items() if k not in INEXACT}
    return tracer, dict(tracer.calls), counts


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_trace_counts_repeat_exactly(workload):
    ops = [op for op in generate(workload, 2) if _cheap(op)]
    tracer, calls, counts = _traced_totals(ops)
    _, calls_again, counts_again = _traced_totals(ops)
    assert calls == calls_again and counts == counts_again
    assert calls["cli.run"] == len(ops) == calls["report.render"]
    for name in TRACED:
        assert tracer.self_time[name] <= tracer.busy[name] + 1e-9
    ids = {span[0] for span in tracer.spans}
    assert all(parent is None or parent in ids for _, parent, *_ in tracer.spans)


def test_tracer_sees_calls_across_modules_and_restores_them():
    original_run = nilpath.cli.run
    original_render = nilpath.cli._RENDERERS["json"]
    op = next(op for op in generate("walk-enumeration", 1) if op.command == "naive-demo")
    tracer, calls, counts = _traced_totals([op])
    assert nilpath.cli.run is original_run
    assert nilpath.cli._RENDERERS["json"] is original_render
    assert calls["proofcheck.find_naive_failure"] == 1
    assert counts["walks.iter_walks_from.walks_yielded"] > 0
    assert tracer.busy["walks.iter_walks_from"] > 0
    assert not tracer.missing


def _bench(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["family-sweep", "walk-enumeration"])
def test_full_pass_counts_repeat_across_processes(workload):
    def per_layer_counts():
        proc = _bench("--workload", workload, "--seed", "4", "--seconds", "0",
                      "--trace", "1", cwd=HERE.parent)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
        assert {(m["name"], m["unit"]) for m in declared} == {
            (name, m["unit"]) for name, m in result["metrics"].items()
        }
        return {
            name: m["value"]
            for name, m in result["metrics"].items()
            if not name.endswith("_s") and name not in INEXACT
        }

    counts = per_layer_counts()
    assert counts == per_layer_counts()
    names = {f"{n}.calls" for n in TRACED} | {f"{n}.{c}" for n, cs in COUNTERS.items() for c in cs}
    assert names - INEXACT == set(counts)


def test_end_to_end_metrics_match_the_declaration():
    proc = _bench("--workload", "matrix-ladder", "--seed", "3", "--seconds", "0",
                  "--trace", "0", cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert {(m["name"], m["unit"]) for m in declared} == {
        (name, m["unit"]) for name, m in result["metrics"].items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "matrix-ladder", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
