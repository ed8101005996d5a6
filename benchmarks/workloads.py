"""Seeded operation lists for the four benchmark workloads.

An operation is one ``nilpath`` command line. Each workload fixes how many
operations of each size class a pass holds, and the seed draws the free
parameters (endpoints, lengths, sizes inside a stratum) and the order.
Lengths and sizes are drawn one per equal-width stratum, from its middle
``JITTER`` share where the cost grows with them, so the work in a pass
barely depends on the seed while the inputs still differ. Where the cost
swings with the endpoints themselves (``verify-theorem``, ``census``),
the endpoints come from a fixed grid and the seed draws symmetries of the
path that leave the work unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Op", "WORKLOADS", "generate"]


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the subcommand, its parameters, and its argv."""

    command: str
    params: dict = field(compare=False)
    argv: tuple[str, ...]


def _op(command: str, params: dict, flags: dict, *switches: str) -> Op:
    argv = [command]
    for name, value in flags.items():
        argv += [f"--{name}", str(value)]
    argv += list(switches) + ["--format", "json"]
    return Op(command, params, tuple(argv))


# Share of a stratum, around its middle, that a cost-setting size or
# length is drawn from.
JITTER = 0.05


def _strata(
    rng: random.Random, lo: int, hi: int, count: int, share: float = 1.0
) -> list[int]:
    """One uniform draw from the middle `share` of each of `count` equal
    strata of lo..hi, in order."""
    width = (hi - lo + 1) / count
    return [lo + int(width * (i + 0.5 + share * (rng.random() - 0.5))) for i in range(count)]


def _mixed(values: list[int]) -> list[int]:
    """A fixed, well-mixed permutation of `values`, the same for every seed."""
    return [values[j] for j in sorted(range(len(values)), key=lambda i: i * 0.618034 % 1)]


def _shuffled(rng: random.Random, values: list[int]) -> list[int]:
    rng.shuffle(values)
    return values


# m -> operations per pass. The median falls in the middle of the m = 7
# class and the 90th percentile inside the m = 9 class, away from the
# steps between classes, and each class is large enough that call-to-call
# noise averages out. m = 11 (about 2 s per operation) is left out to keep
# a pass near 2 s.
LADDER = {4: 8, 5: 8, 6: 8, 7: 8, 8: 8, 9: 12, 10: 2}


def matrix_ladder(rng: random.Random) -> list[Op]:
    ops = []
    for m, count in LADDER.items():
        n = 2**m - 1
        for _ in range(count):
            size = {"m": m} if rng.random() < 0.5 else {"n": n}
            ops.append(_op("check-nilpotent", {"n": n}, size))
    rng.shuffle(ops)
    return ops


SWEEP_FAMILY = [2**m - 1 for m in range(4, 11)]  # n = 15, 31, ..., 1023
# Other sizes, one from the middle of each seventh of 1..1100. They are
# fixed: how long check-nilpotent runs on a size outside the family
# depends on the size's arithmetic, and can change threefold between
# neighbours such as 1021 and 1025.
SWEEP_OTHER = [80, 237, 394, 551, 708, 865, 1022]
# Half the parity queries take k up to 10^4 and half up to 10^6, so that
# the cheap operations are a clear majority and the median falls among
# them rather than on the step to the expensive ones.
SWEEP_SMALL_K = 10**4
SWEEP_MAX_K = 10**6


def family_sweep(rng: random.Random) -> list[Op]:
    sizes = sorted(SWEEP_FAMILY + SWEEP_OTHER)
    # A fixed pairing of k strata with the sorted sizes keeps the parity
    # work (about k times n) the same for every seed.
    half = len(sizes) // 2
    strata = _strata(rng, 1, SWEEP_SMALL_K, half, JITTER)
    strata += _strata(rng, SWEEP_SMALL_K + 1, SWEEP_MAX_K, len(sizes) - half, JITTER)
    ks = _mixed(strata)
    ops = []
    for n, k in zip(sizes, ks):
        x, y = rng.randint(1, n), rng.randint(1, n)
        ops.append(_op("check-nilpotent", {"n": n}, {"n": n}))
        ops.append(_op("charpoly", {"n": n}, {"n": n}, "--check-monomial"))
        ops.append(
            _op(
                "walk-count",
                {"n": n, "x": x, "y": y, "k": k, "mode": "parity"},
                {"n": n, "x": x, "y": y, "k": k},
                "--parity",
            )
        )
    rng.shuffle(ops)
    return ops


# m -> verify-theorem operations per pass, k drawn from n..1.5n. The m = 5
# class holds the median and the m = 7 class the 90th percentile, each in
# its middle, where the drawn k and endpoints move them least. m = 8 (0.4
# to 1.1 s per operation) is left out to keep a pass near 2 s.
THEOREM = {3: 6, 4: 6, 5: 14, 6: 6, 7: 8}
CENSUS_PER_M = 2
EXACT_COUNTS = 8  # n <= 200, k <= 3000: at most ~900 digits
EXACT_MAX_N, EXACT_MAX_K = 200, 3000
# A count past Python's 4300-digit int-to-str limit: the CLI's exit
# contract breaks on it, and fixing that must show in the benchmark.
OVERSIZED_COUNTS = 1
OVERSIZED_N = (40, 60)
OVERSIZED_K = (16000, 17000)


def _walk_count_exact(rng: random.Random, n: int, k: int, oversized: bool) -> Op:
    x, y = rng.randint(1, n), rng.randint(1, n)
    if (k + y - x) % 2:  # keep the count nonzero: y - x and k share parity
        y += 1 if y < n else -1
    params = {"n": n, "x": x, "y": y, "k": k, "mode": "exact", "oversized": oversized}
    return _op("walk-count", params, {"n": n, "x": x, "y": y, "k": k}, "--exact")


def _queries(
    rng: random.Random, grid: str, n: int, count: int
) -> list[tuple[int, int, int]]:
    """(k, x, y) with k in n..1.5n, each coordinate stratified (Latin hypercube).

    The replay's cost swings threefold with the endpoints, so the grid of
    (k, x, y) is fixed by its name; the seed mirrors the path and swaps the
    endpoints of each query, which leaves the work unchanged.
    """
    fixed = random.Random(f"{grid}:{n}:{count}")
    ks = _strata(fixed, n, n + n // 2, count)
    xs = _shuffled(fixed, _strata(fixed, 1, n, count))
    ys = _shuffled(fixed, _strata(fixed, 1, n, count))
    queries = []
    for k, x, y in zip(ks, xs, ys):
        if rng.random() < 0.5:
            x, y = n + 1 - x, n + 1 - y
        if rng.random() < 0.5:
            x, y = y, x
        queries.append((k, x, y))
    return queries


def proof_replay(rng: random.Random) -> list[Op]:
    ops = []
    for m, count in THEOREM.items():
        n, pivot = 2**m - 1, 2 ** (m - 1)
        for k, x, y in _queries(rng, "verify-theorem", n, count):
            params = {"m": m, "k": k, "x": x, "y": y}
            ops.append(_op("verify-theorem", params, params))
        for k, x, y in _queries(rng, "census", n, CENSUS_PER_M):
            params = {"n": n, "pivot": pivot, "x": x, "y": y, "k": k}
            ops.append(_op("census", params, params))
    # The exact count's cost grows with k times n, so the pairing is fixed.
    sizes = _mixed(_strata(rng, 2, EXACT_MAX_N, EXACT_COUNTS, JITTER))
    for n, k in zip(sizes, _strata(rng, 0, EXACT_MAX_K, EXACT_COUNTS, JITTER)):
        ops.append(_walk_count_exact(rng, n, k, oversized=False))
    sizes = _strata(rng, *OVERSIZED_N, OVERSIZED_COUNTS, JITTER)
    for n, k in zip(sizes, _strata(rng, *OVERSIZED_K, OVERSIZED_COUNTS, JITTER)):
        ops.append(_walk_count_exact(rng, n, k, oversized=True))
    rng.shuffle(ops)
    return ops


# The last entries of the lists are four operations of 70 to 120 ms
# that put a cluster of similar costs around the 90th percentile, which
# otherwise lies on a steep, sparse part of the cost curve.
LEMMA = [(n, max_k) for n in range(2, 9) for max_k in (6, 8, 10, 12)] + [
    (n, 14) for n in range(5, 7)
] + [(6, 13), (4, 16)]
INVOLUTION = [(2, k) for k in (8, 10, 12, 14)] + [(3, k) for k in range(8, 12)] + [
    (4, k) for k in range(8, 11)
] + [(2, 17)]
NAIVE = [(n, k) for n in range(3, 16) for k in (8, 12, 16)] + [(7, 17)]


def walk_enumeration(rng: random.Random) -> list[Op]:
    # Enumeration cost grows like 2^k, so the sizes are fixed and the seed
    # only sets the order; drawing k would swing the pass time by seed.
    ops = [
        _op("verify-lemma", {"n": n, "max_k": k}, {"n": n, "max-k": k})
        for n, k in LEMMA
    ]
    ops += [_op("involution-test", {"m": m, "k": k}, {"m": m, "k": k}) for m, k in INVOLUTION]
    ops += [_op("naive-demo", {"n": n, "k": k}, {"n": n, "k": k}) for n, k in NAIVE]
    rng.shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "matrix-ladder": matrix_ladder,
    "family-sweep": family_sweep,
    "proof-replay": proof_replay,
    "walk-enumeration": walk_enumeration,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The operation list of one pass; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
