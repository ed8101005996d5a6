"""Expected results for benchmark operations, derived without nilpath.

Every expectation here comes from closed forms or small dynamic programs
written for the benchmark alone, so a defect in the package cannot hide
by agreeing with itself:

- nilpotency and the characteristic polynomial: the path's characteristic
  polynomial is its matching polynomial, sum_j (-1)^j C(n-j, j) x^(n-2j),
  so mod 2 the coefficient of x^(n-2j) is C(n-j, j) mod 2 (Lucas). It is
  the bare x^n exactly when n + 1 is a power of two.
- walk counts: the method of images. A walk on the path 1..n is a walk on
  the integers absorbed at 0 and n + 1, so the count is a signed sum of
  binomials over images spaced 2(n + 1) apart. Mod 2 the signs vanish and
  each binomial's parity follows from Lucas' theorem.
- census classes: the same image sums on the half-path that avoids the
  pivot, combined per visit offset.
- enumeration totals: walk-count and visit-count dynamic programs.

``check(op, code, stdout)`` compares one operation's exit code and JSON
report against these values and returns ``None`` or a one-line reason.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

from workloads import Op

__all__ = [
    "is_family",
    "charpoly_string",
    "parity_by_images",
    "count_by_images",
    "census_by_images",
    "walks_of_length",
    "class3_walks_up_to",
    "Answer",
    "answer",
    "check",
]


def is_family(n: int) -> bool:
    """True iff n = 2^m - 1 for some m >= 1."""
    return n >= 1 and (n + 1) & n == 0


def charpoly_string(n: int) -> str:
    """Characteristic polynomial of the n-path mod 2, as the CLI prints it."""
    terms = []
    for j in range(n // 2 + 1):
        if j & (n - 2 * j) == 0:  # C(n - j, j) odd
            d = n - 2 * j
            terms.append("1" if d == 0 else "x" if d == 1 else f"x^{d}")
    return " + ".join(terms)


def _images(n: int, x: int, y: int, k: int) -> Iterator[tuple[int, int]]:
    """(j, sign) for every image term C(k, j) in the walk count x -> y.

    A free walk of k steps from x to z takes j = (k + z - x) / 2 up-steps;
    images of y sit at y + 2t(n + 1) (sign +1) and -y + 2t(n + 1) (sign -1).
    """
    period = 2 * (n + 1)
    for target, sign in ((y, 1), (-y, -1)):
        d = target - x
        # smallest shift t with d + t * period >= -k
        t = -((k + d) // period)
        z = d + t * period
        while z <= k:
            if z >= -k and (k + z) % 2 == 0:
                yield (k + z) // 2, sign
            z += period


def parity_by_images(n: int, x: int, y: int, k: int) -> int:
    """Parity of the number of length-k walks x -> y on the n-path."""
    odd = 0
    for j, _ in _images(n, x, y, k):
        if j & (k - j) == 0:  # C(k, j) odd
            odd ^= 1
    return odd


def count_by_images(n: int, x: int, y: int, k: int) -> int:
    """Exact number of length-k walks x -> y on the n-path (0 when n = 0)."""
    if n < 1:
        return 0
    return sum(sign * comb(k, j) for j, sign in _images(n, x, y, k))


def census_by_images(
    n: int, pivot: int, x: int, y: int, k: int
) -> tuple[int, int, int, tuple[int, ...]]:
    """(c1, c2, c3, per-offset c2) for walks x -> y of length k.

    The vertices below the pivot form a path on pivot - 1 vertices and
    those above one on n - pivot vertices; a walk that avoids the pivot
    stays inside one of them.
    """

    def side(v: int) -> tuple[int, int]:  # (segment length, local coordinate)
        return (pivot - 1, v) if v < pivot else (n - pivot, v - pivot)

    def clean_to_pivot(v: int, steps: int) -> int:
        """Walks of `steps` steps from v whose only pivot visit is the last."""
        if v == pivot:
            return 1 if steps == 0 else 0
        if steps == 0:
            return 0
        length, local = side(v)
        neighbour = pivot - 1 if v < pivot else 1
        return count_by_images(length, local, neighbour, steps - 1)

    total = count_by_images(n, x, y, k)
    if x != pivot and y != pivot and (x < pivot) == (y < pivot):
        length, lx = side(x)
        c1 = count_by_images(length, lx, side(y)[1], k)
    else:
        c1 = 0
    per = tuple(clean_to_pivot(x, i) * clean_to_pivot(y, k - i) for i in range(k + 1))
    c2 = sum(per)
    return c1, c2, total - c1 - c2, per


def walks_of_length(n: int, k: int) -> int:
    """Number of length-k walks in the n-path, over all start and end pairs."""
    ways = [0] + [1] * n + [0]
    for _ in range(k):
        ways = [0] + [ways[v - 1] + ways[v + 1] for v in range(1, n + 1)] + [0]
    return sum(ways)


def class3_walks_up_to(n: int, pivot: int, k: int) -> int:
    """Walks of length 0..k, any endpoints, visiting the pivot at least twice."""
    # state[c][v]: walks ending at v with min(pivot visits, 2) == c
    state = [[0] * (n + 2) for _ in range(3)]
    for v in range(1, n + 1):
        state[1 if v == pivot else 0][v] = 1
    found = 0
    for length in range(k + 1):
        if length:
            nxt = [[0] * (n + 2) for _ in range(3)]
            for c in range(3):
                row = state[c]
                for v in range(1, n + 1):
                    ways = row[v - 1] + row[v + 1]
                    if ways:
                        nc = min(c + 1, 2) if v == pivot else c
                        nxt[nc][v] += ways
            state = nxt
        found += sum(state[2])
    return found


@dataclass(frozen=True)
class Answer:
    """What a correct run of one operation looks like.

    ``codes`` are the acceptable exit codes. ``rows`` maps a report row's
    check name to its required observed value. ``extra`` inspects the
    parsed report for facts that do not fit a row lookup.
    """

    codes: frozenset[int]
    rows: dict[str, object]
    extra: Callable[[dict], str | None] | None = None


def _pass_if(ok: bool) -> frozenset[int]:
    return frozenset({0 if ok else 1})


def _check_nilpotent(p: dict) -> Answer:
    n = p["n"]
    fam = is_family(n)
    rows: dict[str, object] = {
        f"A^{n} over GF(2)": "zero matrix" if fam else "nonzero matrix",
        "nilpotency index": n if fam else "none (not nilpotent)",
    }
    if n > 1:  # exactly one walk of length n - 1 joins the two ends
        rows[f"corner entry (1, {n}) of A^{n - 1}"] = 1
    return Answer(_pass_if(fam), rows)


def _charpoly(p: dict) -> Answer:
    n = p["n"]
    rows = {
        "characteristic polynomial mod 2": charpoly_string(n),
        f"equals x^{n}": "yes" if is_family(n) else "no",
    }
    return Answer(_pass_if(is_family(n)), rows)


def _walk_count(p: dict) -> Answer:
    n, x, y, k = p["n"], p["x"], p["y"], p["k"]
    if p["mode"] == "parity":
        rows = {
            f"parity of walks of length {k} from {x} to {y}": parity_by_images(n, x, y, k)
        }
        return Answer(frozenset({0}), rows)
    count = count_by_images(n, x, y, k)
    rows = {
        f"walks of length {k} from {x} to {y}": count,
        "parity route agrees mod 2": count % 2,
    }
    # a count too long to print may be refused as a usage error instead
    codes = {0, 2} if p.get("oversized") else {0}
    return Answer(frozenset(codes), rows)


def _verify_theorem(p: dict) -> Answer:
    m, k, x, y = p["m"], p["k"], p["x"], p["y"]
    n = 2**m - 1
    want = {"m": m, "n": n, "k": k, "x": x, "y": y}

    def extra(report: dict) -> str | None:
        if report["parameters"] != want:
            return f"parameters {report['parameters']} != {want}"
        if any(d["observed"] != "even" for d in report["details"][:-1]):
            return "a class row is not even"
        return None

    return Answer(frozenset({0}), {"mod-2 walk count": 0}, extra)


def _census(p: dict) -> Answer:
    c1, c2, c3, per = census_by_images(p["n"], p["pivot"], p["x"], p["y"], p["k"])
    rows = {
        "class 1 (pivot never visited)": c1,
        "class 2 (pivot visited once)": c2,
        "class 3 (pivot visited twice or more)": c3,
        "classes partition all walks": c1 + c2 + c3,
        "per-offset class-2 counts sum to class 2": c2,
        "class-2 count by visit offset": " ".join(str(c) for c in per),
    }
    return Answer(frozenset({0}), rows)


def _verify_lemma(p: dict) -> Answer:
    n, max_k = p["n"], p["max_k"]
    listed = {
        f"k = {k}: count = enumeration = matrix power, all (x, y)":
        f"{n * n} endpoint pairs, {walks_of_length(n, k)} walks listed"
        for k in range(max_k + 1)
    }

    def extra(report: dict) -> str | None:
        seen = {d["check"]: d for d in report["details"]}
        if seen.keys() != listed.keys():
            return f"rows {sorted(seen)} != {sorted(listed)}"
        for name, provenance in listed.items():
            if seen[name]["observed"] != "0 mismatches":
                return f"{name}: {seen[name]['observed']}"
            if seen[name]["provenance"] != provenance:
                return f"{name}: {seen[name]['provenance']!r} != {provenance!r}"
        return None

    return Answer(frozenset({0}), {}, extra)


def _involution_test(p: dict) -> Answer:
    m, k = p["m"], p["k"]
    n, pivot = 2**m - 1, 2 ** (m - 1)
    rows = {
        "class-3 walks tested": class3_walks_up_to(n, pivot, k),
        "image is a valid walk": 0,
        "image preserves start, end, length, class": 0,
        "no fixed points": 0,
        "applying twice restores the walk": 0,
    }
    return Answer(frozenset({0}), rows)


def _naive_demo(p: dict) -> Answer:
    n, k = p["n"], p["k"]

    def extra(report: dict) -> str | None:
        seen = {d["check"]: d["observed"] for d in report["details"]}
        if "witness walk" not in seen:
            return None
        vs = [int(v) for v in str(seen["witness walk"]).split("-")]
        if len(vs) != k + 1 or not all(1 <= v <= n for v in vs):
            return f"witness {seen['witness walk']} is not a length-{k} walk in 1..{n}"
        if any(abs(b - a) != 1 for a, b in zip(vs, vs[1:])):
            return f"witness {seen['witness walk']} has a non-unit step"
        if len(set(vs)) == len(vs):
            return f"witness {seen['witness walk']} repeats no vertex"
        return None

    # whether a witness exists is not derived here; only the contract is
    return Answer(frozenset({0, 1}), {}, extra)


_ANSWERS: dict[str, Callable[[dict], Answer]] = {
    "check-nilpotent": _check_nilpotent,
    "charpoly": _charpoly,
    "walk-count": _walk_count,
    "verify-theorem": _verify_theorem,
    "census": _census,
    "verify-lemma": _verify_lemma,
    "involution-test": _involution_test,
    "naive-demo": _naive_demo,
}


def answer(op: Op) -> Answer:
    return _ANSWERS[op.command](op.params)


@contextmanager
def _no_int_digit_limit() -> Iterator[None]:
    """Parse long counts; only ever entered while no operation is running."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def check(op: Op, expected: Answer, code: int, stdout: str) -> str | None:
    """None when the operation's exit code and report match the answer key."""
    if code not in expected.codes:
        return f"exit code {code}, expected one of {sorted(expected.codes)}"
    if code == 2:
        return None
    try:
        with _no_int_digit_limit():
            report = json.loads(stdout)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if report.get("command") != op.command:
        return f"command {report.get('command')!r} != {op.command!r}"
    verdict = "pass" if code == 0 else "fail"
    if report.get("verdict") != verdict:
        return f"verdict {report.get('verdict')!r} with exit code {code}"
    details = report.get("details")
    if not isinstance(details, list) or not details:
        return "report has no detail rows"
    disagreeing = sum(d["expected"] != d["observed"] for d in details)
    if (disagreeing == 0) != (verdict == "pass"):
        return f"verdict {verdict!r} with {disagreeing} disagreeing rows"
    seen = {d["check"]: d["observed"] for d in details}
    for name, want in expected.rows.items():
        if name not in seen:
            return f"missing row {name!r}"
        if seen[name] != want:
            return f"row {name!r}: observed {seen[name]!r}, expected {want!r}"
    return expected.extra(report) if expected.extra else None
