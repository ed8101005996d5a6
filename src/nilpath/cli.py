"""Command-line front end for the nilpotency and walk-parity checks.

Every subcommand runs one verification and prints a single report: a
table by default, or one JSON object / CSV detail rows with ``--format``.
Exit status is 0 when every report row matches its expectation, 1 when
some row does not, and 2 for usage errors such as malformed integers or
an input outside a command's size limits. Each subcommand is declared
once, in ``_COMMANDS``: its flags with their size limits beside them, and
its work estimates. ``_table`` is the one decoder of an entry, and three
readers share what it decodes: ``_parse`` reads a well-formed call;
argparse, built on first use, serves help, usage errors and any other
spelling; and ``_check_limits`` checks the limits once after parsing,
before any work starts. A handler returns its parameters and report
rows; ``run`` times it and builds the one report, named after the
command, from them.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from collections.abc import Sequence

from .charpoly import charpoly_path
from .gf2 import nilpotency_index
from .proofcheck import (
    ReflectionOutOfBounds,
    _reflect,
    class2_by_sides,
    class_census,
    find_naive_failure,
    naive_pivot,
    reflect_class3,
    theorem_check,
)
from .report import Detail, ParityReport, render_csv, render_json, render_text
from .walks import (
    _count_exact,
    _count_vectors,
    _integer_powers,
    _parity_vector,
    _walks,
    count_walks_exact,
    count_walks_parity,
    path_adjacency,
    walk_is_valid,
)

__all__ = ["run", "console_main"]

_RENDERERS = {"text": render_text, "json": render_json, "csv": render_csv}
# the one flag every subcommand takes, first, in the switch-row form of _COMMANDS
_FORMAT = ("--format", {"choices": sorted(_RENDERERS), "default": "text",
                        "help": "report format (default: text)"})


def _walks_listed(n: int, k: int) -> int:
    """Walks of length at most k from every vertex: the sum of 1^T A^t 1."""
    return sum(sum(counts) for counts in _count_vectors(n, None, k))


def _value_row(check: str, value: object, provenance: str) -> Detail:
    """A report row that states a result rather than testing one."""
    return Detail(check, value, value, provenance)


def _cmd_check_nilpotent(args: argparse.Namespace) -> tuple[dict, Sequence[Detail]]:
    if args.m is not None:
        m, n = args.m, 2**args.m - 1
    else:
        # tag n with m when n + 1 is a power of two
        n = args.n
        m = n.bit_length() if (n + 1) & n == 0 else None
    # nilpotency_index is None exactly when A^n is nonzero, so its one
    # power chain answers both of the first two rows
    index = nilpotency_index(path_adjacency(n))
    details = [
        Detail(
            f"A^{n} over GF(2)",
            "zero matrix",
            "zero matrix" if index is not None else "nonzero matrix",
            "square-and-multiply on bit-packed rows",
        ),
        Detail(
            "nilpotency index",
            n,
            index if index is not None else "none (not nilpotent)",
            "smallest e with A^e = 0",
        ),
        # the same entry as bit (1, n) of A^(n-1), by Frobenius doubling on
        # the mirrored cycle; at n = 1 it is the one entry of A^0 = I
        Detail(
            f"corner entry (1, {n}) of A^{n - 1}",
            1,
            count_walks_parity(n, 1, n, n - 1),
            "the length bound is tight: one walk spans the whole path",
        ),
        # e_1 is a cyclic vector of A, so A^n = 0 iff A^n e_1 = 0: a second
        # route to the first row that shares nothing with the power chain
        Detail(
            f"A^{n} e_1 over GF(2)",
            "zero vector",
            "zero vector" if _parity_vector(n, 1, n) == 0 else "nonzero vector",
            "e_1 is a cyclic vector; Frobenius doubling on the mirrored cycle",
        ),
    ]
    return {"m": m, "n": n}, details


def _cmd_walk_count(args: argparse.Namespace) -> tuple[dict, Sequence[Detail]]:
    n, x, y, k = args.n, args.x, args.y, args.k
    params = {"n": n, "x": x, "y": y, "k": k, "mode": args.mode}
    details = []
    if args.mode == "exact":
        count = count_walks_exact(n, x, y, k)
        details.append(
            _value_row(
                f"walks of length {k} from {x} to {y}",
                count,
                "method of images on the mirrored cycle",
            )
        )
        details.append(
            Detail(
                "parity route agrees mod 2",
                count % 2,
                count_walks_parity(n, x, y, k),
                "Frobenius doubling on the mirrored cycle",
            )
        )
    else:
        details.append(
            _value_row(
                f"parity of walks of length {k} from {x} to {y}",
                count_walks_parity(n, x, y, k),
                "Frobenius doubling on the mirrored cycle",
            )
        )
    return params, details


def _cmd_verify_lemma(args: argparse.Namespace) -> tuple[dict, Sequence[Detail]]:
    n, max_k = args.n, args.max_k
    params = {"n": n, "max_k": max_k}
    # listed[k][x - 1][y - 1]: the length-k walks x -> y, from one DFS per x
    listed = [[[0] * n for _ in range(n)] for _ in range(max_k + 1)]
    for x in range(1, n + 1):
        rows = [table[x - 1] for table in listed]
        for vs in _walks(n, x, max_k):
            rows[len(vs) - 1][vs[-1] - 1] += 1
    details = []
    ends = range(1, n + 1)
    for k, power in enumerate(_integer_powers(n, max_k)):
        walks = listed[k]
        counted = [[_count_exact(n, x, y, k) for y in ends] for x in ends]
        mismatches = 0
        if not counted == walks == power:  # a pair counts once, however many routes differ
            mismatches = sum(
                not c == w == p for r in zip(counted, walks, power) for c, w, p in zip(*r)
            )
        details.append(
            Detail(
                f"k = {k}: count = enumeration = matrix power, all (x, y)",
                "0 mismatches",
                f"{mismatches} mismatches",
                f"{n * n} endpoint pairs, {sum(map(sum, walks))} walks listed",
            )
        )
    return params, details


def _cmd_verify_theorem(args: argparse.Namespace) -> tuple[dict, Sequence[Detail]]:
    if args.all:
        if any(v is not None for v in (args.m, args.k, args.x, args.y)):
            raise ValueError("--all cannot be combined with --m/--k/--x/--y")
        details = []
        for m in range(1, 5):
            n = 2**m - 1
            for k in range(n, n + 5):
                failures = []
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        if not theorem_check(m, k, x, y).passed:
                            failures.append((x, y))
                details.append(
                    Detail(
                        f"m = {m}, k = {k}: every endpoint pair even",
                        "0 failures",
                        f"{len(failures)} failures"
                        + (f" at {failures[:3]}" if failures else ""),
                        f"{n * n} endpoint pairs certified",
                    )
                )
        return {"all": True}, details
    missing = [
        name
        for name, v in (("--m", args.m), ("--k", args.k), ("--x", args.x), ("--y", args.y))
        if v is None
    ]
    if missing:
        raise ValueError(f"needs {' '.join(missing)} (or --all)")
    report = theorem_check(args.m, args.k, args.x, args.y)
    return report.parameters, report.details


def _cmd_involution_test(args: argparse.Namespace) -> tuple[dict, Sequence[Detail]]:
    n, k = 2**args.m - 1, args.k
    pivot = 2 ** (args.m - 1)
    params = {"m": args.m, "n": n, "k": k, "pivot": pivot}
    tested = 0
    bad_walk = bad_fixed = bad_preserve = bad_double = 0
    # one DFS per start vertex covers every length 0..k; its walks are
    # valid, so they are classified by counting pivot visits and reflected
    # unchecked, and only the images are validated
    for start in range(1, n + 1):
        for vs in _walks(n, start, k):
            if vs.count(pivot) < 2:
                continue
            tested += 1
            image = _reflect(n, vs, pivot)
            if image == vs:
                bad_fixed += 1
            # the checks below and _reflect take valid walks only
            if not walk_is_valid(n, image):
                bad_walk += 1
                continue
            if not (
                image[0] == vs[0]
                and image[-1] == vs[-1]
                and len(image) == len(vs)
                and image.count(pivot) >= 2
            ):
                bad_preserve += 1
            if _reflect(n, image, pivot) != vs:
                bad_double += 1
    src = f"all class-3 walks of length <= {k}, pivot {pivot}"
    details = [
        _value_row("class-3 walks tested", tested, src),
        Detail("image is a valid walk", 0, bad_walk, src),
        Detail("image preserves start, end, length, class", 0, bad_preserve, src),
        Detail("no fixed points", 0, bad_fixed, src),
        Detail("applying twice restores the walk", 0, bad_double, src),
    ]
    return params, details


def _cmd_census(args: argparse.Namespace) -> tuple[dict, Sequence[Detail]]:
    n, pivot, x, y, k = args.n, args.pivot, args.x, args.y, args.k
    census = class_census(n, pivot, x, y, k)
    total = count_walks_exact(n, x, y, k)
    params = {"n": n, "pivot": pivot, "x": x, "y": y, "k": k}
    details = [
        _value_row("class 1 (pivot never visited)", census.c1, "pivot-avoiding count"),
        _value_row("class 2 (pivot visited once)", census.c2, "prefix times suffix counts"),
        _value_row(
            "class 3 (pivot visited twice or more)",
            census.c3,
            "first pivot visit times returning suffix counts",
        ),
        Detail(
            "classes partition all walks",
            total,
            census.total,
            "total by the method of images",
        ),
        Detail(
            "per-offset class-2 counts sum to class 2",
            class2_by_sides(n, pivot, x, y, k),
            sum(census.per_step_c2),
            f"offsets 0..{k}",
        ),
        _value_row(
            "class-2 count by visit offset",
            " ".join(str(c) for c in census.per_step_c2),
            "offset i = pivot reached after exactly i steps",
        ),
    ]
    return params, details


def _cmd_naive_demo(args: argparse.Namespace) -> tuple[dict, Sequence[Detail]]:
    n, k = args.n, args.k
    witness = find_naive_failure(n, k)
    params = {"n": n, "k": k}
    details = [
        Detail(
            "some walk escapes the naive reflection",
            "witness found",
            "witness found" if witness is not None else "none at this size",
            "lexicographic scan over every start vertex",
        )
    ]
    if witness is not None:
        pivot = naive_pivot(witness)
        try:
            reflect_class3(n, witness, pivot)
            outcome, escape = "stayed in bounds", None
        except ReflectionOutOfBounds as exc:
            outcome, escape = "out of bounds", str(exc)
        details.append(
            _value_row("witness walk", "-".join(map(str, witness)), "first in scan order")
        )
        details.append(
            _value_row(
                "its naive pivot", pivot, "repeated vertex with maximal 2-exponent"
            )
        )
        details.append(
            Detail(
                "reflecting at the naive pivot",
                "out of bounds",
                outcome,
                "the pivot is off-center, so the mirror leaves the path",
            )
        )
        if escape is not None:
            details.append(_value_row("escape detail", escape, "reflection attempt"))
    return params, details


def _cmd_charpoly(args: argparse.Namespace) -> tuple[dict, Sequence[Detail]]:
    n = args.n
    poly = charpoly_path(n)
    params = {"n": n, "check_monomial": args.check_monomial}
    details = [
        _value_row(
            "characteristic polynomial mod 2",
            str(poly),
            "matching polynomial, Kummer's theorem",
        )
    ]
    if args.check_monomial:
        details.append(
            Detail(
                f"equals x^{n}",
                "yes",
                "yes" if poly.bits == 1 << n else "no",
                "every coefficient below the top vanishes",
            )
        )
    return params, details


# Every subcommand, declared once as (handler, help, flag rows, work rows).
# _table alone decodes the flag rows, for its three readers: _parse and
# _build_parser, which make the arguments, and _check_limits, which makes
# the size checks after parsing and before the handler runs.
# - A flag row (flag, least, largest[, keywords]) is an int flag, required
#   unless its argparse keywords say otherwise, whose value must lie in
#   least..largest; None leaves a side open.
# - A row (flag, keywords) is a switch, added with those keywords alone.
# - A list of two or more rows is a mutually exclusive group, required
#   when its members are int flags.
# - A work row (flags, largest, estimate, says) bounds estimate(args), a
#   count of the work the command would do. The refusal states the values
#   of its flags, then says, filled in with the estimate and the limit.
# Work rows run in order after every flag row, so an estimate only sees
# flags already in range. Times are one process at the largest accepted
# input, on 2 cores. The two enumerating commands keep a fixed length
# bound of 24 besides their walks rows: the walks-listed estimate costs
# O(nk), so it must only see an in-range k, and a path of one or two
# vertices lists few walks at any length, so its walks row alone would
# never refuse.
_LISTS = "lists {value} walks, above the limit {limit}"
_OPEN = (None, None, {"required": False})  # an unbounded flag that may be left out
_COMMANDS: dict[str, tuple] = {
    # the n x n matrix and its powers as n-bit rows: --n 32767 takes 2.3 to
    # 3.3 s and 530 MiB; --m is checked before 2^m is formed
    "check-nilpotent": (
        _cmd_check_nilpotent,
        "raise the adjacency matrix to the n-th power and inspect it",
        [[("--m", 1, 15, {"help": "use n = 2^m - 1 vertices"}),
          ("--n", 1, 2**15 - 1, {"help": "explicit vertex count"})]],
        [],
    ),
    # the parity route rotates a 2(n + 1)-bit state for each bit of k:
    # 0.55 s at --n 16777215 with --k 2^64 - 1. The exact route sums
    # binomials of up to k bits, so --exact also bounds --k, last: about
    # 0.5 s at --n 16777216 --k 32766 or 32767, the slowest, where the
    # parity cross-check dominates; 0.23 s at --n 2 --k 32767.
    "walk-count": (
        _cmd_walk_count,
        "count walks between two vertices, exactly or mod 2",
        [("--n", 1, 2**24), ("--x", None, None), ("--y", None, None), ("--k", 0, None),
         [("--exact", {"dest": "mode", "action": "store_const", "const": "exact",
                       "default": "exact"}),
          ("--parity", {"dest": "mode", "action": "store_const", "const": "parity"})]],
        [("--n --k", 2**30, lambda a: (a.n + 1) * a.k.bit_length(),
          "rotates {value} state bits, above the limit {limit}"),
         ("--k", 2**15, lambda a: a.k if a.mode == "exact" else 0,
          "exceeds the limit {limit}")],
    ),
    # one matrix product and n^2 unchecked exact counts per length: 0.32 s
    # and 22 MiB at --n 256 --max-k 8, which lists 129,104 walks
    "verify-lemma": (
        _cmd_verify_lemma,
        "check count = enumeration = matrix power for k = 0..max-k",
        [("--n", 1, 256), ("--max-k", 0, 24)],
        [("--n --max-k", 2**17, lambda a: _walks_listed(a.n, a.max_k), _LISTS)],
    ),
    # about 2^(m-1) visit offsets, whatever --k is: 0.4 s at the limit
    "verify-theorem": (
        _cmd_verify_theorem,
        "certify even walk counts for k >= n = 2^m - 1",
        [("--m", 1, 20, {"required": False}), ("--k", *_OPEN), ("--x", *_OPEN),
         ("--y", *_OPEN),
         ("--all", {"action": "store_true",
                    "help": "sweep m <= 4, n <= k <= n + 4, every endpoint pair"})],
        [],
    ),
    # --m 1 is refused: the one vertex of P_1 is its midpoint, and it has
    # no class-3 walk to reflect; 0.12 s at --m 10 --k 6, which lists
    # 129,575 walks
    "involution-test": (
        _cmd_involution_test,
        "exhaustively test the midpoint reflection on class-3 walks",
        [("--m", 2, 10), ("--k", 0, 24, {"help": "test lengths 0..k"})],
        [("--m --k", 2**17, lambda a: _walks_listed(2**a.m - 1, a.k), _LISTS)],
    ),
    # k + 1 exact counts of up to k bits per stream, all printed in
    # decimal: 1.4 s at --n 1024 --k 4096
    "census": (
        _cmd_census,
        "exact class sizes for one (pivot, x, y, k) choice",
        [("--n", 1, 1024), ("--pivot", None, None), ("--x", None, None),
         ("--y", None, None), ("--k", 0, 4096)],
        [],
    ),
    # no walks row: the scan stops at its first witness and skips settled
    # pivots; 0.2 s at --n 7 --k 22, and 0.07 s at --n 1022 --k 0, where no
    # witness exists
    "naive-demo": (
        _cmd_naive_demo,
        "search for a walk where the divisibility-pivot reflection escapes",
        [("--n", 1, 1024), ("--k", 0, 22)],
        [],
    ),
    # the matching polynomial, a bit test per term: 0.09 s at the limit
    "charpoly": (
        _cmd_charpoly,
        "characteristic polynomial of the path adjacency matrix mod 2",
        [("--n", 0, 2**17), ("--check-monomial", {"action": "store_true"})],
        [],
    ),
}


@functools.cache
def _table(command: str) -> tuple[list, dict, dict, set]:
    """The one decoder of a command's ``_COMMANDS`` entry, ``--format`` row
    first: each row as (flag, bounds, keywords) members, with no bounds for
    a switch; each flag's dest, what it takes (``int``, its choices, or None
    for a switch), the value a switch stores, its row and its bounds; the
    namespace argparse starts from; and the rows of which one flag must be
    given."""
    spec = _COMMANDS[command][2]
    rows, flags, defaults, required = [], {}, {}, set()
    for row, entry in enumerate((_FORMAT, *spec)):
        rows.append([])
        for flag, *bounds in entry if isinstance(entry, list) else [entry]:
            kw = bounds.pop() if bounds and isinstance(bounds[-1], dict) else {}
            rows[row].append((flag, bounds, kw))
            dest = kw.get("dest", flag[2:].replace("-", "_"))
            flags[flag] = (dest, int if bounds else kw.get("choices"), kw.get("const", True), row, bounds)
            # the first flag of a dest sets its default, as in argparse
            store_true = kw.get("action") == "store_true"
            defaults.setdefault(dest, kw.get("default", False if store_true else None))
        if all(bounds and kw.get("required", True) for _, bounds, kw in rows[row]):
            required.add(row)
    return rows, flags, {**defaults, "command": command}, required


def _check_limits(args: argparse.Namespace) -> None:
    """The one size check: refuse any value outside its row of ``_COMMANDS``."""
    flags = _table(args.command)[1]
    for flag, (dest, _, _, _, bounds) in flags.items():
        value = getattr(args, dest) if bounds else None
        if value is None:
            continue  # a switch, or an optional flag left out, as with --all
        least, largest = bounds
        if least is not None and value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
        if largest is not None and value > largest:
            raise ValueError(f"{flag} {value} exceeds the limit {largest}")
    for names, largest, estimate, says in _COMMANDS[args.command][3]:
        value = estimate(args)
        if value > largest:
            stated = " ".join(f"{flag} {getattr(args, flags[flag][0])}" for flag in names.split())
            raise ValueError(f"{stated} {says.format(value=value, limit=largest)}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand, built once per process from
    ``_table``, and only for argv that ``_parse`` declines: help, usage
    errors and the spellings of a call that only argparse accepts."""
    parser = argparse.ArgumentParser(
        prog="nilpath",
        description=(
            "Verify that path-graph adjacency matrices on 2^m - 1 vertices "
            "are nilpotent over GF(2), and exercise the walk-counting "
            "argument behind that fact."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        rows, _, _, required = _table(command)
        for row, members in enumerate(rows):
            # argparse requires a group as a whole, never its members
            group = len(members) > 1 and p.add_mutually_exclusive_group(required=row in required)
            for flag, bounds, kw in members:
                if bounds:
                    kw = {"type": int, "required": not group and row in required, **kw}
                (group or p).add_argument(flag, **kw)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a well-formed call, read straight from
    its command's ``_COMMANDS`` entry; None for any other argv, which
    ``run`` hands to argparse to answer as it always has.

    A well-formed call is a command, then exact option strings of that
    command: an int flag followed by a value that does not start with "-"
    and that ``int`` accepts, ``--format`` followed by one of its choices,
    or a switch. At most one flag of each row or group is given, so none
    twice, and one of each required row or group.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, flags, defaults, required = _table(argv[0])
    args, seen, tokens = argparse.Namespace(**defaults), set(), iter(argv[1:])
    for flag in tokens:
        if flag not in flags or flags[flag][3] in seen:
            return None
        dest, takes, value, row, _ = flags[flag]
        seen.add(row)
        if takes is not None:  # an int flag or --format, not a switch
            value = next(tokens, "-")
            if value.startswith("-") or takes is not int and value not in takes:
                return None
            try:
                value = int(value) if takes is int else value
            except ValueError:
                return None
        setattr(args, dest, value)
    return args if required <= seen else None


def _render(fmt: str, report: ParityReport) -> str:
    """Render in full, however many digits an exact count has.

    Python 3.11 (and 3.10 from 3.10.7) refuses to convert integers of more
    than 4300 digits to text; ``walk-count --exact`` produces such counts
    for long walks. The limit is lifted for this call only.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return _RENDERERS[fmt](report)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return _RENDERERS[fmt](report)
    finally:
        sys.set_int_max_str_digits(limit)


def run(argv: Sequence[str]) -> int:
    """Parse argv, run one subcommand, build and print its one report, and
    return the exit code, which the report's rows decide."""
    try:
        args = _parse(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        _check_limits(args)
        started = time.perf_counter()
        params, details = _COMMANDS[args.command][0](args)
    except ValueError as exc:
        print(f"nilpath {args.command}: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = ParityReport(args.command, params, tuple(details), elapsed_ms)
    sys.stdout.write(_render(args.format, report))
    return 0 if report.passed else 1


def console_main() -> None:
    raise SystemExit(run(sys.argv[1:]))
