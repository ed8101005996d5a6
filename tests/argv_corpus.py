"""The argv corpus of the ``nilpath`` command line, and a dump of its answers.

The grammar of a call is read from the command table, ``cli._table`` over
``cli._COMMANDS``. The corpus holds:

- every operation of the four benchmark workloads at seeds 1 and 2;
- the calls of ``well_formed_calls`` for each command: a small call, each
  bounded flag at least - 1, least, largest and largest + 1, each group
  member, switch and ``--format`` choice, and each of those reordered;
- the small call with each int flag spelled ``--flag=value``, and with the
  value of its first flag replaced by each of ``MALFORMED``;
- the calls of ``EXTRA``, accepted calls that the rules above miss;
- ``-h`` and ``--help`` of every command and of the top level, and no
  arguments at all.

No ``nilpath`` module imports this one. As a script it answers every argv
of the corpus in one process, with the ``nilpath`` that ``PYTHONPATH``
names, and writes (argv, exit code, stdout with the elapsed time masked,
stderr) as a JSON list. With ``--against``, it then lists each argv whose
answer differs from an earlier dump and exits 1 if there is one:

    PYTHONPATH=/path/to/parent/src python tests/argv_corpus.py parent.json
    PYTHONPATH=src python tests/argv_corpus.py change.json --against parent.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import re
import runpy
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from nilpath import cli

ROOT = Path(__file__).resolve().parent.parent

# one small accepted argv per subcommand
SMALL = {
    "check-nilpotent": ["--m", "3"],
    "walk-count": ["--n", "7", "--x", "3", "--y", "2", "--k", "7"],
    "verify-lemma": ["--n", "3", "--max-k", "2"],
    "verify-theorem": ["--m", "3", "--k", "7", "--x", "3", "--y", "2"],
    "involution-test": ["--m", "3", "--k", "4"],
    "census": ["--n", "7", "--pivot", "4", "--x", "1", "--y", "1", "--k", "8"],
    "naive-demo": ["--n", "7", "--k", "6"],
    "charpoly": ["--n", "7"],
}

# the least --m of verify-theorem with endpoints on P_1: the small call's
# --x 3 lies off the one-vertex path, so its --m 1 variants exit 2; and the
# least naive-demo whose witness changes if find_naive_failure settles
# pivots one 2-exponent too early
EXTRA = [
    ["verify-theorem", "--m", "1", "--k", "5", "--x", "1", "--y", "1"],
    ["naive-demo", "--n", "15", "--k", "13"],
]

# values that no int flag takes: not integers, empty, option-like, or past
# the interpreter's int-to-text digit limit
MALFORMED = ["five", "", "1.5", "0x1f", "-", "--", "=", "--n", "9" * 4301]


def well_formed_calls(command: str) -> list[list[tuple[str, str | None]]]:
    """Calls of a command built from its ``_COMMANDS`` entry, as (flag, value)
    pairs with None for a switch: one small call, each bounded flag at least
    - 1, least, largest and largest + 1, each group member, each switch and
    each --format choice, each also in a shuffled order."""
    rng = random.Random(command)
    base = dict(zip(SMALL[command][::2], SMALL[command][1::2]))
    calls = [base]
    for row in cli._table(command)[0][1:]:  # the --format row comes first
        members = [flag for flag, _, _ in row]
        for flag, bounds, _ in row:
            # a group member replaces the others
            call = {f: v for f, v in base.items() if f == flag or f not in members}
            if not bounds:
                calls.append({**call, flag: None})
                continue
            least, largest = bounds
            near = [least - 1, least] if least is not None else []
            near += [largest, largest + 1] if largest is not None else []
            calls += [{**call, flag: str(value)} for value in near or [5]]
    calls += [{**base, "--format": choice} for choice in ("csv", "json", "text")]
    calls += [dict(rng.sample(list(call.items()), len(call))) for call in calls]
    return [[(flag, value) for flag, value in call.items()] for call in calls]


def argv_of(command: str, call: list[tuple[str, str | None]]) -> list[str]:
    return [command, *(token for pair in call for token in pair if token is not None)]


def corpus() -> list[list[str]]:
    """Every argv of the corpus, once each, in a fixed order."""
    bench = runpy.run_path(str(ROOT / "benchmarks" / "workloads.py"))
    argvs = [
        list(op.argv)
        for seed in (1, 2)
        for workload in bench["WORKLOADS"]
        for op in bench["generate"](workload, seed)
    ]
    for command, small in SMALL.items():
        argvs += [argv_of(command, call) for call in well_formed_calls(command)]
        for i in range(0, len(small), 2):
            argvs.append([command, *small[:i], f"{small[i]}={small[i + 1]}", *small[i + 2 :]])
        argvs += [[command, small[0], token, *small[2:]] for token in MALFORMED]
        argvs += [[command, "-h"], [command, "--help"]]
    argvs += EXTRA + [["-h"], ["--help"], []]
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def answer(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``nilpath`` on argv, run in this
    process. An exception that escapes ``cli.run`` is answered as the
    interpreter would end on it: exit code 1, and a traceback on stderr,
    here only its first and last lines."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:
            code = 1
            err.write("Traceback (most recent call last):\n")
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    return code, out.getvalue(), err.getvalue()


def masked(stdout: str) -> str:
    """stdout with the elapsed time of a JSON or text report replaced by ..."""
    stdout = re.sub(r'("elapsed_ms": ).*', r"\1...", stdout)
    return re.sub(r", [0-9.]+ ms\)$", ", ... ms)", stdout, flags=re.M)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--against", help="an earlier dump to compare with")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "100"  # argparse wraps help to the terminal width
    records = []
    for call in corpus():
        code, out, err = answer(call)
        records.append({"argv": call, "exit": code, "stdout": masked(out), "stderr": err})
    Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    codes = {code: sum(r["exit"] == code for r in records) for code in (0, 1, 2)}
    print(f"{len(records)} argv answered; by exit code: {codes}", file=sys.stderr)
    if args.against is None:
        return 0
    before = {tuple(r["argv"]): r for r in json.loads(Path(args.against).read_text())}
    after = {tuple(r["argv"]): r for r in records}
    differ = [argv for argv in after.keys() & before.keys() if after[argv] != before[argv]]
    for label, argvs in (
        ("answer differs", differ),
        (f"only in {args.out}", after.keys() - before.keys()),
        (f"only in {args.against}", before.keys() - after.keys()),
    ):
        for argv in sorted(argvs):
            print(f"{label}: {' '.join(argv)[:200]}", file=sys.stderr)
    print(f"{len(differ)} of {len(after.keys() & before.keys())} shared argv differ", file=sys.stderr)
    return int(bool(differ))


if __name__ == "__main__":
    raise SystemExit(main())
