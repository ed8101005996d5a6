import csv
import io
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nilpath
from nilpath import cli
from nilpath.charpoly import GF2Poly
from nilpath.cli import run
from nilpath.gf2 import GF2Matrix
from nilpath.proofcheck import ClassCensus, class_census
from nilpath.report import Detail, ParityReport, render_json
from nilpath.walks import iter_walks_from

from argv_corpus import EXTRA, MALFORMED, SMALL, answer, argv_of, corpus, well_formed_calls


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def failing_rows(capsys, *argv):
    """The checks of the rows that fail, for a call that must fail cleanly:
    exit 1, verdict "fail" and nothing on stderr."""
    code, parsed, err = run_json(capsys, *argv)
    assert (code, parsed["verdict"], err) == (1, "fail", "")
    return [d["check"] for d in parsed["details"] if d["expected"] != d["observed"]]


def int_digit_limit():
    """The interpreter's int-to-text digit limit, or None where it has none."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return None if get_limit is None else get_limit()


@contextmanager
def no_int_digit_limit():
    limit = int_digit_limit()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def flag_bounds(command):
    """(flag, least, largest) of each int flag of a command in ``cli._COMMANDS``."""
    flags = cli._table(command)[1]
    return [(flag, *spec[4]) for flag, spec in flags.items() if spec[4]]


# the largest value of each bounded flag row and each work row of the CLI's
# command table, keyed by the command and the flags the row names; the one
# finite --k bound of walk-count is its --exact work row
LARGEST = {
    (command, flag): largest
    for command in cli._COMMANDS
    for flag, _, largest in flag_bounds(command)
    if largest is not None
} | {(command, row[0]): row[1] for command, spec in cli._COMMANDS.items() for row in spec[3]}
BIG_K = str(10**1000)


def refusing(route, name, oversized):
    """``route``, failing the test when it is called on an oversized input."""

    def checked(*args):
        # an oversized input would only get here if it were not refused
        assert not oversized(*args), f"{name} started on an oversized input"
        return route(*args)

    return checked


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check-nilpotent", "--m", "3")
        assert code == 0
        assert "PASS" in out

    def test_fail_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "check-nilpotent", "--n", "2")
        assert code == 1
        assert "FAIL" in out

    def test_unknown_command_is_two(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_malformed_integer_is_two(self, capsys):
        assert run_cli(capsys, "check-nilpotent", "--m", "three")[0] == 2

    def test_missing_required_flag_is_two(self, capsys):
        assert run_cli(capsys, "walk-count", "--n", "5")[0] == 2

    def test_no_command_is_two(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_help_is_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "argv, says",
        [
            (
                ["walk-count", "--n", "5"],
                "nilpath walk-count: error: the following arguments are required: "
                "--x, --y, --k",
            ),
            (
                ["check-nilpotent", "--m", "3", "--n", "7"],
                "nilpath check-nilpotent: error: argument --n: not allowed with argument --m",
            ),
            (
                ["check-nilpotent"],
                "nilpath check-nilpotent: error: one of the arguments --m --n is required",
            ),
            (
                ["walk-count", "--n", "7", "--x", "1", "--y", "1", "--k", "2",
                 "--exact", "--parity"],
                "nilpath walk-count: error: argument --parity: not allowed with argument "
                "--exact",
            ),
            (["charpoly", "--n", "5", "--bogus"], "nilpath: error: unrecognized arguments: --bogus"),
            # a command after an unknown option is still parsed by its own parser
            (
                ["--format=json", "charpoly", "--n", "5"],
                "nilpath: error: unrecognized arguments: --format=json",
            ),
            (
                ["--bogus", "walk-count", "--n", "5"],
                "nilpath walk-count: error: the following arguments are required: "
                "--x, --y, --k",
            ),
        ],
    )
    def test_usage_errors_keep_the_argparse_message(self, capsys, argv, says):
        # the usage line above it wraps with the terminal width, so only the
        # last stderr line is pinned
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == says

    def test_domain_error_is_two_with_message(self, capsys):
        code, _, err = run_cli(capsys, "walk-count", "--n", "5", "--x", "9", "--y", "1", "--k", "2")
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize(
        "argv, says",
        [
            (["verify-lemma", "--n", "0", "--max-k", "2"], "--n"),
            (["verify-lemma", "--n", "3", "--max-k", "-1"], "--max-k"),
            (["involution-test", "--m", "3", "--k", "-1"], "--k"),
            (["naive-demo", "--n", "7", "--k", "-1"], "--k"),
            (["naive-demo", "--n", "7", "--k", "99"], "--k 99"),
            (["charpoly", "--n", "-1"], "--n"),
            (
                ["census", "--n", "7", "--pivot", "4", "--x", "1", "--y", "1", "--k", "4097"],
                "--k 4097 exceeds the limit 4096",
            ),
            (
                ["census", "--n", "7", "--pivot", "0", "--x", "1", "--y", "1", "--k", "3"],
                "pivot = 0",
            ),
            (
                ["verify-theorem", "--m", "-1", "--k", "-1", "--x", "1", "--y", "1"],
                "m must be at least 1",
            ),
            (
                ["census", "--n", "1025", "--pivot", "4", "--x", "1", "--y", "1", "--k", "3"],
                "--n 1025 exceeds the limit 1024",
            ),
            (
                ["census", "--n", "7", "--pivot", "4", "--x", "1", "--y", "1", "--k", "100000"],
                "--k 100000 exceeds the limit 4096",
            ),
            (
                ["walk-count", "--parity", "--n", "100000000000", "--x", "1", "--y", "1", "--k", "3"],
                "--n 100000000000 exceeds the limit 16777216",
            ),
            (
                ["walk-count", "--exact", "--n", "100000000000", "--x", "1", "--y", "1", "--k", "3"],
                "--n 100000000000 exceeds the limit 16777216",
            ),
            (
                ["walk-count", "--parity", "--n", "16777217", "--x", "1", "--y", "1", "--k", "3"],
                "--n 16777217 exceeds the limit 16777216",
            ),
            (
                ["walk-count", "--exact", "--n", "2", "--x", "1", "--y", "1", "--k", "32769"],
                "--k 32769 exceeds the limit 32768",
            ),
            (["check-nilpotent", "--m", "40"], "--m 40 exceeds the limit 15"),
            (["check-nilpotent", "--m", "16"], "--m 16 exceeds the limit 15"),
            (["check-nilpotent", "--n", "32768"], "--n 32768 exceeds the limit 32767"),
            (["check-nilpotent", "--m", "0"], "--m must be at least 1, got 0"),
            (["check-nilpotent", "--n", "0"], "--n must be at least 1, got 0"),
            (
                ["walk-count", "--parity", "--n", "16777216", "--x", "1", "--y", "1",
                 "--k", str(2**64 - 1)],
                "--n 16777216 --k 18446744073709551615 rotates 1073741888 state bits, "
                "above the limit 1073741824",
            ),
            pytest.param(
                ["walk-count", "--parity", "--n", "16777216", "--x", "1", "--y", "1",
                 "--k", BIG_K],
                f"--n 16777216 --k {BIG_K} rotates",
                id="argv-walk-count-k-of-1001-digits",
            ),
            (
                ["walk-count", "--parity", "--n", "7", "--x", "1", "--y", "1", "--k", "-1"],
                "--k must be at least 0, got -1",
            ),
            (["verify-lemma", "--n", "257", "--max-k", "0"], "--n 257 exceeds the limit 256"),
            (
                ["verify-lemma", "--n", "3000", "--max-k", "2"],
                "--n 3000 exceeds the limit 256",
            ),
            (["verify-lemma", "--n", "1", "--max-k", "25"], "--max-k 25 exceeds the limit 24"),
            (
                ["verify-lemma", "--n", "256", "--max-k", "9"],
                "--n 256 --max-k 9 lists 258168 walks, above the limit 131072",
            ),
            (
                ["verify-theorem", "--m", "21", "--k", "2097151", "--x", "1", "--y", "1"],
                "--m 21 exceeds the limit 20",
            ),
            (["involution-test", "--m", "11", "--k", "0"], "--m 11 exceeds the limit 10"),
            (["involution-test", "--m", "12", "--k", "12"], "--m 12 exceeds the limit 10"),
            (["involution-test", "--m", "1", "--k", "3"], "--m must be at least 2, got 1"),
            (["involution-test", "--m", "2", "--k", "25"], "--k 25 exceeds the limit 24"),
            (
                ["involution-test", "--m", "4", "--k", "20"],
                "--m 4 --k 20 lists 18788741 walks, above the limit 131072",
            ),
            (
                ["involution-test", "--m", "10", "--k", "7"],
                "--m 10 --k 7 lists 260087 walks, above the limit 131072",
            ),
            (
                ["census", "--n", "7", "--pivot", "4", "--x", "1", "--y", "1", "--k", "-1"],
                "--k must be at least 0, got -1",
            ),
            (["naive-demo", "--n", "1025", "--k", "3"], "--n 1025 exceeds the limit 1024"),
            (["naive-demo", "--n", "5000", "--k", "3"], "--n 5000 exceeds the limit 1024"),
            (["naive-demo", "--n", "7", "--k", "23"], "--k 23 exceeds the limit 22"),
            (["charpoly", "--n", "131073"], "--n 131073 exceeds the limit 131072"),
            (["charpoly", "--n", "1000000"], "--n 1000000 exceeds the limit 131072"),
            (
                ["walk-count", "--n", "0", "--x", "1", "--y", "1", "--k", "1"],
                "--n must be at least 1, got 0",
            ),
            (
                ["census", "--n", "0", "--pivot", "1", "--x", "1", "--y", "1", "--k", "1"],
                "--n must be at least 1, got 0",
            ),
            (["naive-demo", "--n", "0", "--k", "1"], "--n must be at least 1, got 0"),
            (
                # the --exact bound on --k is checked after the rotation row
                ["walk-count", "--exact", "--n", "16777216", "--x", "1", "--y", "1",
                 "--k", str(2**64 - 1)],
                "--n 16777216 --k 18446744073709551615 rotates 1073741888 state bits",
            ),
        ],
    )
    def test_range_and_cap_refusals(self, capsys, monkeypatch, argv, says):
        census_n, census_k = LARGEST["census", "--n"], LARGEST["census", "--k"]
        walk_n, rotated = LARGEST["walk-count", "--n"], LARGEST["walk-count", "--n --k"]
        exact_k = LARGEST["walk-count", "--k"]
        enum_k = LARGEST["verify-lemma", "--max-k"]
        listed = LARGEST["verify-lemma", "--n --max-k"]
        naive_n, naive_k = LARGEST["naive-demo", "--n"], LARGEST["naive-demo", "--k"]
        for name, oversized in (
            ("class_census", lambda n, pivot, x, y, k: n > census_n or k > census_k),
            ("count_walks_exact", lambda n, x, y, k: n > walk_n or k > exact_k),
            (
                "count_walks_parity",
                lambda n, x, y, k: n > walk_n or (n + 1) * k.bit_length() > rotated,
            ),
            # the first step of check-nilpotent, before nilpotency_index
            ("path_adjacency", lambda n: n > LARGEST["check-nilpotent", "--n"]),
            ("theorem_check", lambda m, k, x, y: m > LARGEST["verify-theorem", "--m"]),
            # verify-lemma and involution-test list walks with the one DFS
            (
                "_walks",
                lambda n, x, k, y: k > enum_k or cli._walks_listed(n, k) > listed,
            ),
            ("find_naive_failure", lambda n, k: n > naive_n or k > naive_k),
            ("charpoly_path", lambda n: n > LARGEST["charpoly", "--n"]),
        ):
            monkeypatch.setattr(cli, name, refusing(getattr(cli, name), name, oversized))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert says in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, route",
        [
            (
                ["walk-count", "--parity", "--n", str(LARGEST["walk-count", "--n"]),
                 "--x", "1", "--y", "1", "--k", "3"],
                "count_walks_parity",
            ),
            (
                ["walk-count", "--exact", "--n", str(LARGEST["walk-count", "--n"]),
                 "--x", "1", "--y", "1", "--k", str(LARGEST["walk-count", "--k"])],
                "count_walks_exact",
            ),
            (["check-nilpotent", "--m", str(LARGEST["check-nilpotent", "--m"])],
             "path_adjacency"),
            (["check-nilpotent", "--n", str(LARGEST["check-nilpotent", "--n"])],
             "path_adjacency"),
            (["check-nilpotent", "--m", "1"], "path_adjacency"),
            (
                # (n + 1) * k.bit_length() is exactly the limit 2^30
                ["walk-count", "--parity", "--n", str(2**24 - 1), "--x", "1", "--y", "1",
                 "--k", str(2**64 - 1)],
                "count_walks_parity",
            ),
            (
                ["walk-count", "--parity", "--n", "1023", "--x", "5", "--y", "700",
                 "--k", "1000000000000"],
                "count_walks_parity",
            ),
            (["verify-lemma", "--n", "256", "--max-k", "8"], "_walks"),  # 129,104 walks
            (["verify-lemma", "--n", "1", "--max-k", "24"], "_walks"),
            (
                ["verify-theorem", "--m", "20", "--k", str(2**20), "--x", "1", "--y", "1"],
                "theorem_check",
            ),
            (["involution-test", "--m", "10", "--k", "6"], "_walks"),  # 129,575 walks
            (["involution-test", "--m", "2", "--k", "24"], "_walks"),
            (["involution-test", "--m", "2", "--k", "17"], "_walks"),  # 3,577 walks
            (
                ["census", "--n", "1024", "--pivot", "4", "--x", "1", "--y", "1",
                 "--k", "4096"],
                "class_census",
            ),
            (["naive-demo", "--n", "1024", "--k", "22"], "find_naive_failure"),
            (["naive-demo", "--n", "15", "--k", "16"], "find_naive_failure"),
            (["charpoly", "--n", "131072"], "charpoly_path"),
            (["charpoly", "--n", "0"], "charpoly_path"),
        ],
    )
    def test_size_limits_themselves_are_accepted(self, monkeypatch, argv, route):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        # the route is stubbed, so an accepted input costs nothing
        monkeypatch.setattr(cli, route, reached)
        with pytest.raises(Reached):
            run(argv)

    def test_cap_refusals_name_the_flag_and_the_variable(self, capsys, monkeypatch):
        # The enumeration caps are fixed rows of the limit table: a refusal
        # names the flag, its value and the limit, and the environment
        # variable that once raised the cap is neither read nor named.
        monkeypatch.setenv("NILPATH_ENUM_CAP", "200")
        for argv, limit in (
            (["verify-lemma", "--n", "3", "--max-k", "99"], 24),
            (["involution-test", "--m", "3", "--k", "99"], 24),
            (["naive-demo", "--n", "7", "--k", "99"], 22),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert f"{argv[-2]} 99 exceeds the limit {limit}" in err
            assert "NILPATH_ENUM_CAP" not in err

    def test_walks_row_counts_what_the_search_lists(self):
        for n in range(1, 9):
            for k in range(9):
                listed = sum(1 for x in range(1, n + 1) for _ in cli._walks(n, x, k))
                assert cli._walks_listed(n, k) == listed, (n, k)
        assert cli._walks_listed(3, 17) == 3577
        assert cli._walks_listed(15, 20) == 18788741


# argv that the table path declines, and argparse's answer to each: None
# where argparse exits itself, else the exit code and last stderr line of run
DECLINED = [
    (["charpoly", "--n", "7", "--check"], (0, None)),  # abbreviation of --check-monomial
    (["charpoly", "--n=5"], (0, None)),
    (["check-nilpotent", "--m", "3", "--m", "4"], (0, None)),  # the last value wins
    (
        ["walk-count", "--n", "5", "--x", "1", "--y", "1", "--k", "-1"],
        (2, "nilpath walk-count: --k must be at least 0, got -1"),
    ),
    (["charpoly", "--", "--n", "5"], None),
    (["charpoly", "--n", "5", "--"], None),
    (["charpoly", "-h"], None),
    (["-h"], None),
    ([], None),
    (["bogus", "--n", "5"], None),
    (["--format", "json", "charpoly", "--n", "5"], None),
    (["charpoly", "--n", "5", "--bogus"], None),
    (["charpoly", "--n", "5", "7"], None),
    (["walk-count", "--n", "5", "--x", "1", "--y", "1"], None),
    (["check-nilpotent"], None),
    (["check-nilpotent", "--m", "3", "--n", "7"], None),
    (["walk-count", "--n", "5", "--x", "1", "--y", "1", "--k", "1", "--exact", "--parity"], None),
    (["charpoly", "--n", "5", "--format", "yaml"], None),
    (["charpoly", "--n", "5", "--format"], None),
    (["charpoly", "--n", "five"], None),
    (["charpoly", "--n", ""], None),
    (["charpoly", "--n"], None),
    (["charpoly", "--n", "5", "--check-monomial", "1"], None),
    (["charpoly", "--n", "9" * 4301], None),
    # over-limit calls that only argparse reads, each refused with the line
    # its table spelling gets in TestExitCodes::test_range_and_cap_refusals
    (["charpoly", "--n=1000000"], (2, "nilpath charpoly: --n 1000000 exceeds the limit 131072")),
    (
        ["involution-test", "--m=4", "--k", "20"],
        (2, "nilpath involution-test: --m 4 --k 20 lists 18788741 walks, above the limit 131072"),
    ),
    (
        ["verify-lemma", "--n", "256", "--max-k=9"],
        (2, "nilpath verify-lemma: --n 256 --max-k 9 lists 258168 walks, above the limit 131072"),
    ),
    (
        ["check-nilpotent", "--m", "3", "--m", "40"],
        (2, "nilpath check-nilpotent: --m 40 exceeds the limit 15"),
    ),
]


class TestParsers:
    def test_a_call_builds_only_its_own_parser(self, capsys, monkeypatch):
        # a well-formed call is read from the command table: no argparse
        # parser is built, for any command
        cli._build_parser.cache_clear()
        monkeypatch.setattr(cli.argparse, "ArgumentParser", None)
        for command, argv in SMALL.items():
            assert run_cli(capsys, command, *argv, "--format", "json")[0] == 0
        assert cli._build_parser.cache_info().currsize == 0

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_table_path_reads_what_argparse_reads(self, command):
        calls = well_formed_calls(command)
        for call in calls:
            argv = [command, *(token for pair in call for token in pair if token is not None)]
            args = cli._parse(argv)
            # of these calls, only those with a value below 0 are declined
            negative = any(value and value.startswith("-") for _, value in call)
            assert (args is None) == negative, argv
            if args is not None:
                assert args == cli._build_parser().parse_args(argv), argv
        assert len(calls) >= 12

    @pytest.mark.parametrize("argv, answer", DECLINED)
    def test_argparse_answers_what_the_table_path_declines(self, capsys, monkeypatch, argv, answer):
        monkeypatch.setenv("COLUMNS", "200")  # argparse wraps usage to the terminal
        assert cli._parse(argv) is None
        code, out, err = run_cli(capsys, *argv)
        if answer is None:
            with pytest.raises(SystemExit) as exc:
                cli._build_parser().parse_args(argv)
            assert (code, out, err) == (exc.value.code, *capsys.readouterr())
            assert code == 0 or err.splitlines()[-1].startswith("nilpath")
        else:
            assert (code, err.splitlines()[-1] if err else None) == answer

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_unknown_flag_is_refused_by_the_top_level(self, capsys, command):
        code, out, err = run_cli(capsys, command, *SMALL[command], "--bogus")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "nilpath: error: unrecognized arguments: --bogus"

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "200")  # argparse wraps usage to the terminal
        code, out, err = run_cli(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: nilpath {command} [-h] [--format {{csv,json,text}}]")

    def test_top_level_help_names_every_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        code, out, err = run_cli(capsys, "-h")
        assert (code, err) == (0, "")
        for command, (_, help_text, _, _) in cli._COMMANDS.items():
            assert re.search(rf"^ +{command} +{re.escape(help_text)}$", out, re.M), command


@st.composite
def drawn_argv(draw):
    """An argv in the grammar of the command table: a command, then flags
    of its rows in any order, one of them perhaps twice. An int flag takes a
    small in-range value, a value just or far past its limits, or a
    malformed token, spelled ``--flag value`` or ``--flag=value``;
    ``--format`` takes one of its choices or another word. At times a help
    flag, an unknown flag or a stray value goes somewhere in the argv."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    rows, flags = cli._table(command)[:2]
    chosen = []
    for members in rows:
        # mostly one flag of each row or group, so that many calls run
        names = [flag for flag, _, _ in members]
        chosen += draw(st.sampled_from([[flag] for flag in names] * 4 + [[], names]))
    chosen = draw(st.permutations(chosen))
    if chosen and draw(st.booleans()):
        chosen.append(draw(st.sampled_from(chosen)))
    argv = [command]
    for flag in chosen:
        _, takes, _, _, bounds = flags[flag]
        if takes is None:
            argv.append(flag)
            continue
        if takes is int:
            least, largest = bounds
            low = 1 if least is None else least
            small = [v for v in range(low, low + 4) if largest is None or v <= largest]
            past = [least - 1] if least is not None else [0, -3]
            past += [largest + 1] if largest is not None else []
            values = {
                "small": [str(v) for v in small],
                "past": [str(v) for v in (*past, 10**30)],
                "malformed": MALFORMED,
            }[draw(st.sampled_from(["small"] * 8 + ["past", "malformed"]))]
        else:
            values = [*takes, "yaml"]
        value = draw(st.sampled_from(values))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    extra = draw(st.sampled_from([None] * 12 + ["-h", "--bogus", "7", "--"]))
    if extra is not None:
        argv.insert(draw(st.integers(0, len(argv))), extra)
    return argv


class TestExitContract:
    @given(drawn_argv())
    def test_every_argv_keeps_the_exit_contract(self, argv):
        # 0 pass, 1 a failed check, 2 a usage error with nothing on stdout,
        # and never a traceback
        code, out, err = answer(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert (out == "") == (code == 2), argv
        args = cli._parse(argv)
        if args is not None:
            assert args == cli._build_parser().parse_args(argv), argv

    def test_corpus_covers_the_workloads_and_every_spelling(self):
        argvs = corpus()
        assert len(argvs) == len({tuple(argv) for argv in argvs}) > 400
        assert argvs == corpus()
        for command, small in SMALL.items():
            assert [command, f"{small[0]}={small[1]}", *small[2:]] in argvs
            assert [command, *small] in argvs and [command, "--help"] in argvs
        # the slowest accepted naive-demo, and the benchmark operations, which
        # end in --format json
        assert ["naive-demo", "--n", "7", "--k", "22"] in argvs
        for argv in EXTRA:
            assert argv in argvs and answer(argv)[0] == 0, argv
        assert sum(argv[-2:] == ["--format", "json"] for argv in argvs) > 250


class TestReadmeLimits:
    def test_limits_table_follows_the_command_table(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("Every command also has size limits", 1)[1]
        rows = [line for line in section.split("\n\n")[1].splitlines() if line.startswith("| `")]

        def number(text):
            base, _, exponent = text.partition("^")
            return int(base) ** int(exponent or 1)

        commands, spans = set(), 0
        for row in rows:
            command, accepted = (cell.strip() for cell in row.strip("|").split("|")[:2])
            command = command.strip("`").split()[0]
            commands.add(command)
            bounds = {flag: (least, largest) for flag, least, largest in flag_bounds(command)}
            for flag, least, largest in re.findall(r"`(--[a-z-]+)` (\S+)\.\.([0-9^]+)", accepted):
                assert bounds[flag] == (number(least), number(largest)), (command, flag)
                spans += 1
        assert commands == set(cli._COMMANDS)
        assert spans == 13


NILPOTENT = ("check-nilpotent", "--m", "3")
THEOREM = ("verify-theorem", "--m", "3", "--k", "7", "--x", "3", "--y", "2")
CENSUS = ("census", "--n", "7", "--pivot", "4", "--x", "1", "--y", "1", "--k", "8")
NAIVE = ("naive-demo", "--n", "7", "--k", "7")


class TestFaultTable:
    """Every row that can fail, failed alone: a route whose result is
    edited fails exactly the rows that read it, with exit 1 and nothing on
    stderr. ``_family_census`` returns (c1, odd_offsets, c3)."""

    @pytest.mark.parametrize(
        "argv, route, edit, failing",
        [
            # sets bit 0, a walk ending at vertex 1, so the corner bit
            # that count_walks_parity reads from it stays right
            pytest.param(
                NILPOTENT, nilpath.walks._parity_vector, lambda v: v | 1,
                ["A^7 e_1 over GF(2)"], id="check-nilpotent-cyclic-vector",
            ),
            pytest.param(
                NILPOTENT, nilpath.walks.count_walks_parity, lambda b: 0,
                ["corner entry (1, 7) of A^6"], id="check-nilpotent-corner",
            ),
            pytest.param(
                ("check-nilpotent", "--m", "1"), nilpath.walks.count_walks_parity,
                lambda b: 0, ["corner entry (1, 1) of A^0"], id="check-nilpotent-m1-corner",
            ),
            pytest.param(
                NILPOTENT, nilpath.gf2.nilpotency_index, lambda index: None,
                ["A^7 over GF(2)", "nilpotency index"], id="check-nilpotent-index",
            ),
            # flips entry (1, 2) of A^6, the first paired product; --m 3
            # has no paired step
            pytest.param(
                ("check-nilpotent", "--m", "5"), nilpath.gf2._mul_pair,
                lambda p: (GF2Matrix(p[0].n, (p[0].rows[0] ^ 2, *p[0].rows[1:])), p[1]),
                ["A^31 over GF(2)", "nilpotency index"], id="check-nilpotent-pair",
            ),
            pytest.param(
                ("walk-count", "--exact", "--n", "7", "--x", "3", "--y", "2", "--k", "7"),
                nilpath.walks.count_walks_parity, lambda b: b ^ 1,
                ["parity route agrees mod 2"], id="walk-count-parity",
            ),
            pytest.param(
                THEOREM, nilpath.proofcheck._family_census, lambda c: (c[0] + 1, c[1], c[2]),
                ["class 1: walks avoiding the midpoint"], id="verify-theorem-class-1",
            ),
            pytest.param(
                THEOREM, nilpath.proofcheck._family_census, lambda c: (c[0], [*c[1], 0], c[2]),
                ["class 2: single midpoint visit, every visit offset"],
                id="verify-theorem-class-2",
            ),
            pytest.param(
                THEOREM, nilpath.proofcheck._family_census, lambda c: (c[0], c[1], c[2] + 1),
                ["class 3: two or more midpoint visits"], id="verify-theorem-class-3",
            ),
            pytest.param(
                ("verify-theorem", "--m", "1", "--k", "5", "--x", "1", "--y", "1"),
                nilpath.proofcheck._family_census, lambda c: (c[0], c[1], c[2] + 1),
                ["class 3: two or more midpoint visits"], id="verify-theorem-m1-class-3",
            ),
            pytest.param(
                THEOREM, nilpath.walks.count_walks_parity, lambda b: 1,
                ["mod-2 walk count"], id="verify-theorem-mod-2",
            ),
            pytest.param(
                CENSUS, nilpath.walks.count_walks_exact, lambda c: c + 1,
                ["classes partition all walks"], id="census-partition",
            ),
            pytest.param(
                CENSUS, nilpath.proofcheck.class2_by_sides, lambda c: c + 1,
                ["per-offset class-2 counts sum to class 2"], id="census-offset-sum",
            ),
            pytest.param(
                NAIVE, nilpath.proofcheck.find_naive_failure, lambda w: None,
                ["some walk escapes the naive reflection"], id="naive-demo-no-witness",
            ),
            # a walk whose pivot is the midpoint, so its mirror stays inside
            pytest.param(
                NAIVE, nilpath.proofcheck.find_naive_failure, lambda w: (4, 3, 4),
                ["reflecting at the naive pivot"], id="naive-demo-witness-stays",
            ),
            pytest.param(
                ("charpoly", "--n", "7", "--check-monomial"), nilpath.charpoly.charpoly_path,
                lambda p: GF2Poly(p.bits | 1), ["equals x^7"], id="charpoly-monomial",
            ),
        ],
    )
    def test_a_wrong_route_fails_only_its_own_rows(
        self, capsys, rebind, argv, route, edit, failing
    ):
        rebind(route, lambda *args: edit(route(*args)))
        assert failing_rows(capsys, *argv) == failing


class TestCheckNilpotent:
    def test_reports_index(self, capsys):
        code, parsed, _ = run_json(capsys, "check-nilpotent", "--m", "3")
        assert code == 0
        assert parsed["parameters"] == {"m": 3, "n": 7}
        rows = {d["check"]: d for d in parsed["details"]}
        assert rows["nilpotency index"]["observed"] == 7

    def test_explicit_n_form(self, capsys):
        code, parsed, _ = run_json(capsys, "check-nilpotent", "--n", "15")
        assert code == 0
        assert parsed["parameters"]["m"] == 4

    def test_m_and_n_conflict(self, capsys):
        assert run_cli(capsys, "check-nilpotent", "--m", "3", "--n", "7")[0] == 2

    def test_one_power_chain(self, capsys, monkeypatch):
        import nilpath.cli
        import nilpath.gf2

        calls = []
        real = nilpath.gf2.mat_pow

        def counting(a, k):
            calls.append(k)
            return real(a, k)

        monkeypatch.setattr(nilpath.gf2, "mat_pow", counting)
        # cli does not import it; the patch catches a call added later
        monkeypatch.setattr(nilpath.cli, "mat_pow", counting, raising=False)
        code, parsed, _ = run_json(capsys, "check-nilpotent", "--m", "6")
        assert code == 0
        assert calls == [62]
        rows = {d["check"]: d for d in parsed["details"]}
        assert rows["corner entry (1, 63) of A^62"]["observed"] == 1

    def test_cyclic_vector_row_agrees_with_matrix_row(self, capsys):
        for n in range(1, 301):
            code, parsed, _ = run_json(capsys, "check-nilpotent", "--n", str(n))
            rows = {d["check"]: d["observed"] for d in parsed["details"]}
            zero = rows[f"A^{n} over GF(2)"] == "zero matrix"
            assert zero == ((n + 1) & n == 0)
            assert rows[f"A^{n} e_1 over GF(2)"] == (
                "zero vector" if zero else "nonzero vector"
            ), n
            assert code == (0 if zero else 1)


class TestWalkCount:
    def test_exact_mode(self, capsys):
        code, parsed, _ = run_json(
            capsys, "walk-count", "--n", "7", "--x", "3", "--y", "2", "--k", "7"
        )
        assert code == 0
        assert parsed["details"][0]["observed"] == 28

    def test_parity_mode(self, capsys):
        code, parsed, _ = run_json(
            capsys,
            "walk-count", "--n", "7", "--x", "3", "--y", "2", "--k", "7", "--parity",
        )
        assert code == 0
        assert parsed["details"][0]["observed"] == 0

    @pytest.mark.parametrize("k", [10**12, 10**100])
    def test_huge_parity_length(self, capsys, k):
        # n = 2^10 - 1 and k >= n, so the count is even; the route costs
        # one rotation pair per set bit of k, not k steps
        code, parsed, _ = run_json(
            capsys,
            "walk-count", "--n", "1023", "--x", "5", "--y", "700", "--k", str(k),
            "--parity",
        )
        assert code == 0
        assert parsed["details"][0]["observed"] == 0
        assert parsed["elapsed_ms"] < 1000

    def test_modes_conflict(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "walk-count", "--n", "7", "--x", "1", "--y", "1", "--k", "2",
            "--exact", "--parity",
        )
        assert code == 2

    def test_renders_where_the_interpreter_has_no_digit_limit(
        self, capsys, monkeypatch
    ):
        # before 3.10.7 the sys module has no int/str digit limit to lift
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        code, parsed, _ = run_json(
            capsys, "walk-count", "--n", "7", "--x", "3", "--y", "2", "--k", "7"
        )
        assert code == 0
        assert parsed["details"][0]["observed"] == 28

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_count_beyond_int_digit_limit_renders_in_full(self, capsys, fmt):
        # 2^14999 walks: 4516 digits, past the 4300-digit default limit
        limit = int_digit_limit()
        code, out, _ = run_cli(
            capsys,
            "walk-count", "--n", "3", "--x", "1", "--y", "1", "--k", "30000",
            "--format", fmt,
        )
        assert code == 0
        assert int_digit_limit() == limit
        expected = 2**14999
        with no_int_digit_limit():
            digits = str(expected)
            assert len(digits) > 4300
            if fmt == "json":
                assert json.loads(out)["details"][0]["observed"] == expected
            elif fmt == "csv":
                row = list(csv.reader(io.StringIO(out)))[1]
                assert row[1] == row[2] == digits
            else:
                assert out.count(digits) == 2


class TestVerifyLemma:
    def test_small_table_passes(self, capsys):
        code, parsed, _ = run_json(capsys, "verify-lemma", "--n", "3", "--max-k", "6")
        assert code == 0
        assert len(parsed["details"]) == 7
        assert all(d["observed"] == "0 mismatches" for d in parsed["details"])

    def test_cap_guard(self, capsys):
        code, _, err = run_cli(capsys, "verify-lemma", "--n", "3", "--max-k", "99")
        assert code == 2
        assert "--max-k 99 exceeds the limit 24" in err

    def test_one_dfs_per_start_vertex(self, capsys, monkeypatch):
        import nilpath.walks

        starts = []
        real = nilpath.walks._walks

        def counting(n, x, k):
            starts.append((x, k))
            return real(n, x, k)

        def refuse(*args, **kwargs):
            raise AssertionError("verify-lemma must not re-search per endpoint pair")

        monkeypatch.setattr(cli, "_walks", counting)
        for module in (nilpath.walks, cli):
            monkeypatch.setattr(module, "enumerate_walks", refuse, raising=False)
        code, parsed, _ = run_json(capsys, "verify-lemma", "--n", "5", "--max-k", "7")
        assert code == 0
        assert starts == [(x, 7) for x in range(1, 6)]
        provenance = [d["provenance"] for d in parsed["details"]]
        assert provenance[0] == "25 endpoint pairs, 5 walks listed"
        assert provenance[7] == "25 endpoint pairs, 216 walks listed"

    def test_one_product_per_length(self, capsys, monkeypatch):
        # successive powers come from one chain: k products up to A^k, not
        # a fresh power per length, which takes k(k + 1)/2 = 28 at k = 7
        products = []
        real = nilpath.walks._times_adjacency

        def counting(power, adj):
            products.append(len(adj))
            return real(power, adj)

        monkeypatch.setattr(nilpath.walks, "_times_adjacency", counting)
        code, parsed, _ = run_json(capsys, "verify-lemma", "--n", "5", "--max-k", "7")
        assert code == 0
        assert all(d["observed"] == "0 mismatches" for d in parsed["details"])
        assert products == [5] * 7

    def test_a_wrong_count_is_a_mismatch_in_every_pair(self, capsys, monkeypatch):
        # every one of the n^2 (max_k + 1) counts is made, zeros included
        calls = []
        real = cli._count_exact
        monkeypatch.setattr(cli, "_count_exact", lambda *args: calls.append(args) or real(*args) + 1)
        code, parsed, _ = run_json(capsys, "verify-lemma", "--n", "3", "--max-k", "2")
        assert code == 1
        assert [d["observed"] for d in parsed["details"]] == ["9 mismatches"] * 3
        ends = range(1, 4)
        assert sorted(calls) == [(3, x, y, k) for x in ends for y in ends for k in range(3)]

    # one route made wrong at the single pair x = 2, y = 3 (3 walks) at k = 3
    BAD = (2, 3, 3)

    @staticmethod
    def _wrong_count(monkeypatch):
        real = cli._count_exact
        bad = TestVerifyLemma.BAD
        monkeypatch.setattr(
            cli, "_count_exact", lambda n, x, y, k: real(n, x, y, k) + ((x, y, k) == bad)
        )

    @staticmethod
    def _wrong_power(monkeypatch):
        real = cli._integer_powers
        x, y, bad_k = TestVerifyLemma.BAD

        def powers(n, max_k):
            for k, power in enumerate(real(n, max_k)):
                if k == bad_k:
                    # a copy: the next power is computed from this one
                    power = [row[:] for row in power]
                    power[x - 1][y - 1] += 1
                yield power

        monkeypatch.setattr(cli, "_integer_powers", powers)

    @staticmethod
    def _dropped_walk(monkeypatch):
        real = cli._walks
        x, y, k = TestVerifyLemma.BAD

        def walks(n, start, max_k):
            dropped = start != x
            for vs in real(n, start, max_k):
                if not dropped and len(vs) == k + 1 and vs[-1] == y:
                    dropped = True
                    continue
                yield vs

        monkeypatch.setattr(cli, "_walks", walks)

    @pytest.mark.parametrize(
        "faults",
        [["_wrong_count"], ["_wrong_power"], ["_dropped_walk"], ["_wrong_count", "_wrong_power"]],
    )
    def test_one_wrong_pair_is_one_mismatch(self, capsys, monkeypatch, faults):
        # the whole-table compare fails at k = 3 only, and the entry count
        # finds the one pair, once however many of its routes are wrong
        for fault in faults:
            getattr(self, fault)(monkeypatch)
        code, parsed, _ = run_json(capsys, "verify-lemma", "--n", "4", "--max-k", "5")
        assert code == 1
        observed = [d["observed"] for d in parsed["details"]]
        assert observed == ["0 mismatches"] * 3 + ["1 mismatches"] + ["0 mismatches"] * 2


class TestVerifyTheorem:
    def test_single_case(self, capsys):
        code, parsed, _ = run_json(
            capsys, "verify-theorem", "--m", "3", "--k", "7", "--x", "3", "--y", "2"
        )
        assert code == 0
        assert parsed["command"] == "verify-theorem"
        assert parsed["verdict"] == "pass"

    def test_below_bound_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify-theorem", "--m", "3", "--k", "5", "--x", "1", "--y", "1"
        )
        assert code == 2
        assert "k >= n" in err

    def test_missing_flags_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-theorem", "--m", "3", "--k", "7")
        assert code == 2
        assert "--x" in err

    def test_large_m_is_refused_before_the_census(self, capsys, monkeypatch):
        import nilpath.proofcheck

        class CensusStarted(Exception):
            pass

        def refuse(*args):
            raise CensusStarted

        monkeypatch.setattr(nilpath.proofcheck, "_family_census", refuse)
        point = ["--x", "1", "--y", "1"]
        code, out, err = run_cli(
            capsys, "verify-theorem", "--m", "21", "--k", str(2**21), *point
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        largest = LARGEST["verify-theorem", "--m"]
        assert "--m 21" in err and str(largest) in err
        # the limit itself, and any length, still reach the census
        for m, k in ((largest, 2**largest), (3, 10**300)):
            with pytest.raises(CensusStarted):
                run(["verify-theorem", "--m", str(m), "--k", str(k), *point])

    def test_huge_length_is_certified(self, capsys):
        code, parsed, _ = run_json(
            capsys, "verify-theorem", "--m", "3", "--k", str(10**300), "--x", "3", "--y", "6"
        )
        assert code == 0
        assert parsed["verdict"] == "pass"

    def test_single_vertex_has_no_length_limit(self, capsys):
        point = ["--x", "1", "--y", "1"]
        code, parsed, _ = run_json(
            capsys, "verify-theorem", "--m", "1", "--k", str(10**12), *point
        )
        assert code == 0
        assert parsed["verdict"] == "pass"

    def test_all_flag_conflicts_with_point_query(self, capsys):
        code, out, err = run_cli(capsys, "verify-theorem", "--all", "--m", "2")
        assert (code, out) == (2, "")
        assert err == (
            "nilpath verify-theorem: --all cannot be combined with --m/--k/--x/--y\n"
        )

    def test_missing_point_flags_are_named_once(self, capsys):
        code, out, err = run_cli(capsys, "verify-theorem", "--m", "3")
        assert (code, out) == (2, "")
        assert err == "nilpath verify-theorem: needs --k --x --y (or --all)\n"

    def test_full_sweep(self, capsys):
        code, parsed, _ = run_json(capsys, "verify-theorem", "--all")
        assert code == 0
        assert len(parsed["details"]) == 20  # 4 values of m, 5 lengths each
        assert all(d["observed"].startswith("0 failures") for d in parsed["details"])

    def test_full_sweep_lists_the_first_failing_pairs(self, capsys, monkeypatch):
        def odd_into_vertex_one(m, k, x, y):
            observed = "odd" if y == 1 else "even"
            return ParityReport("theorem-check", {}, (Detail("parity", "even", observed, ""),))

        monkeypatch.setattr(cli, "theorem_check", odd_into_vertex_one)
        code, parsed, _ = run_json(capsys, "verify-theorem", "--all")
        assert code == 1
        observed = [d["observed"] for d in parsed["details"]]
        assert observed[0] == "1 failures at [(1, 1)]"
        assert observed[5] == "3 failures at [(1, 1), (2, 1), (3, 1)]"
        assert observed[10] == "7 failures at [(1, 1), (2, 1), (3, 1)]"


class TestInvolutionTest:
    def test_seven_path_sweep(self, capsys):
        code, parsed, _ = run_json(capsys, "involution-test", "--m", "3", "--k", "8")
        assert code == 0
        rows = {d["check"]: d for d in parsed["details"]}
        assert rows["class-3 walks tested"]["observed"] > 0
        assert rows["no fixed points"]["observed"] == 0

    def test_single_vertex_is_usage_error(self, capsys):
        assert run_cli(capsys, "involution-test", "--m", "1", "--k", "3")[0] == 2

    def test_invalid_image_is_a_failed_check(self, capsys, monkeypatch):
        def off_the_path(n, vs, pivot):
            return (0, *vs[1:])

        monkeypatch.setattr(cli, "_reflect", off_the_path)
        code, parsed, err = run_json(capsys, "involution-test", "--m", "3", "--k", "6")
        rows = {d["check"]: d["observed"] for d in parsed["details"]}
        assert code == 1
        assert rows["image is a valid walk"] == rows["class-3 walks tested"] > 0
        assert "Traceback" not in err

    @staticmethod
    def _rows_with_reflection(capsys, monkeypatch, reflect):
        monkeypatch.setattr(cli, "_reflect", reflect)
        code, parsed, _ = run_json(capsys, "involution-test", "--m", "3", "--k", "6")
        assert code == 1
        return {d["check"]: d["observed"] for d in parsed["details"]}

    def test_identity_map_is_all_fixed_points(self, capsys, monkeypatch):
        rows = self._rows_with_reflection(
            capsys, monkeypatch, lambda n, walk, pivot: walk
        )
        assert rows["no fixed points"] == rows["class-3 walks tested"] > 0
        assert rows["image preserves start, end, length, class"] == 0
        assert rows["applying twice restores the walk"] == 0

    def test_mirroring_the_whole_tail_moves_the_end(self, capsys, monkeypatch):
        def mirror_tail(n, vs, pivot):
            first = vs.index(pivot)
            return vs[: first + 1] + tuple(2 * pivot - v for v in vs[first + 1 :])

        rows = self._rows_with_reflection(capsys, monkeypatch, mirror_tail)
        moved = sum(
            1
            for length in range(7)
            for start in range(1, 8)
            for w in iter_walks_from(7, start, length)
            if w.count(4) >= 2 and w[-1] != 4
        )
        assert rows["image preserves start, end, length, class"] == moved > 0
        assert rows["no fixed points"] == 0
        assert rows["applying twice restores the walk"] == 0

    def test_a_one_way_mirror_is_not_an_involution(self, capsys, monkeypatch):
        real = cli._reflect

        def upward_loops_only(n, vs, pivot):
            if vs[vs.index(pivot) + 1] > pivot:
                return real(n, vs, pivot)
            return vs

        rows = self._rows_with_reflection(capsys, monkeypatch, upward_loops_only)
        # the real reflection pairs upward loops with downward ones
        tested = rows["class-3 walks tested"]
        assert rows["applying twice restores the walk"] == tested // 2 > 0
        assert rows["no fixed points"] == tested // 2
        assert rows["image preserves start, end, length, class"] == 0

    def test_cap_guard(self, capsys):
        code, _, err = run_cli(capsys, "involution-test", "--m", "3", "--k", "99")
        assert code == 2
        assert "--k 99 exceeds the limit 24" in err

    def test_each_walk_is_validated_once(self, capsys, monkeypatch):
        checked = []
        real = cli.walk_is_valid

        def counting(n, vs):
            checked.append(vs)
            return real(n, vs)

        monkeypatch.setattr(cli, "walk_is_valid", counting)
        code, parsed, _ = run_json(capsys, "involution-test", "--m", "3", "--k", "8")
        rows = {d["check"]: d["observed"] for d in parsed["details"]}
        assert code == 0
        assert len(checked) == rows["class-3 walks tested"] > 0


class TestCensus:
    def test_values_and_partition(self, capsys):
        code, parsed, _ = run_json(
            capsys,
            "census", "--n", "7", "--pivot", "4", "--x", "3", "--y", "2", "--k", "7",
        )
        assert code == 0
        rows = {d["check"]: d for d in parsed["details"]}
        assert rows["class 1 (pivot never visited)"]["observed"] == 8
        assert rows["class 2 (pivot visited once)"]["observed"] == 8
        assert rows["class 3 (pivot visited twice or more)"]["observed"] == 12
        assert rows["classes partition all walks"]["expected"] == 28
        assert rows["classes partition all walks"]["observed"] == 28

    def test_offset_sum_is_checked_against_an_independent_total(
        self, capsys, monkeypatch
    ):
        def skewed(*args):
            c = class_census(*args)
            per_step = tuple(p + 1 for p in c.per_step_c2)
            return ClassCensus(c.c1, sum(per_step), c.c3, per_step)

        monkeypatch.setattr(cli, "class_census", skewed)
        code, parsed, _ = run_json(
            capsys,
            "census", "--n", "7", "--pivot", "4", "--x", "3", "--y", "2", "--k", "7",
        )
        assert code == 1
        row = {d["check"]: d for d in parsed["details"]}[
            "per-offset class-2 counts sum to class 2"
        ]
        assert (row["expected"], row["observed"]) == (8, 16)

    def test_the_limits_themselves_are_accepted(self, capsys):
        for n, k in ((LARGEST["census", "--n"], 3), (7, LARGEST["census", "--k"])):
            code, parsed, _ = run_json(
                capsys, "census", "--n", str(n), "--pivot", "4", "--x", "1", "--y", "1",
                "--k", str(k),
            )
            assert code == 0
            assert parsed["parameters"]["k"] == k

    def test_offset_sum_row_agrees_with_the_census(self, capsys):
        for n, pivot, x, y, k in [
            (1, 1, 1, 1, 0), (1, 1, 1, 1, 4), (2, 1, 2, 2, 5), (7, 4, 4, 4, 6),
            (7, 4, 1, 7, 9), (9, 3, 8, 2, 11), (15, 8, 8, 3, 15),
            (9, 2, 1, 7, 2000),
        ]:
            code, parsed, _ = run_json(
                capsys, "census", "--n", str(n), "--pivot", str(pivot),
                "--x", str(x), "--y", str(y), "--k", str(k),
            )
            assert code == 0
            row = {d["check"]: d for d in parsed["details"]}[
                "per-offset class-2 counts sum to class 2"
            ]
            assert row["expected"] == class_census(n, pivot, x, y, k).c2


class TestNaiveDemo:
    def test_witness_found_on_seven_path(self, capsys):
        code, parsed, _ = run_json(capsys, "naive-demo", "--n", "7", "--k", "7")
        assert code == 0
        rows = {d["check"]: d for d in parsed["details"]}
        assert rows["witness walk"]["observed"] == "1-2-3-4-3-2-1-2"
        assert rows["reflecting at the naive pivot"]["observed"] == "out of bounds"

    def test_no_witness_is_a_failing_demo(self, capsys):
        code, parsed, _ = run_json(capsys, "naive-demo", "--n", "3", "--k", "3")
        assert code == 1
        assert parsed["verdict"] == "fail"

    def test_a_reflection_that_stays_in_bounds_fails_the_demo(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "reflect_class3", lambda n, walk, pivot: walk)
        code, parsed, _ = run_json(capsys, "naive-demo", "--n", "7", "--k", "7")
        rows = {d["check"]: d["observed"] for d in parsed["details"]}
        assert code == 1
        assert rows["reflecting at the naive pivot"] == "stayed in bounds"
        assert "escape detail" not in rows


class TestCharpolyCommand:
    def test_monomial_check_passes(self, capsys):
        code, parsed, _ = run_json(
            capsys, "charpoly", "--n", "7", "--check-monomial"
        )
        assert code == 0
        assert parsed["details"][0]["observed"] == "x^7"

    def test_monomial_check_fails_off_family(self, capsys):
        code, parsed, _ = run_json(
            capsys, "charpoly", "--n", "6", "--check-monomial"
        )
        assert code == 1
        rows = {d["check"]: d for d in parsed["details"]}
        assert rows["equals x^6"]["observed"] == "no"

    def test_plain_report_passes_anywhere(self, capsys):
        assert run_cli(capsys, "charpoly", "--n", "6")[0] == 0


class TestOutputFormats:
    def test_csv_detail_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-nilpotent", "--m", "3", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["check", "expected", "observed", "provenance"]
        assert len(rows) == 5

    def test_json_key_order(self, capsys):
        _, out, _ = run_cli(
            capsys, "walk-count", "--n", "3", "--x", "1", "--y", "1", "--k", "2",
            "--format", "json",
        )
        parsed = json.loads(out, object_pairs_hook=list)
        assert [k for k, _ in parsed] == [
            "command",
            "parameters",
            "verdict",
            "details",
            "elapsed_ms",
        ]

    @pytest.mark.parametrize(
        "argv",
        [[command, *SMALL[command]] for command in cli._COMMANDS]
        # calls off the paper's family, whose reports fail
        + [["check-nilpotent", "--n", "6"], ["charpoly", "--n", "6", "--check-monomial"],
           ["naive-demo", "--n", "3", "--k", "3"]],
    )
    def test_the_report_names_its_command_and_its_verdict_sets_the_exit(self, capsys, argv):
        code, parsed, err = run_json(capsys, *argv)
        assert (parsed["command"], err) == (argv[0], "")
        assert code == (0 if parsed["verdict"] == "pass" else 1)

    @pytest.mark.parametrize("command", sorted(SMALL))
    def test_json_bytes_equal_json_dumps_on_real_reports(self, command):
        args = cli._parse(argv_of(command, well_formed_calls(command)[0]))
        report = ParityReport(command, *cli._COMMANDS[command][0](args), 0.25)
        assert render_json(report) == json.dumps(report.to_json_dict(), indent=2) + "\n"

    def test_identical_argv_identical_report(self, capsys):
        argv = ["census", "--n", "7", "--pivot", "4", "--x", "1", "--y", "1",
                "--k", "8", "--format", "json"]
        run(argv)
        first = json.loads(capsys.readouterr().out)
        run(argv)
        second = json.loads(capsys.readouterr().out)
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-theorem", "--m", "3", "--k", "7", "--x", "3", "--y", "2"],
            ["check-nilpotent", "--m", "3"],
        ],
    )
    def test_elapsed_time_is_stamped(self, capsys, argv):
        code, parsed, _ = run_json(capsys, *argv)
        assert code == 0
        assert parsed["elapsed_ms"] > 0

    def test_rejects_unknown_format(self, capsys):
        code, _, _ = run_cli(
            capsys, "check-nilpotent", "--m", "2", "--format", "yaml"
        )
        assert code == 2

    def test_no_state_carries_between_runs(self, capsys):
        # a command's one parser serves every call; defaults must come back each time
        walk = ["walk-count", "--n", "7", "--x", "3", "--y", "2", "--k", "7"]
        code, parsed, _ = run_json(capsys, *walk, "--parity")
        assert (code, parsed["parameters"]["mode"]) == (0, "parity")
        code, out, _ = run_cli(capsys, *walk)
        assert code == 0 and out.startswith("command:    walk-count")
        assert "mode=exact" in out
        code, out, _ = run_cli(capsys, "check-nilpotent", "--n", "2", "--format", "csv")
        assert code == 1
        assert next(csv.reader(io.StringIO(out))) == [
            "check", "expected", "observed", "provenance"
        ]
        code, parsed, _ = run_json(capsys, *walk, "--exact")
        assert parsed["parameters"]["mode"] == "exact"
        assert parsed["details"][0]["observed"] == 28
        code, out, _ = run_cli(capsys, "check-nilpotent", "--m", "3")
        assert code == 0 and out.startswith("command:    check-nilpotent")
        code, parsed, _ = run_json(capsys, "check-nilpotent", "--n", "7")
        assert parsed["parameters"] == {"m": 3, "n": 7}
        assert run_cli(capsys, "walk-count", "--n", "7")[0] == 2
        code, parsed, _ = run_json(capsys, *walk)
        assert parsed["parameters"]["mode"] == "exact"


class TestConsoleEntry:
    def test_console_main_exits_with_run_code(self, capsys, monkeypatch):
        from nilpath.cli import console_main

        monkeypatch.setattr("sys.argv", ["nilpath", "charpoly", "--n", "3"])
        with pytest.raises(SystemExit) as exc:
            console_main()
        assert exc.value.code == 0

    def test_python_dash_m(self):
        src = str(Path(nilpath.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "nilpath", "check-nilpotent", "--n", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1 and "FAIL" in proc.stdout
