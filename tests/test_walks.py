import json
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilpath.cli import run
from nilpath.gf2 import _mul_pair, mat_from_entries, mat_mul, mat_pow, nilpotency_index, zero
from nilpath.proofcheck import class2_decompose, classify, naive_reflect, reflect_class3
from nilpath.walks import (
    _count_exact,
    _family_parity,
    _parity_vector,
    _walks,
    _walks_listed,
    count_walks_exact,
    count_walks_parity,
    enumerate_walks,
    integer_adjacency_power,
    iter_walks_from,
    path_adjacency,
    walk_is_valid,
)

from oracles import brute_force_walks, image_sum_count, stepping_count, stepping_parity


@st.composite
def exact_count_cases(draw):
    """(n, x, y, k) with n <= 300 and k <= 3000, weighted towards the edge
    cases of the image sum: n = 1, k = 0, k < |x - y| and k < n + 1 (one
    term per class). Odd k + y - x comes up in about half the draws."""
    n = draw(st.sampled_from([1]) | st.integers(1, 12) | st.integers(1, 300))
    x = draw(st.integers(1, n))
    y = draw(st.integers(1, n))
    k = draw(
        st.sampled_from([0])
        | st.integers(0, max(abs(x - y) - 1, 0))
        | st.integers(0, n)
        | st.integers(0, 3000)
    )
    return n, x, y, k


@st.composite
def image_sum_cases(draw):
    """(n, x, y, k) with n <= 2^24, k <= 4000 and k + y - x even. n leans
    small, so that the row folds over many classes, and k leans to n,
    n + 1 and n + 2, where the one-term case ends."""
    n = draw(
        st.sampled_from([1, 2])
        | st.integers(1, 60)
        | st.integers(1, 4000)
        | st.integers(1, 2**24)
    )
    x = draw(st.integers(1, n))
    y = draw(st.integers(1, n))
    lengths = st.integers(0, 4000)
    if n <= 3998:
        lengths |= st.sampled_from([n, n + 1, n + 2])
    k = draw(lengths)
    if (k + y - x) % 2:
        if n == 1:
            k += 1
        else:
            y += 1 if y < n else -1
    return n, x, y, k


class TestCheckNilpotentTag:
    """The path spec of `check-nilpotent --n`: its m tag is set only when
    n = 2^m - 1, the sizes the paper's theorem speaks about."""

    @staticmethod
    def parameters(capsys, n):
        # a size off the 2^m - 1 family may report a failed check (exit 1)
        assert run(["check-nilpotent", "--n", str(n), "--format", "json"]) in (0, 1)
        return json.loads(capsys.readouterr().out)["parameters"]

    def test_from_n_recognizes_power_of_two_minus_one(self, capsys):
        assert self.parameters(capsys, 7) == {"m": 3, "n": 7}
        assert self.parameters(capsys, 1) == {"m": 1, "n": 1}
        assert self.parameters(capsys, 255) == {"m": 8, "n": 255}

    def test_from_n_leaves_other_sizes_untagged(self, capsys):
        assert self.parameters(capsys, 6) == {"m": None, "n": 6}
        assert self.parameters(capsys, 2) == {"m": None, "n": 2}


class TestWalkTuple:
    """A walk is a non-empty tuple of vertices: its length is one less than
    its size, and its start and end are its first and last entries."""

    # each shell that validates its walk, on the 7-path
    SHELLS = {
        "classify": lambda vs: classify(7, vs, 4),
        "class2_decompose": lambda vs: class2_decompose(7, vs, 5),
        "reflect_class3": lambda vs: reflect_class3(7, vs, 4),
        "naive_reflect": lambda vs: naive_reflect(7, vs),
    }

    def test_needs_a_vertex(self):
        assert not walk_is_valid(7, ())
        assert not walk_is_valid(7, [])
        for shell in self.SHELLS.values():
            with pytest.raises(ValueError, match="is not a valid walk"):
                shell(())

    def test_length_start_end(self):
        w = enumerate_walks(7, 3, 4, 3)[-1]
        assert w == (3, 4, 5, 4)
        assert (len(w) - 1, w[0], w[-1]) == (3, 3, 4)
        assert all(len(w) - 1 == 3 and w[0] == 3 for w in iter_walks_from(7, 3, 3))

    def test_zero_length_walk(self):
        assert enumerate_walks(7, 5, 5, 0) == [(5,)]
        assert walk_is_valid(7, (5,))
        assert classify(7, (5,), 5) == 2

    def test_string_form(self, capsys):
        # the command line prints a walk with its vertices joined by dashes
        run(["naive-demo", "--n", "2", "--k", "2", "--format", "json"])
        rows = {d["check"]: d for d in json.loads(capsys.readouterr().out)["details"]}
        assert rows["witness walk"]["observed"] == "1-2-1"

    def test_accepts_any_iterable_of_vertices(self):
        # a list is read as the tuple of its vertices, and walks come back
        # as tuples
        assert classify(7, [4, 5, 4, 5], 4) == 3
        assert class2_decompose(7, [3, 4, 5, 4, 3], 5) == ((3, 4), (4, 3))
        for name in ("reflect_class3", "naive_reflect"):
            image = self.SHELLS[name]([4, 5, 4, 5])
            assert type(image) is tuple and image == (4, 3, 4, 5), name


class TestPathAdjacency:
    def test_three_path(self):
        assert path_adjacency(3).to_lists() == [
            [0, 1, 0],
            [1, 0, 1],
            [0, 1, 0],
        ]

    def test_single_vertex_has_no_edges(self):
        assert path_adjacency(1) == zero(1)

    def test_matches_entry_predicate(self):
        for n in range(1, 13):
            assert path_adjacency(n) == mat_from_entries(
                n, lambda i, j: 1 if abs(i - j) == 1 else 0
            )

    @given(st.integers(1, 40))
    def test_symmetric_tridiagonal_zero_diagonal(self, n):
        a = path_adjacency(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = 1 if abs(i - j) == 1 else 0
                assert a.bit(i, j) == expected

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError):
            path_adjacency(0)


class TestWalkIsValid:
    def test_up_and_down_the_path(self):
        assert walk_is_valid(7, ((3, 4, 5, 6, 7, 6, 5, 4)))

    def test_rejects_out_of_range(self):
        assert not walk_is_valid(7, ((7, 8)))
        assert not walk_is_valid(7, ((0, 1)))

    def test_rejects_self_loop(self):
        assert not walk_is_valid(7, ((3, 3)))

    def test_rejects_jump(self):
        assert not walk_is_valid(7, ((3, 5)))

    def test_single_vertex_in_range(self):
        assert walk_is_valid(7, ((7,)))
        assert not walk_is_valid(7, ((9,)))

    @given(
        st.integers(1, 9),
        st.integers(-1, 10),
        st.lists(st.sampled_from((-1, 1, -1, 1, 0, 2)), max_size=12),
    )
    def test_matches_the_definition(self, n, start, steps):
        # valid walks and near-walks: off the path, standing still, jumping
        vs = tuple(accumulate(steps, initial=start))
        in_range = all(1 <= v <= n for v in vs)
        unit_steps = all(abs(b - a) == 1 for a, b in zip(vs, vs[1:]))
        assert walk_is_valid(n, vs) == (in_range and unit_steps)
        assert walk_is_valid(n, list(vs)) == (in_range and unit_steps)


class TestIterWalksFrom:
    def test_lexicographic_order(self):
        ws = list(iter_walks_from(5, 3, 4))
        assert ws == sorted(ws)

    def test_matches_brute_force_listing(self):
        for n in range(1, 6):
            for x in range(1, n + 1):
                for k in range(0, 8):
                    mine = list(iter_walks_from(n, x, k))
                    ref = []
                    for y in range(1, n + 1):
                        ref.extend(brute_force_walks(n, x, y, k))
                    assert mine == sorted(ref)

    def test_zero_length(self):
        assert list(iter_walks_from(4, 2, 0)) == [(2,)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(iter_walks_from(3, 4, 1))
        with pytest.raises(ValueError):
            list(iter_walks_from(3, 1, -1))

    def test_rejects_bad_arguments_at_the_call(self):
        with pytest.raises(ValueError, match="x = 9 is outside 1..3"):
            iter_walks_from(3, 9, 2)


class TestSearch:
    """``_walks`` yields every node of its search tree, prefixes first."""

    @staticmethod
    def brute_nodes(n, x, k):
        # brute_force_walks(n, x, y, length), keyed by (y, length)
        return {
            (y, length): brute_force_walks(n, x, y, length)
            for y in range(1, n + 1)
            for length in range(k + 1)
        }

    def test_every_walk_up_to_k_in_lexicographic_order(self):
        for n in range(1, 8):
            for x in range(1, n + 1):
                ref = self.brute_nodes(n, x, 8)
                for k in range(9):
                    mine = list(_walks(n, x, k))
                    expected = sorted(
                        w for (_, length), ws in ref.items() if length <= k for w in ws
                    )
                    assert mine == expected, (n, x, k)

    def test_walks_row_counts_what_the_search_lists(self):
        for n in range(1, 9):
            for k in range(9):
                listed = sum(1 for x in range(1, n + 1) for _ in _walks(n, x, k))
                assert _walks_listed(n, k) == listed, (n, k)
        assert _walks_listed(3, 17) == 3577
        assert _walks_listed(15, 20) == 18788741


class TestSearchCost:
    def test_first_nodes_do_not_depend_on_n(self):
        # a search builds nothing per vertex of the path, so a huge n costs
        # nothing before the first node
        assert list(_walks(2**40, 5, 1)) == [(5,), (5, 4), (5, 6)]
        assert list(_walks(2**40, 2**40, 1)) == [
            (2**40,), (2**40, 2**40 - 1)
        ]


class TestEnumerateWalks:
    def test_no_positive_length_walks_on_one_vertex(self):
        assert enumerate_walks(1, 1, 1, 1) == []

    def test_unique_spanning_walk(self):
        assert enumerate_walks(7, 1, 7, 6) == [
            (1, 2, 3, 4, 5, 6, 7)
        ]

    def test_unique_bounce_walk(self):
        assert enumerate_walks(3, 1, 1, 2) == [(1, 2, 1)]

    def test_matches_brute_force(self):
        for n in range(1, 7):
            for k in range(0, 9):
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        got = enumerate_walks(n, x, y, k)
                        assert got == brute_force_walks(n, x, y, k)

    def test_all_walks_valid_with_right_ends(self):
        for w in enumerate_walks(6, 2, 4, 8):
            assert walk_is_valid(6, w)
            assert w[0] == 2 and w[-1] == 4 and len(w) - 1 == 8

    def test_long_length_on_two_vertices(self):
        # no length is refused: on two vertices a long length lists one walk
        assert enumerate_walks(2, 1, 1, 100) == [(1, 2) * 50 + (1,)]

    def test_lengths_past_the_command_line_bound(self):
        # lengths past the command line's bound of 24 are listed in full
        for (n, x, y, k), size in (((3, 2, 2, 26), 8192), ((4, 1, 2, 25), 75025)):
            walks = enumerate_walks(n, x, y, k)
            assert len(walks) == count_walks_exact(n, x, y, k) == size
            assert len(walks[0]) - 1 == k

    def test_rejects_bad_vertices(self):
        with pytest.raises(ValueError):
            enumerate_walks(3, 0, 1, 2)
        with pytest.raises(ValueError):
            enumerate_walks(3, 1, 4, 2)


class TestCountWalksExact:
    def test_unique_spanning_walk(self):
        assert count_walks_exact(7, 1, 7, 6) == 1

    def test_figure_sized_example(self):
        # 28 = 8 + 8 + 12, pinned by brute-force enumeration
        assert count_walks_exact(7, 3, 2, 7) == 28

    def test_single_vertex_has_no_walks(self):
        assert count_walks_exact(1, 1, 1, 5) == 0

    def test_zero_length(self):
        assert count_walks_exact(5, 2, 2, 0) == 1
        assert count_walks_exact(5, 2, 3, 0) == 0

    def test_matches_enumeration(self):
        for n in range(1, 7):
            for k in range(0, 9):
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        assert count_walks_exact(n, x, y, k) == len(
                            brute_force_walks(n, x, y, k)
                        )

    def test_counts_grow_past_machine_words(self):
        total = sum(
            count_walks_exact(9, 5, y, 200) for y in range(1, 10)
        )
        assert total > 2**64

    @given(
        st.integers(1, 16),
        st.integers(0, 20),
        st.data(),
    )
    def test_reversal_symmetry(self, n, k, data):
        x = data.draw(st.integers(1, n))
        y = data.draw(st.integers(1, n))
        assert count_walks_exact(n, x, y, k) == count_walks_exact(n, y, x, k)

    @given(st.integers(1, 16), st.integers(0, 20), st.data())
    def test_mirror_symmetry(self, n, k, data):
        x = data.draw(st.integers(1, n))
        y = data.draw(st.integers(1, n))
        assert count_walks_exact(n, x, y, k) == count_walks_exact(
            n, n + 1 - x, n + 1 - y, k
        )

    @given(st.integers(1, 16), st.integers(0, 20), st.data())
    def test_step_parity_forces_zero(self, n, k, data):
        x = data.draw(st.integers(1, n))
        y = data.draw(st.integers(1, n))
        if (k - abs(x - y)) % 2:
            assert count_walks_exact(n, x, y, k) == 0

    @given(exact_count_cases())
    @example((1, 1, 1, 0))
    @example((1, 1, 1, 3000))
    @example((300, 1, 300, 297))
    @example((300, 300, 1, 299))
    @example((7, 3, 2, 6))
    @example((300, 150, 151, 299))
    @example((2, 1, 2, 2999))
    @example((8, 1, 8, 30001))
    @example((8, 4, 4, 30000))
    @example((5, 2, 5, 29999))
    def test_matches_stepping_oracle(self, case):
        n, x, y, k = case
        assert count_walks_exact(n, x, y, k) == stepping_count(n, x, y, k)

    @given(image_sum_cases())
    @example((12, 3, 5, 12))  # k = n: one term per class
    @example((12, 3, 4, 13))  # k = n + 1: the first folded row
    @example((12, 3, 5, 14))
    @example((6, 3, 3, 40))  # x = y: the central C(40, 20) is in class a
    @example((9, 3, 7, 40))  # x + y = n + 1: class b is its own mirror
    @example((1, 1, 1, 2))
    @example((1, 1, 1, 4000))
    @example((2, 1, 2, 32767))
    @example((50, 18, 10, 16482))
    @example((30000, 15000, 15000, 32766))
    def test_matches_the_per_class_image_sum(self, case):
        n, x, y, k = case
        assert count_walks_exact(n, x, y, k) == image_sum_count(n, x, y, k)

    def test_small_rows_match_the_per_class_image_sum(self):
        for n in range(1, 10):
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    for k in range(61):
                        assert _count_exact(n, x, y, k) == image_sum_count(n, x, y, k)

    def test_unchecked_core_equals_the_checked_count(self):
        # verify-lemma calls the core once per (x, y, k) of its table
        for n in range(1, 13):
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    for k in range(31):
                        assert _count_exact(n, x, y, k) == count_walks_exact(n, x, y, k)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_walks_exact(0, 1, 1, 1)
        with pytest.raises(ValueError):
            count_walks_exact(3, 1, 1, -1)


class TestCountWalksParity:
    def test_even_figure_example(self):
        assert count_walks_parity(7, 3, 2, 7) == 0

    def test_odd_unique_walk(self):
        assert count_walks_parity(7, 1, 7, 6) == 1

    def test_all_pairs_even_at_full_length(self):
        assert all(
            count_walks_parity(7, x, y, 7) == 0
            for x in range(1, 8)
            for y in range(1, 8)
        )

    @given(st.integers(1, 16), st.integers(0, 20), st.data())
    def test_matches_exact_count_mod_two(self, n, k, data):
        x = data.draw(st.integers(1, n))
        y = data.draw(st.integers(1, n))
        assert count_walks_parity(n, x, y, k) == count_walks_exact(n, x, y, k) % 2

    @given(st.integers(1, 16), st.integers(0, 20), st.data())
    @settings(max_examples=50)
    def test_matches_matrix_power_bit(self, n, k, data):
        x = data.draw(st.integers(1, n))
        y = data.draw(st.integers(1, n))
        assert count_walks_parity(n, x, y, k) == mat_pow(
            path_adjacency(n), k
        ).bit(x, y)


    @given(
        st.one_of(st.integers(1, 64), st.sampled_from([1, 3, 7, 15, 31, 63])),
        st.integers(0, 5000),
        st.data(),
    )
    @settings(max_examples=200)
    def test_matches_stepping_oracle(self, n, k, data):
        # up to k = 5000 the rotation 2^j mod 2(n + 1) wraps; on the family
        # 2(n + 1) is a power of two and the rotation reaches 0
        x = data.draw(st.integers(1, n))
        y = data.draw(st.integers(1, n))
        assert count_walks_parity(n, x, y, k) == stepping_parity(n, x, y, k)


class TestParityVector:
    @given(st.integers(1, 64), st.integers(0, 5000), st.data())
    @settings(max_examples=50)
    def test_is_the_matrix_power_row(self, n, k, data):
        x = data.draw(st.integers(1, n))
        assert _parity_vector(n, x, k) == mat_pow(path_adjacency(n), k).rows[x - 1]

    def test_first_column_vanishes_at_n_exactly_on_the_family(self):
        for n in range(1, 4097):
            assert (_parity_vector(n, 1, n) == 0) == ((n + 1) & n == 0), n

    def test_first_column_survives_one_step_short(self):
        for n in range(1, 4097):
            assert _parity_vector(n, 1, n - 1) != 0, n

    def test_never_calls_the_matrix_route(self, refuse):
        # the two parity rows of check-nilpotent, without any matrix power
        refuse(mat_mul, _mul_pair, mat_pow, nilpotency_index)
        for n in range(1, 301):
            assert count_walks_parity(n, 1, n, n - 1) == 1, n
            assert (_parity_vector(n, 1, n) == 0) == ((n + 1) & n == 0), n


class TestFamilyParity:
    @given(st.integers(1, 10), st.data())
    @settings(max_examples=200)
    def test_is_the_doubling_parity(self, q, data):
        # images and Lucas' theorem against Frobenius doubling; short
        # lengths, where the submask tests decide, are drawn as often as long
        n = 2**q - 1
        a = data.draw(st.integers(1, n))
        b = data.draw(st.integers(1, n))
        t = data.draw(st.one_of(st.integers(0, 2 * n + 2), st.integers(0, 10**18)))
        assert _family_parity(q, a, b, t) == count_walks_parity(n, a, b, t)


class TestIntegerAdjacencyPower:
    def test_matches_brute_force_entrywise(self):
        for n in range(1, 7):
            for k in range(0, 9):
                power = integer_adjacency_power(n, k)
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        assert power[x - 1][y - 1] == len(
                            brute_force_walks(n, x, y, k)
                        )

    def test_reduces_to_gf2_power(self):
        for n in (3, 5, 8):
            for k in (0, 1, 4, 9):
                power = integer_adjacency_power(n, k)
                bits = mat_pow(path_adjacency(n), k)
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        assert power[x - 1][y - 1] % 2 == bits.bit(x, y)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            integer_adjacency_power(3, -1)
