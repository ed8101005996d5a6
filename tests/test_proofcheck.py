from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilpath.proofcheck import (
    ReflectionOutOfBounds,
    _escapes,
    _reflect,
    class2_by_sides,
    class2_decompose,
    class_census,
    classify,
    find_naive_failure,
    naive_pivot,
    naive_reflect,
    reflect_class3,
    _family_census,
    _odd_first_visits,
    theorem_check,
)
from nilpath.walks import (
    _family_parity,
    _walks,
    count_walks_exact,
    count_walks_parity,
    enumerate_walks,
    iter_walks_from,
    walk_is_valid,
)
from oracles import naive_failure_scan, per_offset_replay


def walks_of_length(n, k):
    for start in range(1, n + 1):
        yield from iter_walks_from(n, start, k)


class TestClassify:
    def test_never_visits(self):
        assert classify(7, (1, 2, 1), 4) == 1

    def test_visits_once(self):
        assert classify(7, (1, 2, 3, 4, 3, 2, 1), 4) == 2

    def test_visits_twice(self):
        assert classify(7, (4, 5, 4), 4) == 3

    def test_endpoint_visits_count(self):
        # three visits are still class 3
        assert classify(7, (4, 3, 4, 5, 4), 4) == 3

    def test_rejects_invalid_walk(self):
        with pytest.raises(ValueError):
            classify(7, (1, 3), 4)

    def test_rejects_pivot_out_of_range(self):
        with pytest.raises(ValueError):
            classify(7, (1, 2), 8)

    def test_partition_is_exhaustive_and_exclusive(self):
        for k in range(0, 8):
            for w in walks_of_length(5, k):
                for pivot in range(1, 6):
                    visits = w.count(pivot)
                    expected = 1 if visits == 0 else 2 if visits == 1 else 3
                    assert classify(5, w, pivot) == expected


class TestClass2Decompose:
    def test_interior_visit(self):
        left, right = class2_decompose(7, (1, 2, 3, 4, 3, 2, 1), 4)
        assert len(left) == 3
        assert left == (1, 2, 3)
        assert right == (3, 2, 1)

    def test_visit_at_start(self):
        left, right = class2_decompose(7, (4, 3, 2, 1), 4)
        assert left == ()
        assert right == (3, 2, 1)

    def test_visit_at_end(self):
        left, right = class2_decompose(7, (2, 3, 4), 4)
        assert len(left) == 2
        assert left == (2, 3)
        assert right == ()

    def test_rejects_other_classes(self):
        with pytest.raises(ValueError):
            class2_decompose(7, (1, 2, 1), 4)
        with pytest.raises(ValueError):
            class2_decompose(7, (4, 5, 4), 4)

    def test_splice_reproduces_every_class2_walk(self):
        pivot = 4
        for k in range(0, 9):
            for w in walks_of_length(7, k):
                if classify(7, w, pivot) != 2:
                    continue
                left, right = class2_decompose(7, w, pivot)
                assert left + (pivot,) + right == w
                # each part stays strictly on one side of the pivot
                for part in (left, right):
                    assert all(v != pivot for v in part)
                    if part:
                        assert all((v < pivot) == (part[0] < pivot) for v in part)


@st.composite
def walks_and_pivots(draw):
    """(n, walk, pivot) with n <= 40 and the pivot any vertex of the path.

    Steps are drawn as in ``walks_with_a_repeated_vertex``, so every draw
    is a valid walk (of length 0 on the 1-path). The pivot is a vertex of
    the walk in about half the draws, so all three classes come up."""
    n = draw(st.integers(1, 40))
    vs = [draw(st.integers(1, n))]
    for up in draw(st.lists(st.booleans(), max_size=40 if n > 1 else 0)):
        v = vs[-1]
        vs.append(v + 1 if (up and v < n) or v == 1 else v - 1)
    return n, tuple(vs), draw(st.sampled_from(vs) | st.integers(1, n))


class TestClassVocabulary:
    @settings(max_examples=300)
    @given(walks_and_pivots())
    def test_class_is_the_capped_visit_count(self, case):
        n, walk, pivot = case
        visits = walk.count(pivot)
        assert classify(n, walk, pivot) == min(visits, 2) + 1
        if visits == 1:
            left, right = class2_decompose(n, walk, pivot)
            assert left + (pivot,) + right == walk
            assert len(left) == walk.index(pivot)
            for part in (left, right):
                assert all(v < pivot for v in part) or all(v > pivot for v in part)
        else:
            with pytest.raises(ValueError) as exc:
                class2_decompose(n, walk, pivot)
            assert str(exc.value) == (
                f"walk {walk} visits pivot {pivot} {visits} times, not once"
            )
        if visits < 2:
            with pytest.raises(ValueError) as exc:
                reflect_class3(n, walk, pivot)
            assert str(exc.value) == (
                f"walk {walk} visits pivot {pivot} {visits} times, need at least two"
            )


class TestReflectClass3:
    def test_shortest_bounce(self):
        assert reflect_class3(7, (4, 5, 4), 4) == (4, 3, 4)

    def test_longer_segment(self):
        got = reflect_class3(7, (3, 4, 5, 6, 5, 4, 3, 2), 4)
        assert got == (3, 4, 3, 2, 3, 4, 3, 2)

    def test_only_first_segment_is_mirrored(self):
        assert reflect_class3(7, (4, 5, 4, 5, 4), 4) == (
            4,
            3,
            4,
            5,
            4,
        )

    def test_off_center_pivot_can_escape(self):
        with pytest.raises(ReflectionOutOfBounds):
            reflect_class3(7, (6, 5, 4, 5, 6), 6)

    def test_rejects_other_classes(self):
        with pytest.raises(ValueError):
            reflect_class3(7, (1, 2, 3, 4, 3, 2, 1), 4)

    def test_involution_laws_at_midpoint(self):
        pivot = 4
        for k in range(0, 8):
            for w in walks_of_length(7, k):
                if classify(7, w, pivot) != 3:
                    continue
                image = reflect_class3(7, w, pivot)
                assert walk_is_valid(7, image)
                assert image != w
                assert (image[0], image[-1], len(image)) == (w[0], w[-1], len(w))
                assert classify(7, image, pivot) == 3
                assert reflect_class3(7, image, pivot) == w


@st.composite
def walks_with_a_repeated_vertex(draw):
    """(n, walk, pivot) with n <= 15 and pivot visited at least twice.

    Each drawn direction is taken when it stays on the path, else the other
    one, so every draw is a valid walk; the pivot is any repeated vertex,
    so it is off-centre in most draws."""
    n = draw(st.integers(2, 15))
    vs = [draw(st.integers(1, n))]
    for up in draw(st.lists(st.booleans(), min_size=2, max_size=30)):
        v = vs[-1]
        vs.append(v + 1 if (up and v < n) or v == 1 else v - 1)
    repeated = sorted(v for v in set(vs) if vs.count(v) >= 2)
    assume(repeated)
    return n, tuple(vs), draw(st.sampled_from(repeated))


def mirror_between_first_two_visits(n, vs, pivot):
    """The reflection written as a loop: the mirrored walk, or the text of
    the escape at the first vertex whose mirror leaves 1..n."""
    vs = list(vs)
    first = vs.index(pivot)
    for t in range(first + 1, vs.index(pivot, first + 1)):
        mirrored = 2 * pivot - vs[t]
        if not 1 <= mirrored <= n:
            return f"vertex {vs[t]} reflects to {mirrored}, outside 1..{n}"
        vs[t] = mirrored
    return tuple(vs)


class TestTupleReflection:
    @settings(max_examples=300)
    @given(walks_with_a_repeated_vertex())
    def test_matches_reflect_class3_and_the_loop(self, case):
        n, walk, pivot = case
        expected = mirror_between_first_two_visits(n, walk, pivot)
        if isinstance(expected, str):
            for reflect in (
                lambda: _reflect(n, walk, pivot),
                lambda: reflect_class3(n, walk, pivot),
            ):
                with pytest.raises(ReflectionOutOfBounds) as exc:
                    reflect()
                assert str(exc.value) == expected
        else:
            image = _reflect(n, walk, pivot)
            assert image == expected
            assert image == reflect_class3(n, walk, pivot)

    def test_escape_names_the_first_offending_vertex(self):
        # 4 is the first to leave the path, 5 the farthest
        with pytest.raises(ReflectionOutOfBounds, match=r"^vertex 4 reflects to 0, "):
            _reflect(7, (2, 3, 4, 5, 4, 3, 2), 2)


class TestClassCensus:
    def test_figure_sized_example(self):
        census = class_census(7, 4, 3, 2, 7)
        assert (census.c1, census.c2, census.c3) == (8, 8, 12)
        assert census.per_step_c2 == (0, 4, 0, 2, 0, 2, 0, 0)
        assert census.total == count_walks_exact(7, 3, 2, 7) == 28

    def test_opposite_sides_empty_class1(self):
        assert class_census(7, 4, 3, 5, 2).c1 == 0

    def test_single_bounce_walk(self):
        census = class_census(3, 2, 1, 1, 2)
        assert (census.c1, census.c2, census.c3) == (0, 1, 0)

    def test_pivot_at_endpoint(self):
        census = class_census(7, 4, 4, 4, 2)
        # both length-2 walks from 4 revisit 4
        assert (census.c1, census.c2, census.c3) == (0, 0, 2)

    def test_matches_enumeration_classification(self):
        for n in range(1, 7):
            for k in range(0, 8):
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        walks = enumerate_walks(n, x, y, k)
                        for pivot in range(1, n + 1):
                            classes = Counter(classify(n, w, pivot) for w in walks)
                            census = class_census(n, pivot, x, y, k)
                            assert census.c1 == classes[1]
                            assert census.c2 == classes[2]
                            assert census.c3 == classes[3]
                            for i in range(k + 1):
                                expected = sum(
                                    1
                                    for w in walks
                                    if w.count(pivot) == 1
                                    and w[i] == pivot
                                )
                                assert census.per_step_c2[i] == expected

    @given(
        st.integers(1, 12),
        st.integers(0, 16),
        st.data(),
    )
    @settings(max_examples=80)
    def test_internal_consistency(self, n, k, data):
        pivot = data.draw(st.integers(1, n))
        x = data.draw(st.integers(1, n))
        y = data.draw(st.integers(1, n))
        census = class_census(n, pivot, x, y, k)
        assert census.total == count_walks_exact(n, x, y, k)
        assert sum(census.per_step_c2) == census.c2
        assert min(census.c1, census.c2, census.c3) >= 0

    def test_never_reads_the_total(self, monkeypatch):
        import nilpath.proofcheck

        def refuse(*args):
            raise AssertionError("class_census must not call count_walks_exact")

        # proofcheck does not import it; the patch catches a call added later
        monkeypatch.setattr(
            nilpath.proofcheck, "count_walks_exact", refuse, raising=False
        )
        for x in range(1, 8):
            for y in range(1, 8):
                census = class_census(7, 4, x, y, 9)
                assert census.total == len(enumerate_walks(7, x, y, 9))

    def test_per_step_entries_even_at_midpoint(self):
        for k in (7, 8, 9):
            for x in range(1, 8):
                for y in range(1, 8):
                    census = class_census(7, 4, x, y, k)
                    assert all(c % 2 == 0 for c in census.per_step_c2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            class_census(7, 0, 1, 1, 3)
        with pytest.raises(ValueError):
            class_census(7, 4, 1, 1, -1)


def _census_mod_2(m, x, y, k):
    census = class_census(2**m - 1, 2 ** (m - 1), x, y, k)
    odd_offsets = [i for i, c in enumerate(census.per_step_c2) if c % 2]
    return census.c1 % 2, odd_offsets, census.c3 % 2


class TestParityCensus:
    def test_is_the_exact_census_mod_2(self):
        odd = Counter()
        for m in (1, 2, 3, 4):
            n = 2**m - 1
            for k in range(3 * n + 1):
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        parities = _family_census(m, x, y, k)
                        assert parities == _census_mod_2(m, x, y, k), (m, x, y, k)
                        c1, odd_offsets, c3 = parities
                        odd.update(c1=c1, c2=bool(odd_offsets), c3=c3)
        # below k = n classes 1 and 2 have odd cases, so the check is not
        # vacuous; the midpoint reflection pairs class 3 at every length
        assert odd["c1"] > 0 and odd["c2"] > 0 and odd["c3"] == 0, odd

    @given(st.integers(5, 8), st.data())
    @settings(max_examples=40)
    def test_is_the_exact_census_mod_2_for_larger_m(self, m, data):
        n = 2**m - 1
        x = data.draw(st.integers(1, n))
        y = data.draw(st.integers(1, n))
        k = data.draw(st.integers(0, 3 * n))
        assert _family_census(m, x, y, k) == _census_mod_2(m, x, y, k)


    def test_odd_first_visits_total_three_to_the_m_minus_1(self):
        for m in range(1, 10):
            p = 2 ** (m - 1)
            lengths = [L for x in range(1, 2 * p) for L in _odd_first_visits(m, x, range(p))]
            assert len(lengths) == 3 ** (m - 1), m

    def test_odd_first_visits_from_the_end_and_the_midpoint(self):
        # one walk runs straight from vertex 1 to the midpoint; the
        # midpoint is there at length 0 and is never reached again first
        for m in range(1, 12):
            p = 2 ** (m - 1)
            assert _odd_first_visits(m, 1, range(p)) == [p - 1]
            assert _odd_first_visits(m, p, range(p)) == [0]
            assert _odd_first_visits(m, p, range(1, 3 * p)) == []


class TestClass2BySides:
    def test_matches_the_census_for_every_pivot(self):
        for n in range(1, 8):
            for k in range(0, 12):
                for pivot in range(1, n + 1):
                    for x in range(1, n + 1):
                        for y in range(1, n + 1):
                            assert (
                                class2_by_sides(n, pivot, x, y, k)
                                == class_census(n, pivot, x, y, k).c2
                            )

    def test_end_segment_pivot_at_long_length_streams_once(self, monkeypatch):
        import nilpath.proofcheck

        def refuse(*args):
            raise AssertionError("class2_by_sides must not call count_walks_exact")

        # proofcheck does not import it; the patch catches a call added later
        monkeypatch.setattr(
            nilpath.proofcheck, "count_walks_exact", refuse, raising=False
        )
        # pivot next to an end: one side segment has a single vertex, the
        # other n - 2, and k is far above n
        for pivot, x, y in [(2, 1, 7), (2, 5, 1), (8, 9, 3)]:
            assert (
                class2_by_sides(9, pivot, x, y, 2000)
                == class_census(9, pivot, x, y, 2000).c2
            )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            class2_by_sides(7, 8, 1, 1, 3)
        with pytest.raises(ValueError):
            class2_by_sides(7, 4, 1, 1, -1)


class TestTheoremCheck:
    def test_single_vertex_base_case(self):
        # P_1 gets the rows of every m: its only vertex is the midpoint
        for k in (*range(1, 65), 10**12):
            report = theorem_check(1, k, 1, 1)
            assert report.passed
            assert report.command == "theorem-check"
            assert [d.check for d in report.details] == [
                "class 1: walks avoiding the midpoint",
                "class 2: single midpoint visit, every visit offset",
                "class 3: two or more midpoint visits",
                "mod-2 walk count",
            ]
            assert [d.provenance for d in report.details[:2]] == [
                "empty: an endpoint equals the midpoint 1",
                f"visit offsets 0..{k}: {k + 1} structurally empty",
            ]

    def test_figure_sized_case(self):
        report = theorem_check(3, 7, 3, 2)
        assert report.passed
        checks = [d.check for d in report.details]
        assert any("class 1" in c for c in checks)
        assert any("class 2" in c for c in checks)
        assert any("class 3" in c for c in checks)
        assert any("mod-2" in c for c in checks)

    def test_three_vertex_case(self):
        assert theorem_check(2, 3, 1, 2).passed

    def test_every_detail_row_passes(self):
        report = theorem_check(4, 17, 6, 11)
        assert all(d.passed for d in report.details)

    def test_parameters_recorded(self):
        report = theorem_check(3, 9, 1, 5)
        assert report.parameters == {"m": 3, "n": 7, "k": 9, "x": 1, "y": 5}

    def test_rejects_short_lengths(self):
        with pytest.raises(ValueError):
            theorem_check(3, 6, 1, 1)

    def test_rejects_bad_vertices_and_m(self):
        with pytest.raises(ValueError):
            theorem_check(3, 7, 0, 1)
        with pytest.raises(ValueError):
            theorem_check(3, 7, 1, 8)
        with pytest.raises(ValueError):
            theorem_check(0, 1, 1, 1)

    def test_large_length_far_above_bound(self):
        assert theorem_check(3, 40, 2, 6).passed

    def test_never_calls_the_exact_census(self, refuse):
        # theorem_check needs only class parities
        refuse(class_census)
        for m in range(1, 5):
            n = 2**m - 1
            for k in range(n, n + 5):
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        assert theorem_check(m, k, x, y).passed

    def test_no_departure_is_tested_at_k_at_least_n(self, rebind):
        # after an arrival at offset i < p the departure has length k - i,
        # at least p once k >= n = 2p - 1, and such departures are even
        tests, calls = [], []
        rebind(_family_parity, lambda *args: tests.append(args) or _family_parity(*args))

        def counted(m, v, lengths):
            before = len(tests)
            listed = _odd_first_visits(m, v, lengths)
            calls.append((v, len(tests) - before))
            return listed

        rebind(_odd_first_visits, counted)
        for m in range(1, 6):
            n = 2**m - 1
            for k in (n, n + 1, 3 * n, 10**12):
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        calls.clear()
                        assert theorem_check(m, k, x, y).passed
                        assert [v for v, _ in calls] == [x, y]
                        assert calls[1] == (y, 0), (m, k, x, y)
        # one length short, the departure of length p - 1 is tested
        calls.clear()
        _family_census(5, 1, 2, 30)
        assert calls == [(1, 15), (2, 1)]

    def test_frontier_m14(self):
        n = 2**14 - 1
        assert theorem_check(14, n, n // 3, n // 5).passed

    @given(st.integers(1, 5), st.integers(0, 30), st.data())
    @settings(max_examples=60)
    def test_agrees_with_parity_count(self, m, extra, data):
        n = 2**m - 1
        x = data.draw(st.integers(1, n))
        y = data.draw(st.integers(1, n))
        report = theorem_check(m, n + extra, x, y)
        assert report.passed
        assert count_walks_parity(n, x, y, n + extra) == 0


def _assert_matches_per_offset_replay(m, k, x, y, memo=None):
    """Same class texts and verdict as the per-offset replay, which may share
    its memo of certified cases across calls."""
    report = theorem_check(m, k, x, y)
    oracle = per_offset_replay(m, k, x, y, memo)
    notes = {d.check.split(":")[0]: d.provenance for d in report.details}
    assert notes["class 1"] == oracle["class1"]
    assert notes["class 2"] == oracle["class2"]
    assert report.passed


class TestCertificateNotes:
    """The certificate notes of ``theorem_check`` against ``per_offset_replay``."""

    def test_matches_per_offset_replay_exhaustively(self):
        memo = set()
        for m in (2, 3, 4):
            n = 2**m - 1
            for k in range(n, 2 * n + 4):
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        _assert_matches_per_offset_replay(m, k, x, y, memo)

    @given(st.integers(2, 6), st.integers(0, 3), st.data())
    @settings(max_examples=40)
    def test_matches_per_offset_replay(self, m, extra, data):
        n = 2**m - 1
        k = data.draw(st.integers(n, 2 * n + 3))
        x = data.draw(st.integers(1, n))
        y = data.draw(st.integers(1, n))
        _assert_matches_per_offset_replay(m, k, x, y)

    def test_full_certificate_at_m_10(self):
        assert theorem_check(10, 1100, 341, 700).passed
        assert theorem_check(10, 1100, 512, 3).passed

    def test_length_below_bound_raises(self):
        # No certificate is issued below k = n: theorem_check refuses first.
        for m in range(1, 7):
            n = 2**m - 1
            for x, y in ((1, 1), (1, n), ((n + 1) // 2, n)):
                with pytest.raises(ValueError, match="below the bound"):
                    theorem_check(m, n - 1, x, y)


class TestNaivePivot:
    def test_prefers_high_two_exponent(self):
        assert naive_pivot((1, 2, 3, 4, 3, 2, 1)) == 2

    def test_absent_when_nothing_repeats(self):
        assert naive_pivot((1, 2, 3, 4, 5, 6, 7)) is None

    def test_single_repeated_vertex(self):
        assert naive_pivot((4, 5, 4)) == 4

    def test_tie_broken_by_earliest_second_visit(self):
        # 2 and 6 share 2-exponent 1; 6 completes its second visit first
        assert naive_pivot((6, 5, 6, 5, 4, 3, 2, 3, 2)) == 6
        assert naive_pivot((2, 3, 2, 3, 4, 5, 6, 5, 6)) == 2

    def test_zero_length_walk_has_no_pivot(self):
        assert naive_pivot((3,)) is None


class TestNaiveReflect:
    def test_midpoint_pivot_reflects_safely(self):
        assert naive_reflect(7, (4, 5, 4)) == (4, 3, 4)

    def test_near_edge_pivot_stays_inside(self):
        assert naive_reflect(7, (2, 3, 2)) == (2, 1, 2)

    def test_escape_at_high_pivot(self):
        with pytest.raises(ReflectionOutOfBounds):
            naive_reflect(7, (6, 5, 4, 5, 6))

    def test_rejects_walk_without_repeats(self):
        with pytest.raises(ValueError, match="has no repeated vertex"):
            naive_reflect(7, (1, 2, 3))

    def test_rejects_invalid_walk(self):
        with pytest.raises(ValueError, match="is not a valid walk in the 7-path"):
            naive_reflect(7, (3, 5, 3))

    def test_validates_the_walk_once(self, monkeypatch):
        import nilpath.proofcheck

        calls = []
        real = nilpath.proofcheck.walk_is_valid

        def counting(n, vs):
            calls.append(vs)
            return real(n, vs)

        monkeypatch.setattr(nilpath.proofcheck, "walk_is_valid", counting)
        assert naive_reflect(7, [3, 4, 5, 4, 3]) == (3, 4, 3, 4, 3)
        assert calls == [(3, 4, 5, 4, 3)]

    def test_matches_reflect_class3_at_the_naive_pivot(self):
        def outcome(reflect):
            try:
                return reflect()
            except ReflectionOutOfBounds as exc:
                return str(exc)

        for k in range(9):
            for w in walks_of_length(7, k):
                pivot = naive_pivot(w)
                if pivot is not None:
                    assert outcome(lambda: naive_reflect(7, w)) == outcome(
                        lambda: reflect_class3(7, w, pivot)
                    ), w

    def test_double_application_where_pivot_is_stable(self):
        for k in range(2, 7):
            for w in walks_of_length(7, k):
                pivot = naive_pivot(w)
                if pivot is None:
                    continue
                try:
                    image = naive_reflect(7, w)
                except ReflectionOutOfBounds:
                    continue
                if naive_pivot(image) == pivot:
                    assert naive_reflect(7, image) == w


class TestFindNaiveFailure:
    def test_witness_on_seven_path(self):
        w = find_naive_failure(7, 7)
        assert w is not None
        assert w == (1, 2, 3, 4, 3, 2, 1, 2)
        with pytest.raises(ReflectionOutOfBounds):
            naive_reflect(7, w)

    def test_witness_is_lexicographically_first(self):
        w = find_naive_failure(7, 7)
        for other in walks_of_length(7, 7):
            if other >= w:
                break
            pivot = naive_pivot(other)
            if pivot is None:
                continue
            try:
                reflect_class3(7, other, pivot)
            except ReflectionOutOfBounds:
                pytest.fail(f"{other} precedes the reported witness")

    def test_bounds_test_matches_the_mirrored_vertices(self):
        # the scan tests the segment's bounds; the reflection forms its
        # mirror, and both must agree with the definition of an escape
        for n in range(1, 17):
            witnesses = {}  # length -> first escaping walk, in scan order
            for x in range(1, n + 1):
                for w in _walks(n, x, 10):
                    pivot = naive_pivot(w)
                    if pivot is None:
                        continue
                    first = w.index(pivot)
                    segment = w[first + 1 : w.index(pivot, first + 1)]
                    escapes = not all(1 <= 2 * pivot - v <= n for v in segment)
                    assert _escapes(n, segment, pivot) == escapes, w
                    try:
                        image = _reflect(n, w, pivot)
                    except ReflectionOutOfBounds:
                        assert escapes, w
                        witnesses.setdefault(len(w) - 1, w)
                    else:
                        assert not escapes and walk_is_valid(n, image), w
            for k in range(11):
                assert find_naive_failure(n, k) == witnesses.get(k), (n, k)

    def test_settling_matches_the_full_scan(self):
        # settling any pivot that stays in bounds first differs at (4, 3),
        # and settling one 2-exponent too early at (15, 13)
        for n in range(1, 33):
            for k in range(17):
                assert find_naive_failure(n, k) == naive_failure_scan(n, k), (n, k)

    def test_settled_pivots_are_not_tested_again(self, rebind):
        # the full scan runs naive_pivot on 215,233 walks here
        calls = []
        rebind(naive_pivot, lambda vs: calls.append(vs) or naive_pivot(vs))
        assert find_naive_failure(7, 22) == (1, 2, 3, 4, 3, 2, 1) + (2, 1) * 8
        assert len(calls) <= 3

    def test_single_vertex_never_fails(self):
        assert find_naive_failure(1, 5) is None

    def test_no_failure_at_small_length(self):
        assert find_naive_failure(3, 3) is None
        # no walk of length 1 repeats a vertex, so none has a naive pivot
        assert find_naive_failure(5, 1) is None

    def test_midpoint_pivot_walks_never_fail_at_length_four(self):
        for w in walks_of_length(7, 4):
            if naive_pivot(w) == 4:
                naive_reflect(7, w)  # must not raise

    def test_respects_cap(self):
        # no length is refused: on two vertices the first walk of length 30
        # already escapes, since the pivot 2 mirrors the vertex 1 to 3
        assert find_naive_failure(2, 30) == (1, 2) * 15 + (1,)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            find_naive_failure(0, 3)
        with pytest.raises(ValueError):
            find_naive_failure(3, -1)
