"""End-to-end acceptance checks, one test per claim the package exists to verify.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them; ``pytest -v`` shows one line per criterion either way) and
enforces the stated runtime budget where there is one.
"""

import time

import pytest

from nilpath.charpoly import charpoly_is_monomial, charpoly_path
from nilpath.gf2 import mat_is_zero, mat_pow, nilpotency_index
from nilpath.proofcheck import (
    ClassTag,
    ReflectionOutOfBounds,
    class_census,
    classify,
    naive_reflect,
    find_naive_failure,
    reflect_class3,
    theorem_check,
)
from nilpath.walks import (
    count_walks_exact,
    count_walks_parity,
    enumerate_walks,
    integer_adjacency_power,
    iter_walks_from,
    path_adjacency,
    walk_is_valid,
)

from oracles import cofactor_charpoly_bits, naive_mat_mul


def report(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_1_nilpotency_sweep():
    started = time.perf_counter()
    for m in range(1, 13):
        n = 2**m - 1
        assert mat_is_zero(mat_pow(path_adjacency(n), n)), f"A^{n} != 0 at n={n}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget is 60s"
    report(
        f"criterion 1 - A^n = 0 over GF(2) for every n = 2^m - 1, "
        f"m = 1..12, in {elapsed:.1f}s"
    )


def test_criterion_2_nilpotency_index_is_exactly_n():
    for m in range(1, 13):
        n = 2**m - 1
        a = path_adjacency(n)
        if n > 1:
            assert mat_pow(a, n - 1).bit(1, n) == 1, f"corner bit clear at n={n}"
        assert nilpotency_index(a) == n, f"index != {n} at n={n}"
    report(
        "criterion 2 - entry (1, n) of A^(n-1) is 1, so the nilpotency "
        "index is exactly n, m = 1..12"
    )


def test_criterion_3_walk_count_oracle_equivalence():
    triples = 0
    for n in range(1, 9):
        for k in range(0, 13):
            power = integer_adjacency_power(n, k)
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    counted = count_walks_exact(n, x, y, k)
                    listed = len(enumerate_walks(n, x, y, k))
                    assert counted == listed == power[x - 1][y - 1], (
                        f"mismatch at n={n} k={k} x={x} y={y}: "
                        f"{counted} / {listed} / {power[x - 1][y - 1]}"
                    )
                    triples += 1
    report(
        f"criterion 3 - exact count = enumeration = integer matrix power "
        f"on {triples} (n, k, x, y) cases, n <= 8, k <= 12, 0 mismatches"
    )


def test_criterion_4_theorem_parity_with_certificates():
    cases = 0
    for m in range(1, 5):
        n = 2**m - 1
        for k in range(n, n + 5):
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    assert count_walks_parity(n, x, y, k) == 0
                    rpt = theorem_check(m, k, x, y)
                    assert rpt.passed
                    expected_rows = 2 if m == 1 else 4
                    assert len(rpt.details) == expected_rows
                    assert all(d.passed for d in rpt.details)
                    cases += 1
    report(
        f"criterion 4 - even walk counts with a per-class certificate on "
        f"{cases} (m, k, x, y) cases, m <= 4, n <= k <= n + 4, 0 failures"
    )


def test_criterion_5_reflection_involution_suite():
    n, pivot = 7, 4
    tested = 0
    for k in range(0, 10):
        for start in range(1, n + 1):
            for walk in iter_walks_from(n, start, k):
                if classify(n, walk, pivot).tag is not ClassTag.CLASS3:
                    continue
                image = reflect_class3(n, walk, pivot)  # total: must not raise
                assert walk_is_valid(n, image)
                assert image != walk, f"fixed point at {walk}"
                assert (image[0], image[-1], len(image)) == (
                    walk[0],
                    walk[-1],
                    len(walk),
                )
                assert classify(n, image, pivot).tag is ClassTag.CLASS3
                assert reflect_class3(n, image, pivot) == walk
                tested += 1
    assert tested > 0
    report(
        f"criterion 5 - midpoint reflection is a total, fixed-point-free, "
        f"class/endpoint/length-preserving involution on all {tested} "
        f"class-3 walks of P_7, k <= 9, 0 violations"
    )


def test_criterion_6_class2_per_step_counts_are_even():
    entries = 0
    for k in (7, 8, 9):
        for x in range(1, 8):
            for y in range(1, 8):
                census = class_census(7, 4, x, y, k)
                for i, c in enumerate(census.per_step_c2):
                    assert c % 2 == 0, f"odd count {c} at k={k} x={x} y={y} i={i}"
                    entries += 1
    report(
        f"criterion 6 - every per-visit-offset class-2 count is even on "
        f"P_7 with pivot 4, k = 7..9 ({entries} entries), 0 violations"
    )


def test_criterion_7_naive_reflection_fails():
    witness = find_naive_failure(7, 7)
    assert witness is not None, "no escaping walk found at n=7, k=7"
    with pytest.raises(ReflectionOutOfBounds):
        naive_reflect(7, witness)
    report(
        f"criterion 7 - the divisibility-pivot reflection escapes 1..7 on "
        f"the walk {witness} (length 7), found by exhaustive scan"
    )


def test_criterion_8_characteristic_polynomial_cross_check():
    for n in (1, 3, 7, 15, 31, 63, 127, 255):
        assert charpoly_is_monomial(n), f"charpoly not x^{n} at n={n}"
    agree = 0
    for n in range(1, 257):
        nilpotent = nilpotency_index(path_adjacency(n)) is not None
        assert charpoly_is_monomial(n) == nilpotent, f"disagreement at n={n}"
        agree += 1
    for n in range(0, 11):
        assert charpoly_path(n).bits == cofactor_charpoly_bits(n)
    report(
        f"criterion 8 - charpoly is x^n on the 2^m - 1 family, matches "
        f"nilpotency for all {agree} sizes n <= 256, and matches the "
        f"cofactor determinant for n <= 10"
    )


def test_criterion_9_kernel_benchmark():
    n = 4095
    a = path_adjacency(n)
    started = time.perf_counter()
    power = mat_pow(a, n)
    elapsed = time.perf_counter() - started
    assert mat_is_zero(power)
    assert elapsed < 10.0, f"mat_pow took {elapsed:.2f}s, budget is 10s"
    # the bit-at-a-time reference multiplier stays a test-only oracle
    from nilpath.gf2 import identity

    with pytest.raises(ValueError):
        naive_mat_mul(identity(65), identity(65))
    import nilpath

    assert not hasattr(nilpath, "naive_mat_mul")
    report(
        f"criterion 9 - mat_pow(A, {n}) at n = {n} ran in {elapsed:.2f}s "
        f"(budget 10s) and returned the zero matrix; naive multiplier is "
        f"capped at n = 64 and lives only in the test suite"
    )
