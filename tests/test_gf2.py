import random
from collections import Counter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from nilpath.gf2 import (
    GF2Matrix,
    _mul_pair,
    identity,
    mat_from_entries,
    mat_is_zero,
    mat_mul,
    mat_pow,
    nilpotency_index,
    zero,
)
from nilpath.charpoly import charpoly_path
from nilpath.walks import (
    _count_exact,
    _count_vectors,
    _family_parity,
    _parity_vector,
    path_adjacency,
)

from oracles import naive_mat_mul


def random_matrix(draw, max_n: int = 16) -> GF2Matrix:
    n = draw(st.integers(1, max_n))
    rows = draw(
        st.tuples(*[st.integers(0, (1 << n) - 1) for _ in range(n)])
    )
    return GF2Matrix(n, rows)


def mixed_square(n: int, sparse_share: float, seed: int) -> GF2Matrix:
    """Rows of 0 to 3 bits with probability ``sparse_share``, uniform rows
    otherwise, so that ``mat_mul`` peels rows of few bits, rows of many
    bits, or both in one product. Rows come from one seed, which keeps
    shrinking fast: drawing every row made a failing case shrink for
    minutes."""
    rng = random.Random(seed)
    rows = tuple(
        sum(1 << c for c in rng.sample(range(n), min(n, rng.randint(0, 3))))
        if rng.random() < sparse_share
        else rng.getrandbits(n)
        for _ in range(n)
    )
    return GF2Matrix(n, rows)


shares = st.sampled_from([1.0, 0.5, 0.0])
seeds = st.integers(0, 2**32 - 1)


def mixed_matrix(draw, max_n: int) -> GF2Matrix:
    return mixed_square(draw(st.integers(1, max_n)), draw(shares), draw(seeds))


matrices = st.composite(random_matrix)()
mid_matrices = st.composite(lambda draw: mixed_matrix(draw, max_n=32))()
wide_matrices = st.composite(lambda draw: mixed_matrix(draw, max_n=64))()
large_matrices = st.composite(lambda draw: mixed_matrix(draw, max_n=300))()


def first_row_factors(n: int) -> list[GF2Matrix]:
    """Left factors for the first selected row of each product row: all
    rows zero, one bit at column 1, one bit at column n, two bits, random,
    or all set, and each kind mixed into one matrix whose first, middle and
    last rows are zero."""
    rng = random.Random(n)
    kinds = [1, 1 << n - 1, 1 | 1 << n - 1, rng.getrandbits(n), (1 << n) - 1]
    mixed = [kinds[i % len(kinds)] for i in range(n)]
    for i in (0, n // 2, n - 1):
        mixed[i] = 0
    return [zero(n), *(GF2Matrix(n, (kind,) * n) for kind in kinds), GF2Matrix(n, tuple(mixed))]


FIRST_ROW_SIZES = (1, 2, 30, 31, 32, 61, 64)


def bitwise_broadcast(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Row i of ab is the XOR of the rows z of b with a(i, z) = 1, found by
    testing every z in turn. Fast enough for n in the hundreds, where
    ``naive_mat_mul`` is capped but a sparse row spans enough columns for
    ``mat_mul`` to peel several bits."""
    out = []
    for row in a.rows:
        acc = 0
        for z in range(a.n):
            if row >> z & 1:
                acc ^= b.rows[z]
        out.append(acc)
    return GF2Matrix(a.n, tuple(out))


class TestGF2Matrix:
    def test_identity_bits(self):
        i3 = identity(3)
        assert i3.to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert all(i3.bit(i, i) == 1 for i in range(1, 4))

    def test_zero_bits(self):
        assert zero(4).to_lists() == [[0] * 4 for _ in range(4)]

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match=r"^matrix dimension must be at least 1, got 0$"):
            GF2Matrix(0, ())
        with pytest.raises(ValueError, match=r"^matrix dimension must be at least 1, got -3$"):
            GF2Matrix(-3, ())
        with pytest.raises(ValueError, match=r"^matrix dimension must be at least 1, got 0$"):
            identity(0)

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match=r"^expected 3 rows, got 2$"):
            GF2Matrix(3, (0, 0))

    def test_rejects_wide_rows(self):
        with pytest.raises(ValueError, match=r"^row 1 has bits outside columns 1\.\.2$"):
            GF2Matrix(2, (0b100, 0))
        with pytest.raises(ValueError, match=r"^row 1 has bits outside columns 1\.\.2$"):
            GF2Matrix(2, (-1, 0))
        with pytest.raises(ValueError, match=r"^row 2 has bits outside columns 1\.\.2$"):
            GF2Matrix(2, (0, -1))

    def test_bit_is_one_based_row_column(self):
        m = GF2Matrix(3, (0b010, 0b001, 0b100))
        assert m.bit(1, 2) == 1 and m.bit(1, 1) == 0
        assert m.bit(2, 1) == 1
        assert m.bit(3, 3) == 1
        for i, j in ((0, 1), (1, 0), (4, 1), (1, 4)):
            with pytest.raises(IndexError):
                m.bit(i, j)

    def test_to_lists_round_trip(self):
        m = path_adjacency(5)
        rebuilt = GF2Matrix(
            5,
            tuple(
                sum(bit << j for j, bit in enumerate(row))
                for row in m.to_lists()
            ),
        )
        assert rebuilt == m


class TestMatFromEntries:
    def test_one_by_one_zero(self):
        assert mat_from_entries(1, lambda i, j: 0) == zero(1)

    def test_two_by_two_swap(self):
        m = mat_from_entries(2, lambda i, j: 1 if abs(i - j) == 1 else 0)
        assert m.to_lists() == [[0, 1], [1, 0]]

    def test_matches_path_adjacency(self):
        # across the 30-bit digits of a Python int, where the last row of the
        # path matrix has bit n cleared
        for n in (*range(1, 71), 127, 128, 129):
            built = mat_from_entries(n, lambda i, j: 1 if abs(i - j) == 1 else 0)
            assert built == path_adjacency(n)
        assert path_adjacency(1).rows == (0,)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            mat_from_entries(0, lambda i, j: 0)

    def test_truthy_predicate_values_set_the_bit(self):
        m = mat_from_entries(2, lambda i, j: i * j)
        assert m.to_lists() == [[1, 1], [1, 1]]


class TestMatMul:
    def test_identity_law_on_adjacency(self):
        a = path_adjacency(7)
        assert mat_mul(identity(7), a) == a
        assert mat_mul(a, identity(7)) == a

    def test_two_path_squares_to_identity(self):
        a = path_adjacency(2)
        assert mat_mul(a, a) == identity(2)

    def test_seven_fold_product_vanishes(self):
        a = path_adjacency(7)
        acc = identity(7)
        for _ in range(7):
            acc = mat_mul(acc, a)
        assert mat_is_zero(acc)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(identity(2), identity(3))

    @given(matrices, st.data())
    def test_matches_naive_multiplier(self, a, data):
        rows = data.draw(
            st.tuples(*[st.integers(0, (1 << a.n) - 1) for _ in range(a.n)])
        )
        b = GF2Matrix(a.n, rows)
        assert mat_mul(a, b) == naive_mat_mul(a, b)

    def test_matches_naive_at_word_boundary_sizes(self):
        import random

        rng = random.Random(20260814)
        for n in (31, 32, 33, 63, 64):
            a = GF2Matrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
            b = GF2Matrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
            assert mat_mul(a, b) == naive_mat_mul(a, b)

    @given(wide_matrices, shares, seeds, shares, seeds)
    @settings(max_examples=50)
    def test_associativity(self, a, share_b, seed_b, share_c, seed_c):
        b, c = mixed_square(a.n, share_b, seed_b), mixed_square(a.n, share_c, seed_c)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))

    @given(matrices)
    def test_identity_both_sides(self, a):
        i = identity(a.n)
        assert mat_mul(i, a) == a
        assert mat_mul(a, i) == a

    # No shrink phase: each shrink step runs naive_mat_mul, a bit-by-bit
    # triple loop, so shrinking a broken product took about a minute.
    @given(wide_matrices, st.integers(0, 2**32 - 1))
    @settings(
        max_examples=40, phases=[Phase.explicit, Phase.reuse, Phase.generate]
    )
    def test_sparse_and_mixed_rows_match_naive_multiplier(self, a, seed):
        rng = random.Random(seed)
        b = GF2Matrix(a.n, tuple(rng.getrandbits(a.n) for _ in range(a.n)))
        assert mat_mul(a, b) == naive_mat_mul(a, b)

    @given(large_matrices, st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_sparse_and_mixed_rows_match_bitwise_broadcast(self, a, seed):
        rng = random.Random(seed)
        b = GF2Matrix(a.n, tuple(rng.getrandbits(a.n) for _ in range(a.n)))
        assert mat_mul(a, b) == bitwise_broadcast(a, b)
        assert mat_mul(a, a) == bitwise_broadcast(a, a)

    # a product skips the row scan of GF2Matrix; the checked constructor
    # must accept it unchanged, and still refuse a row out of range
    @given(st.integers(1, 64), shares, shares, seeds, seeds)
    def test_product_passes_the_constructor_checks(self, n, share_a, share_b, seed_a, seed_b):
        p = mat_mul(mixed_square(n, share_a, seed_a), mixed_square(n, share_b, seed_b))
        assert GF2Matrix(p.n, p.rows) == p
        for bad in (1 << p.n, -1):
            with pytest.raises(ValueError):
                GF2Matrix(p.n, p.rows[:-1] + (p.rows[-1] ^ bad,))

    @pytest.mark.parametrize("n", FIRST_ROW_SIZES)
    def test_first_row_cases_match_naive_multiplier(self, n):
        rng = random.Random(-n)
        b = GF2Matrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
        for a in first_row_factors(n):
            assert mat_mul(a, b) == naive_mat_mul(a, b)
            assert mat_mul(a, a) == naive_mat_mul(a, a)


class TestMulPair:
    @pytest.mark.parametrize("n", FIRST_ROW_SIZES)
    def test_first_row_cases_are_both_products(self, n):
        rng = random.Random(-n)
        b = GF2Matrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
        c = GF2Matrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
        for a in first_row_factors(n):
            assert _mul_pair(a, b, c) == (mat_mul(a, b), mat_mul(a, c))
            assert _mul_pair(a, b, a) == (mat_mul(a, b), mat_mul(a, a))

    @given(wide_matrices, shares, seeds, shares, seeds)
    @settings(max_examples=50)
    def test_is_both_products_of_its_left_factor(self, a, share_b, seed_b, share_c, seed_c):
        b, c = mixed_square(a.n, share_b, seed_b), mixed_square(a.n, share_c, seed_c)
        assert _mul_pair(a, b, c) == (mat_mul(a, b), mat_mul(a, c))
        # the squaring step of mat_pow passes its left factor again
        assert _mul_pair(a, b, a) == (mat_mul(a, b), mat_mul(a, a))

    @pytest.mark.parametrize("m", range(3, 11))
    def test_family_index_pairs_every_inner_step(self, rebind, m):
        # n - 1 = 2^m - 2: two lone squarings, m - 3 paired steps, the last
        # multiply and the final a * a^(n-1); unpaired that is 2m - 2 products
        calls = Counter()
        for function in (mat_mul, _mul_pair):
            def counted(*args, function=function):
                calls[function.__name__] += 1
                return function(*args)

            rebind(function, counted)
        assert nilpotency_index(path_adjacency(2**m - 1)) == 2**m - 1
        assert (calls["mat_mul"], calls["_mul_pair"]) == (4, m - 3)


class TestMatPow:
    def test_power_zero_is_identity(self):
        assert mat_pow(path_adjacency(5), 0) == identity(5)
        assert mat_pow(zero(3), 0) == identity(3)

    def test_seventh_power_of_seven_path_vanishes(self):
        assert mat_is_zero(mat_pow(path_adjacency(7), 7))

    def test_sixth_power_has_corner_bit(self):
        assert mat_pow(path_adjacency(7), 6).bit(1, 7) == 1

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            mat_pow(identity(2), -1)

    @given(mid_matrices, st.integers(0, 20))
    @settings(max_examples=60)
    def test_matches_repeated_multiplication(self, a, k):
        acc = identity(a.n)
        for _ in range(k):
            acc = mat_mul(acc, a)
        assert mat_pow(a, k) == acc

    @given(mid_matrices, st.integers(0, 16), st.integers(0, 16))
    @settings(max_examples=60)
    def test_exponent_addition_law(self, a, i, j):
        assert mat_pow(a, i + j) == mat_mul(mat_pow(a, i), mat_pow(a, j))

    @given(large_matrices, st.integers(0, 10))
    @settings(max_examples=30)
    def test_sparse_and_mixed_rows_match_repeated_multiplication(self, a, k):
        acc = identity(a.n)
        for _ in range(k):
            acc = mat_mul(acc, a)
        assert mat_pow(a, k) == acc

    def test_path_powers_of_two_have_at_most_two_bits_per_row(self):
        # (x + 1/x)^(2^j) = x^(2^j) + x^-(2^j) over GF(2): the sparse left
        # factor that mat_pow relies on, for every n, not only 2^m - 1
        for n in range(1, 301):
            a = path_adjacency(n)
            square = a
            for j in range(n.bit_length() + 2):
                assert max(row.bit_count() for row in square.rows) <= 2, (n, j)
                square = mat_mul(square, square)
            assert square == mat_pow(a, 2 ** (j + 1))


class TestMatIsZero:
    def test_zero_matrix(self):
        assert mat_is_zero(zero(6))

    def test_adjacency_is_not_zero(self):
        assert not mat_is_zero(path_adjacency(7))

    def test_fifteenth_power_at_fifteen(self):
        assert mat_is_zero(mat_pow(path_adjacency(15), 15))


def brute_index(a: GF2Matrix) -> int | None:
    acc = a
    for k in range(1, a.n + 1):
        if mat_is_zero(acc):
            return k
        acc = mat_mul(acc, a)
    return None


class TestNilpotencyIndex:
    def test_single_vertex(self):
        assert nilpotency_index(path_adjacency(1)) == 1

    def test_seven_path(self):
        assert nilpotency_index(path_adjacency(7)) == 7

    def test_two_path_is_not_nilpotent(self):
        assert nilpotency_index(path_adjacency(2)) is None

    def test_identity_is_not_nilpotent(self):
        assert nilpotency_index(identity(5)) is None

    def test_one_by_one_edge_cases(self):
        assert nilpotency_index(zero(1)) == 1
        assert nilpotency_index(identity(1)) is None

    def test_matches_brute_scan_on_paths(self):
        for n in range(1, 11):
            a = path_adjacency(n)
            assert nilpotency_index(a) == brute_index(a)

    def test_never_calls_the_walk_or_charpoly_routes(self, refuse):
        refuse(_parity_vector, _count_vectors, _count_exact, _family_parity, charpoly_path)
        for n in range(1, 131):
            expected = n if (n + 1) & n == 0 else None
            assert nilpotency_index(path_adjacency(n)) == expected, n

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=60)
    def test_matches_brute_scan_on_triangular_matrices(self, n, data):
        # strictly upper triangular, hence nilpotent with index <= n
        rows = []
        for i in range(n):
            width = n - i - 1
            high = data.draw(st.integers(0, (1 << width) - 1 if width else 0))
            rows.append(high << (i + 1))
        a = GF2Matrix(n, tuple(rows))
        k = nilpotency_index(a)
        assert k == brute_index(a)
        assert k is not None and 1 <= k <= n

    @given(matrices)
    @settings(max_examples=40)
    def test_agrees_with_brute_scan_on_random_matrices(self, a):
        assert nilpotency_index(a) == brute_index(a)
