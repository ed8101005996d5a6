"""The nilpotent part of the path matrix over GF(2), for every n.

Let 2^v be the largest power of 2 dividing n + 1, and let d = 2^v - 1.
Then x^d exactly divides the characteristic polynomial p_n, and
rank A^t = n - min(t, d): A has a single nilpotent Jordan block, of size
d. The paper's claim is the case d = n, that is n = 2^m - 1. Away from
that family the routes are held to a value, d, and not only to the one
bit "not nilpotent".

Proof: write n + 1 = 2^v (2j + 1). Applying p_(2h+1) = x * p_h^2 v times
gives p_n = x^d * p_(2j)^(2^v), and p_(2j)(0) = 1 mod 2 because the path
on 2j vertices has exactly one perfect matching.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from nilpath.charpoly import charpoly_path
from nilpath.gf2 import identity, mat_pow, nilpotency_index, zero
from nilpath.walks import path_adjacency

from oracles import cofactor_charpoly_bits, gf2_rank

LARGEST_N = 400


def nilpotent_size(n: int) -> int:
    """d = 2^v - 1, where 2^v is the largest power of 2 dividing n + 1."""
    return ((n + 1) & -(n + 1)) - 1


def x_adic_valuation(bits: int) -> int:
    """The largest e with x^e dividing the GF(2) polynomial ``bits``."""
    return (bits & -bits).bit_length() - 1


def _with_valuation(v: int) -> st.SearchStrategy[int]:
    """n = 2^v (2j + 1) - 1 up to LARGEST_N, so that d = 2^v - 1."""
    odd_parts = st.integers(0, ((LARGEST_N + 1 >> v) - 1) // 2)
    return odd_parts.map(lambda j: ((2 * j + 1) << v) - 1)


# uniform sizes hit large d rarely, so half the draws fix v first
sizes = st.integers(1, LARGEST_N) | st.integers(1, 8).flatmap(_with_valuation)


class TestGF2RankOracle:
    def test_identity_and_zero(self):
        for n in (1, 2, 7, 64):
            assert gf2_rank(identity(n).rows) == n
            assert gf2_rank(zero(n).rows) == 0

    @given(st.lists(st.integers(0, 255), max_size=8))
    @settings(max_examples=60)
    def test_rank_counts_the_span(self, rows):
        # the rows span 2^rank vectors, listed here one sum at a time
        span = {0}
        for row in rows:
            span |= {vector ^ row for vector in span}
        assert len(span) == 2 ** gf2_rank(rows)


class TestNilpotentPart:
    @given(sizes)
    def test_charpoly_valuation(self, n):
        assert x_adic_valuation(charpoly_path(n).bits) == nilpotent_size(n)

    @given(st.integers(1, 64))
    @settings(max_examples=30)
    def test_cofactor_valuation(self, n):
        assert x_adic_valuation(cofactor_charpoly_bits(n)) == nilpotent_size(n)

    @given(sizes)
    @settings(max_examples=60)
    def test_nilpotent_exactly_when_the_block_is_everything(self, n):
        d = nilpotent_size(n)
        assert nilpotency_index(path_adjacency(n)) == (n if d == n else None)

    @given(sizes)
    @settings(max_examples=60)
    def test_rank_of_powers(self, n):
        d = nilpotent_size(n)
        a = path_adjacency(n)
        for t in sorted({d - 1, d, d + 1, n} & set(range(n + 1))):
            assert gf2_rank(mat_pow(a, t).rows) == n - min(t, d), t
