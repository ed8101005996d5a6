import inspect
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nilpath.charpoly
import nilpath.gf2
import nilpath.walks
from nilpath.charpoly import (
    GF2Poly,
    charpoly_is_monomial,
    charpoly_path,
)
from nilpath.gf2 import nilpotency_index
from nilpath.walks import path_adjacency

from oracles import cofactor_charpoly_bits, digit_poly_text, recurrence_charpoly_bits


class TestGF2Poly:
    def test_degree(self):
        assert GF2Poly(0).degree == -1
        assert GF2Poly(1).degree == 0
        assert GF2Poly(0b1011).degree == 3

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError, match=r"^coefficient bits must be non-negative$"):
            GF2Poly(-1)

    def test_string_form(self):
        assert str(GF2Poly(0)) == "0"
        assert str(GF2Poly(1)) == "1"
        assert str(GF2Poly(0b10)) == "x"
        assert str(GF2Poly(0b111)) == "x^2 + x + 1"
        assert str(GF2Poly(0b1000001)) == "x^6 + 1"
        assert str(GF2Poly(1 << 2**24 | 1)) == "x^16777216 + 1"

    def test_string_form_matches_the_digit_scan(self):
        for bits in range(2**12):
            assert str(GF2Poly(bits)) == digit_poly_text(bits), bits

    # a few terms anywhere below x^(2^20); the scan visits all 2^20 digits
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40))
    @settings(max_examples=20)
    @example(0, 0)
    def test_sparse_string_form_matches_the_digit_scan(self, seed, terms):
        rng = random.Random(seed)
        bits = sum(1 << d for d in rng.sample(range(2**20), terms))
        assert str(GF2Poly(bits)) == digit_poly_text(bits)


class TestCharpolyPath:
    def test_small_cases(self):
        assert charpoly_path(0) == GF2Poly(1)
        assert charpoly_path(1) == GF2Poly(1 << 1)
        assert charpoly_path(2).bits == 0b101  # x^2 + 1
        assert charpoly_path(3) == GF2Poly(1 << 3)
        assert charpoly_path(7) == GF2Poly(1 << 7)

    def test_matches_cofactor_determinant(self):
        for n in range(0, 11):
            assert charpoly_path(n).bits == cofactor_charpoly_bits(n)

    def test_matches_the_recurrence(self):
        for n in [*range(2000), 4095, 4096, 16382]:
            assert charpoly_path(n).bits == recurrence_charpoly_bits(n), n

    def test_shares_nothing_with_the_matrix_and_walk_routes(self, refuse):
        for module in (nilpath.gf2, nilpath.walks):
            for value in vars(nilpath.charpoly).values():
                assert value is not module
                assert getattr(value, "__module__", None) != module.__name__, value
            refuse(*[
                value for value in vars(module).values()
                if inspect.isfunction(value) and value.__module__ == module.__name__
            ])
        for n in range(301):
            assert charpoly_path(n).bits == recurrence_charpoly_bits(n)
            assert charpoly_is_monomial(n) == ((n + 1) & n == 0)

    def test_degree_and_leading_coefficient(self):
        for n in range(0, 65):
            p = charpoly_path(n)
            assert p.degree == n
            assert p.bits >> n & 1 == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            charpoly_path(-1)


class TestCharpolyIsMonomial:
    def test_known_monomial_sizes(self):
        for n in (1, 3, 7, 15):
            assert charpoly_is_monomial(n)

    def test_known_non_monomial_sizes(self):
        for n in (2, 4, 5, 6, 8, 9):
            assert not charpoly_is_monomial(n)

    def test_family_up_to_two_to_the_twenty(self):
        # sizes the recurrence, at O(n^2) bit work, cannot reach here
        for m in range(1, 21):
            assert charpoly_is_monomial(2**m - 1), m
            assert not charpoly_is_monomial(2**m), m

    def test_matches_nilpotency_up_to_forty(self):
        for n in range(1, 41):
            present = nilpotency_index(path_adjacency(n)) is not None
            assert charpoly_is_monomial(n) == present
