"""Characteristic polynomials of path adjacency matrices over GF(2).

Polynomials over GF(2) pack into a single int, one bit per coefficient,
mirroring the row packing in :mod:`nilpath.gf2`. The path is a tree, so
the characteristic polynomial of its adjacency matrix is its matching
polynomial, sum_j (-1)^j C(n - j, j) x^(n - 2j): the n-path has
C(n - j, j) matchings of j edges. Mod 2 each coefficient is one bit,
which Kummer's theorem reads off the binary digits. A matrix over a field
is nilpotent exactly when its characteristic polynomial is the bare power
x^n, so checking that every coefficient below the top vanishes gives a
second, independent route to the nilpotency results of :mod:`nilpath.gf2`.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "GF2Poly",
    "charpoly_path",
    "charpoly_is_monomial",
]


class _GF2PolyFields(NamedTuple):
    bits: int


class GF2Poly(_GF2PolyFields):
    """Polynomial over GF(2); bit i of ``bits`` is the coefficient of x^i.

    A named tuple: the constructor refuses negative ``bits``.
    """

    __slots__ = ()

    def __new__(cls, bits: int) -> GF2Poly:
        if bits < 0:
            raise ValueError("coefficient bits must be non-negative")
        return tuple.__new__(cls, (bits,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    def __str__(self) -> str:
        if self.bits == 0:
            return "0"
        # peel the set bits highest first: the cost follows the terms, not the degree
        terms, bits = [], self.bits
        while bits:
            d = bits.bit_length() - 1
            bits ^= 1 << d
            terms.append(f"x^{d}" if d > 1 else "x" if d else "1")
        return " + ".join(terms)


def charpoly_path(n: int) -> GF2Poly:
    """Characteristic polynomial of the n-path adjacency matrix, mod 2.

    The matching polynomial of the path, with signs dropped mod 2. n = 0
    gives the empty matrix's polynomial, the constant 1.
    """
    if n < 0:
        raise ValueError(f"matrix size must be non-negative, got {n}")
    # Kummer: C(n - j, j) is odd exactly when adding j to n - 2j carries
    # nowhere, that is when j & (n - 2j) == 0
    return GF2Poly(sum(1 << n - 2 * j for j in range(n // 2 + 1) if not j & n - 2 * j))


def charpoly_is_monomial(n: int) -> bool:
    """Whether the n-path's characteristic polynomial mod 2 is exactly x^n."""
    return charpoly_path(n).bits == 1 << n
