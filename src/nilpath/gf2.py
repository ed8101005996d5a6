"""Dense GF(2) matrix arithmetic on bit-packed rows.

A matrix row is a single Python integer used as a bit vector, least
significant bit first: bit ``j - 1`` of ``rows[i - 1]`` holds the entry in
row ``i``, column ``j``. Public interfaces are 1-based; storage is 0-based.
Python integers are packed into machine words by the interpreter, so XOR on
a row is a word-wise operation over the whole row. Multiplication uses a
row broadcast: for each set bit ``z`` in row ``i`` of the left factor, row
``z`` of the right factor is XORed into result row ``i``.

The cost of a product therefore follows the set bits of its left factor:
each left row has its bits peeled off one at a time, highest first. Powers
keep the sparse factor on the left: every power A^(2^j) of the path
adjacency matrix has at most two bits per row, because
(x + x^-1)^(2^j) = x^(2^j) + x^-(2^j) over GF(2) (Martin, Odlyzko &
Wolfram, CMP 1984). A power step that needs both ``base * result`` and
``base * base`` peels the rows of ``base`` once for the two (``_mul_pair``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "GF2Matrix",
    "identity",
    "zero",
    "mat_from_entries",
    "mat_mul",
    "mat_pow",
    "mat_is_zero",
    "nilpotency_index",
]

@dataclass(frozen=True)
class GF2Matrix:
    """Immutable square bit matrix over Z/2Z.

    Attributes:
        n: Dimension, at least 1.
        rows: n integers; bit j of rows[i] is the entry at 0-based (i, j).
            Bits at positions >= n are never set.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"matrix dimension must be at least 1, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError(
                f"expected {self.n} rows, got {len(self.rows)}"
            )
        limit = 1 << self.n
        for i, row in enumerate(self.rows):
            if not 0 <= row < limit:
                raise ValueError(
                    f"row {i + 1} has bits outside columns 1..{self.n}"
                )

    def bit(self, i: int, j: int) -> int:
        """Entry in row ``i``, column ``j``, both 1-based."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"({i}, {j}) outside 1..{self.n}")
        return self.rows[i - 1] >> (j - 1) & 1

    def to_lists(self) -> list[list[int]]:
        """Rows as lists of 0/1 ints, row-major."""
        return [[row >> j & 1 for j in range(self.n)] for row in self.rows]


def identity(n: int) -> GF2Matrix:
    """The n-by-n identity matrix."""
    return GF2Matrix(n, tuple(1 << i for i in range(n)))


def zero(n: int) -> GF2Matrix:
    """The n-by-n all-zero matrix."""
    return GF2Matrix(n, (0,) * n)


def mat_from_entries(n: int, entries: Callable[[int, int], int]) -> GF2Matrix:
    """Build a matrix from a 1-based entry predicate.

    ``entries(i, j)`` is evaluated for every pair 1 <= i, j <= n and any
    truthy value sets the bit. ``GF2Matrix`` refuses n < 1.
    """
    rows = []
    for i in range(1, n + 1):
        row = 0
        for j in range(1, n + 1):
            if entries(i, j):
                row |= 1 << (j - 1)
        rows.append(row)
    return GF2Matrix(n, tuple(rows))


def mat_mul(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Product over Z/2Z: entry (i, j) is the XOR over z of a(i,z) AND b(z,j).

    Row broadcast: result row i is the XOR of the rows of ``b`` selected by
    the set bits of row i of ``a``. Each row of ``a`` has its bits peeled
    highest first with ``bit_length``, so the cost is one row XOR and a few
    whole-row operations per set bit of ``a``. Put the sparser factor on
    the left.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    brows = b.rows
    out = []
    for row in a.rows:
        acc = 0
        while row:
            top = row.bit_length() - 1
            acc ^= brows[top]
            row ^= 1 << top
        out.append(acc)
    return _product(a.n, out)


def _mul_pair(a: GF2Matrix, b: GF2Matrix, c: GF2Matrix) -> tuple[GF2Matrix, GF2Matrix]:
    """``(mat_mul(a, b), mat_mul(a, c))``, peeling each row of ``a`` once
    for both products. The three matrices must share one dimension."""
    brows, crows = b.rows, c.rows
    out_b, out_c = [], []
    for row in a.rows:
        acc_b = acc_c = 0
        while row:
            top = row.bit_length() - 1
            acc_b ^= brows[top]
            acc_c ^= crows[top]
            row ^= 1 << top
        out_b.append(acc_b)
        out_c.append(acc_c)
    return _product(a.n, out_b), _product(a.n, out_c)


def _product(n: int, rows: list[int]) -> GF2Matrix:
    # XORs of in-range rows are in range: no row scan
    product = object.__new__(GF2Matrix)
    product.__dict__.update(n=n, rows=tuple(rows))
    return product


def mat_pow(a: GF2Matrix, k: int) -> GF2Matrix:
    """k-th power by square-and-multiply; k = 0 gives the identity.

    Each partial product is formed as ``mat_mul(base, result)``, with the
    repeated square ``base = a^(2^j)`` as the left factor. Powers of one
    matrix commute, so the order does not change the result; it puts the
    factor that stays sparse for the path matrix where ``mat_mul`` pays
    per set bit. A step that needs both products forms them in one pass.
    """
    if k < 0:
        raise ValueError(f"exponent must be non-negative, got {k}")
    result: GF2Matrix | None = None
    base = a
    while k:
        bit, k = k & 1, k >> 1
        if bit and result is not None and k:
            result, base = _mul_pair(base, result, base)
            continue
        if bit:
            result = base if result is None else mat_mul(base, result)
        if k:
            base = mat_mul(base, base)
    return identity(a.n) if result is None else result


def mat_is_zero(a: GF2Matrix) -> bool:
    """True iff every entry is 0."""
    return not any(a.rows)


def nilpotency_index(a: GF2Matrix) -> int | None:
    """Smallest k >= 1 with a^k = 0, or None when no power vanishes.

    An n-by-n matrix is nilpotent iff its n-th power vanishes (standard
    linear algebra, used here as an external fact), so a^n decides
    existence. One power chain serves both of the first probes: a^(n-1)
    is computed once, and a^n is the single product ``a * a^(n-1)``, with
    ``a`` on the left. If a^n vanishes but a^(n-1) does not, the index is
    n; for the matrix family this package targets that settles it without
    a search. Otherwise the index is found by bisection, since a^k = 0 is
    monotone in k.
    """
    n = a.n
    below = mat_pow(a, n - 1)
    if not mat_is_zero(mat_mul(a, below)):
        return None
    if not mat_is_zero(below):
        return n
    lo, hi = 1, n - 1  # a^hi = 0 known
    while lo < hi:
        mid = (lo + hi) // 2
        if mat_is_zero(mat_pow(a, mid)):
            hi = mid
        else:
            lo = mid + 1
    return lo
