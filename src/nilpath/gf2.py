"""Dense GF(2) matrix arithmetic on bit-packed rows.

A matrix row is a single Python integer used as a bit vector, least
significant bit first: bit ``j - 1`` of ``rows[i - 1]`` holds the entry in
row ``i``, column ``j``. Public interfaces are 1-based; storage is 0-based.
A product is a row broadcast: result row ``i`` is the XOR of the rows of
the right factor selected by the set bits of row ``i`` of the left. The
row of the highest bit is taken as is and the rest are peeled highest
first, one whole-row XOR each, so the cost follows the left factor's set
bits. Powers keep the sparse factor on the left: every power A^(2^j) of the
path adjacency matrix has at most two bits per row, as
(x + x^-1)^(2^j) = x^(2^j) + x^-(2^j) over GF(2) (Martin, Odlyzko &
Wolfram, CMP 1984). A power step that needs both ``base * result`` and
``base * base`` peels the rows of ``base`` once for the two (``_mul_pair``).
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

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

class _GF2MatrixFields(NamedTuple):
    n: int
    rows: tuple[int, ...]


class GF2Matrix(_GF2MatrixFields):
    """Immutable square bit matrix over Z/2Z.

    Attributes:
        n: Dimension, at least 1.
        rows: n integers; bit j of rows[i] is the entry at 0-based (i, j).
            Bits at positions >= n are never set.

    A named tuple: the constructor checks the dimension and every row.
    """

    __slots__ = ()

    def __new__(cls, n: int, rows: Iterable[int]) -> GF2Matrix:
        rows = tuple(rows)
        if n < 1:
            raise ValueError(f"matrix dimension must be at least 1, got {n}")
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        limit = 1 << n
        for i, row in enumerate(rows):
            if not 0 <= row < limit:
                raise ValueError(f"row {i + 1} has bits outside columns 1..{n}")
        return tuple.__new__(cls, (n, rows))

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
    return GF2Matrix(n, rows)


def mat_mul(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Product over Z/2Z: entry (i, j) is the XOR over z of a(i,z) AND b(z,j).

    Row i of ``a`` selects rows of ``b``: the one at its highest bit is
    taken as is, the rest are peeled highest first and XORed in. Put the
    sparser factor on the left.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    brows = b.rows
    out = []
    for row in a.rows:
        if not row:
            out.append(0)
            continue
        top = row.bit_length() - 1
        acc = brows[top]
        row ^= 1 << top
        while row:
            top = row.bit_length() - 1
            acc ^= brows[top]
            row ^= 1 << top
        out.append(acc)
    return _product(a.n, out)


def _mul_pair(a: GF2Matrix, b: GF2Matrix, c: GF2Matrix) -> tuple[GF2Matrix, GF2Matrix]:
    """``(mat_mul(a, b), mat_mul(a, c))``, peeling each row of ``a`` once
    for both; the first rows it selects are taken as is. All three share
    one dimension."""
    brows, crows = b.rows, c.rows
    out_b, out_c = [], []
    for row in a.rows:
        if not row:
            out_b.append(0)
            out_c.append(0)
            continue
        top = row.bit_length() - 1
        acc_b, acc_c = brows[top], crows[top]
        row ^= 1 << top
        while row:
            top = row.bit_length() - 1
            acc_b ^= brows[top]
            acc_c ^= crows[top]
            row ^= 1 << top
        out_b.append(acc_b)
        out_c.append(acc_c)
    return _product(a.n, out_b), _product(a.n, out_c)


def _product(n: int, rows: list[int]) -> GF2Matrix:
    # XORs of in-range rows are in range: skip GF2Matrix.__new__ and its row scan
    return tuple.__new__(GF2Matrix, (n, tuple(rows)))


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
