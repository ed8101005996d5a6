"""Slow, independent reference implementations used only by the tests.

Each function here recomputes something the library computes, by a route
the library does not share: bit-at-a-time matrix products, a GF(2) rank by
elimination, recursive walk listing, integer and mod-2 counting vectors
stepped once per unit of length, the method of images summed one class at
a time over the whole binomial row, the three-term recurrence of leading
minors and a symbolic cofactor determinant for the characteristic
polynomial, its text read one binary digit at a time, a certificate
replay that checks every visit offset of every length one at a time, the
naive-pivot search run on every walk with nothing settled, and the
midpoint reflection checked walk by walk, each image validated whole and
reflected a second time.
Agreement between the two routes is what the tests assert.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from functools import lru_cache
from math import comb, prod
from operator import add

from nilpath.gf2 import GF2Matrix
from nilpath.proofcheck import _escapes, naive_pivot
from nilpath.walks import _check_args, _walks, iter_walks_from, walk_is_valid


def naive_mat_mul(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Textbook triple loop over individual bits. Deliberately slow; n <= 64."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.n > 64:
        raise ValueError(f"naive multiplier is capped at n = 64, got {a.n}")
    n = a.n
    rows = []
    for i in range(1, n + 1):
        row = 0
        for j in range(1, n + 1):
            acc = 0
            for z in range(1, n + 1):
                acc ^= a.bit(i, z) & b.bit(z, j)
            row |= acc << (j - 1)
        rows.append(row)
    return GF2Matrix(n, tuple(rows))


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of the matrix whose rows are the bit masks ``rows``.

    Gaussian elimination that pivots on the highest set bit: each row is
    reduced by the kept rows until its top bit is new, then kept. Only the
    masks are read, so nothing of ``nilpath.gf2`` is used.
    """
    pivots: dict[int, int] = {}  # top bit -> the kept row with that top bit
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def brute_force_walks(n: int, x: int, y: int, k: int) -> list[tuple[int, ...]]:
    """Every length-k walk from x to y by unpruned recursion, sorted."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int]) -> None:
        if len(prefix) == k + 1:
            if prefix[-1] == y:
                out.append(tuple(prefix))
            return
        v = prefix[-1]
        for u in (v - 1, v + 1):
            if 1 <= u <= n:
                prefix.append(u)
                grow(prefix)
                prefix.pop()

    if 1 <= x <= n:
        grow([x])
    out.sort()
    return out


def stepping_count(n: int, x: int, y: int, k: int) -> int:
    """Exact length-k walk count from x to y, one step at a time.

    The counting vector over the integers: the count at a vertex is the sum
    of the counts at its neighbours a step earlier, with permanent zeros at
    positions 0 and n + 1, so the cost is k steps over n cells.
    """
    counts = [0] * (n + 2)
    counts[x] = 1
    for _ in range(k):
        counts = [0, *map(add, counts, counts[2:]), 0]
    return counts[y]


def _class_sum(k: int, r: int, s: int) -> int:
    """Sum of C(k, u) over 0 <= u <= k with u = r (mod s).

    Starts at the least such u; each step u -> u + s multiplies by the
    falling factorial (k - u)...(k - u - s + 1) and divides, exactly, by
    (u + 1)...(u + s).
    """
    u = r % s
    total = term = comb(k, u)
    while u + s <= k:
        term = term * prod(range(k - u - s + 1, k - u + 1)) // prod(
            range(u + 1, u + s + 1)
        )
        u += s
        total += term
    return total


def image_sum_count(n: int, x: int, y: int, k: int) -> int:
    """Exact length-k walk count from x to y by the method of images, one
    class at a time.

    Zero when k + y - x is odd, else the sum of C(k, u) over the whole row
    for u = (k + y - x)/2 (mod n + 1) less the sum for u = (k + y + x)/2,
    each class summed on its own with steps of n + 1 factors. The library
    folds the row in half and takes both classes in one pass.
    """
    if (k + y - x) % 2:
        return 0
    s = n + 1
    return _class_sum(k, (k + y - x) // 2, s) - _class_sum(k, (k + y + x) // 2, s)


def stepping_parity(n: int, x: int, y: int, k: int) -> int:
    """Parity of the length-k walk count from x to y, one step at a time.

    The counting recurrence carried mod 2: the whole counting vector is one
    bit mask and a step is two shifts and an XOR, so the cost is k steps.
    """
    mask = 1 << (x - 1)
    full = (1 << n) - 1
    for _ in range(k):
        mask = ((mask << 1) ^ (mask >> 1)) & full
    return mask >> (y - 1) & 1


def recurrence_charpoly_bits(n: int) -> int:
    """Characteristic polynomial of the n-path mod 2, one minor at a time.

    Runs the tridiagonal recurrence p_t = x * p_(t-1) + p_(t-2) from
    p_(-1) = 0 and p_0 = 1, on packed coefficient bits: times x is a left
    shift and the sum is an XOR. The leading principal minors of xI - A
    satisfy it, and signs vanish mod 2. The cost is n shifts of up to n
    bits, against one bit test per coefficient in the closed form.
    """
    prev, cur = 0, 1
    for _ in range(n):
        prev, cur = cur, (cur << 1) ^ prev
    return cur


def cofactor_charpoly_bits(n: int) -> int:
    """det(xI - A) for the n-path over the integers, reduced mod 2 at the end.

    Polynomials are coefficient tuples (low degree first). The determinant
    expands along rows, memoized on the set of still-available columns, so
    sign bookkeeping stays explicit and nothing is shared with the
    matching-polynomial closed form under test or with the recurrence
    above.
    """

    def padd(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        if len(p) < len(q):
            p, q = q, p
        return tuple(a + (q[i] if i < len(q) else 0) for i, a in enumerate(p))

    def pmul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * (len(p) + len(q) - 1) if p and q else [0]
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q):
                    out[i + j] += a * b
        return tuple(out)

    def entry(i: int, j: int) -> tuple[int, ...]:
        if i == j:
            return (0, 1)  # x
        if abs(i - j) == 1:
            return (-1,)
        return (0,)

    @lru_cache(maxsize=None)
    def det(cols: int) -> tuple[int, ...]:
        if cols == 0:
            return (1,)
        row = n - bin(cols).count("1")  # rows used in order
        acc: tuple[int, ...] = (0,)
        pos = 0
        for j in range(n):
            if not cols >> j & 1:
                continue
            e = entry(row, j)
            if e != (0,):
                term = pmul(e, det(cols & ~(1 << j)))
                if pos % 2:
                    term = tuple(-c for c in term)
                acc = padd(acc, term)
            pos += 1
        return acc

    coeffs = det((1 << n) - 1)
    bits = 0
    for d, c in enumerate(coeffs):
        if c % 2:
            bits |= 1 << d
    return bits


def digit_poly_text(bits: int) -> str:
    """The text of the GF(2) polynomial with coefficient bits ``bits``, one
    binary digit at a time: the same terms as ``str(GF2Poly(bits))``, which
    visits only the set bits."""
    if bits == 0:
        return "0"
    # one pass over the binary digits, highest degree first; a
    # power-of-two base is exempt from the int/str digit limit
    terms = []
    for d, digit in zip(range(bits.bit_length() - 1, -1, -1), format(bits, "b")):
        if digit == "1":
            if d == 0:
                terms.append("1")
            elif d == 1:
                terms.append("x")
            else:
                terms.append(f"x^{d}")
    return " + ".join(terms)


def per_offset_replay(
    m: int, k: int, x: int, y: int, memo: set | None = None
) -> dict[str, str]:
    """Replay the three-class evenness certificate one visit offset at a time.

    The reference for the class notes of ``proofcheck.theorem_check``: it
    runs the recursion on half-paths that those notes describe, with each
    length k its own memo key and every class-2 visit offset 0..k checked
    separately, so the cost grows with k * n.
    Returns the top-level justification strings by class and raises
    RuntimeError where the case analysis fails to cover. ``memo`` holds the
    certified (m, k, x, y) and may be shared across calls to save repeats.
    """
    memo = set() if memo is None else memo
    trace: dict[str, str] = {}

    def replay(m: int, k: int, x: int, y: int, trace: dict | None = None) -> None:
        key = (m, k, x, y)
        if trace is None and key in memo:
            return
        n = 2**m - 1
        if k < n:
            raise RuntimeError(f"recursion broke the length bound: k = {k} < n = {n}")
        if m == 1:
            memo.add(key)
            return
        p = 2 ** (m - 1)
        half_n = 2 ** (m - 1) - 1

        def h(v: int) -> int:
            return v if v < p else v - p

        def e(v: int) -> int:
            return h(p - 1 if v < p else p + 1)

        if x == p or y == p:
            c1_note = f"empty: an endpoint equals the midpoint {p}"
        elif (x < p) != (y < p):
            c1_note = f"empty: endpoints on opposite sides of the midpoint {p}"
        else:
            replay(m - 1, k, h(x), h(y))
            side = "left" if x < p else "right"
            c1_note = (
                f"confined to the {side} half, a path on {half_n} vertices; "
                f"recurse with the same k = {k}"
            )

        kinds: Counter[str] = Counter()
        for i in range(k + 1):
            if i == 0:
                if x != p or y == p:
                    kinds["structurally empty"] += 1
                else:
                    replay(m - 1, k - 1, e(y), h(y))
                    kinds["suffix recursion"] += 1
            elif i == k:
                if y != p or x == p:
                    kinds["structurally empty"] += 1
                else:
                    replay(m - 1, k - 1, h(x), e(x))
                    kinds["prefix recursion"] += 1
            elif x == p or y == p:
                kinds["structurally empty"] += 1
            elif i - 1 >= half_n:
                replay(m - 1, i - 1, h(x), e(x))
                kinds["prefix recursion"] += 1
            elif k - i - 1 >= half_n:
                replay(m - 1, k - i - 1, e(y), h(y))
                kinds["suffix recursion"] += 1
            else:
                raise RuntimeError(
                    f"neither factor of the step-{i} split reaches length "
                    f"{half_n}; that contradicts k >= {n}"
                )

        if trace is not None:
            trace["class1"] = c1_note
            summary = ", ".join(
                f"{kinds[kind]} {kind}"
                + ("s" if kinds[kind] != 1 and kind != "structurally empty" else "")
                for kind in ("prefix recursion", "suffix recursion", "structurally empty")
                if kinds[kind]
            )
            trace["class2"] = f"visit offsets 0..{k}: {summary}"
        memo.add(key)

    replay(m, k, x, y, trace)
    return trace


def naive_failure_scan(n: int, k: int) -> tuple[int, ...] | None:
    """The first length-k walk whose naive reflection escapes, by a full scan.

    The reference for ``proofcheck.find_naive_failure``: it runs
    ``naive_pivot`` on every listed walk in lexicographic order and settles
    nothing, so it shows that passing over the walks behind a settled
    pivot changes no answer.
    """
    _check_args(n, k)
    for start in range(1, n + 1):
        for vs in iter_walks_from(n, start, k):
            pivot = naive_pivot(vs)
            if pivot is None:
                continue
            first = vs.index(pivot)
            if _escapes(n, vs[first + 1 : vs.index(pivot, first + 1)], pivot):
                return vs
    return None


def involution_rows_by_walk(
    n: int, k: int, pivot: int, reflect: Callable[[int, tuple[int, ...], int], tuple[int, ...]]
) -> tuple[int, int, int, int, int]:
    """The five row values of ``involution-test``, one walk at a time.

    The reference for the per-start tables of ``cli._cmd_involution_test``:
    each class-3 walk of length <= k is reflected by ``reflect``, and its
    image is validated whole and reflected again, with nothing looked up.
    Returns the walks tested and the images that are no walk, change the
    start, end, length or class, are fixed points, or do not reflect back,
    in report order. Raises as ``reflect`` does on an image it cannot take.
    """
    tested = 0
    bad_walk = bad_fixed = bad_preserve = bad_double = 0
    for start in range(1, n + 1):
        for vs in _walks(n, start, k):
            if vs.count(pivot) < 2:
                continue
            tested += 1
            image = reflect(n, vs, pivot)
            if image == vs:
                bad_fixed += 1
            if not walk_is_valid(n, image):
                bad_walk += 1
                continue
            if not (
                image[0] == vs[0]
                and image[-1] == vs[-1]
                and len(image) == len(vs)
                and image.count(pivot) >= 2
            ):
                bad_preserve += 1
            if reflect(n, image, pivot) != vs:
                bad_double += 1
    return tested, bad_walk, bad_preserve, bad_fixed, bad_double
