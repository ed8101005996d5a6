"""Path graphs and their walks: construction, validity, counting, enumeration.

The path graph on n vertices has vertex set 1..n and an edge between each
pair of consecutive integers. Walk counts between two vertices are computed
three independent ways across this package: the method of images on the
mirrored 2(n + 1)-cycle (exact, one pass up half a binomial row), Frobenius
doubling of rule 90 on the same cycle (mod 2, one rotation pair per set
bit of k), and powers of the adjacency matrix. Brute-force enumeration
backs them all at small sizes.

This module is the only place that walks a path, counts on it and checks
walk arguments. ``_walks`` is the single depth-first search, and it has
one mode: it yields every node of its search tree as a plain vertex
tuple, so one pass from a start vertex lists the walks of every length up
to k, and every walk listing, with or without a fixed end vertex, picks
its nodes from it. A walk is such a tuple in every module of the
package: the public listings return the tuples as the search yields
them, and ``walk_is_valid`` checks any vertex sequence against a path.
``_integer_powers`` yields the integer adjacency powers one product
apart, for the reference route of ``verify-lemma`` and for
``integer_adjacency_power``. ``_count_vectors`` is the single counting
step, behind the exact three-class census, which passes the vertex its
walks must avoid, the class-2 count from side segments, and
``_walks_listed``, the command line's estimate of how many walks an
enumeration lists, which sits beside ``_walks`` and counts the nodes it
yields.
``_family_parity`` is the image sum read mod 2 in closed form on paths of
2^q - 1 vertices, behind the class parities of ``theorem_check``.
``_check_args`` validates the walk arguments of the functions in both
modules; it checks validity only, and sizes are limited by the command
line alone.
"""

from __future__ import annotations

from math import comb, perm
from operator import add, sub
from typing import Iterator, Sequence

from .gf2 import GF2Matrix

__all__ = [
    "path_adjacency",
    "walk_is_valid",
    "iter_walks_from",
    "enumerate_walks",
    "count_walks_exact",
    "count_walks_parity",
    "integer_adjacency_power",
]


def _check_args(n: int, k: int = 0, **vertices: int) -> None:
    """The one argument validator: n >= 1, each named vertex in 1..n, k >= 0."""
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    for name, v in vertices.items():
        if not 1 <= v <= n:
            raise ValueError(f"{name} = {v} is outside 1..{n}")
    if k < 0:
        raise ValueError(f"walk length must be non-negative, got {k}")


def path_adjacency(n: int) -> GF2Matrix:
    """Adjacency matrix of the n-vertex path: bit (i, j) = 1 iff |i - j| = 1."""
    _check_args(n)
    rows = []
    for i in range(n):
        row = 0
        if i > 0:
            row |= 1 << (i - 1)
        if i + 1 < n:
            row |= 1 << (i + 1)
        rows.append(row)
    return GF2Matrix(n, tuple(rows))


def walk_is_valid(n: int, vs: Sequence[int]) -> bool:
    """True iff vs is non-empty, all its vertices lie in 1..n and every step
    moves by exactly 1."""
    # min, max, map and the set comparison all run in C
    return bool(vs) and 1 <= min(vs) and max(vs) <= n and {*map(sub, vs[1:], vs)} <= {1, -1}


def _walks(n: int, x: int, k: int) -> Iterator[tuple[int, ...]]:
    """The one DFS: every walk from x of length at most k, as a vertex tuple.

    The nodes of the search tree are the walks themselves, each prefix
    before its extensions, so the order is lexicographic. The caller picks
    the nodes it needs, such as the length-k ones or those ending at a
    given vertex, and arguments are not checked.

    The stack holds the tuples themselves, and a child is its parent plus
    one vertex, bounded by 1 and n where it is formed, so nothing is
    built per call and the first node costs O(1) whatever n is. One test
    on the steps a child would have left, ``room``, decides a node's
    children: with room to spare they are pushed, with none they are
    leaves, yielded at once and never pushed, and below that (only the
    start, when k = 0) there are none.
    """
    stack = [(x,)]
    while stack:
        w = stack.pop()
        yield w
        room = k - len(w)  # steps left after a child's step
        v = w[-1]
        if room > 0:
            # pushed in reverse, so the lower child comes off first
            if v < n:
                stack.append(w + (v + 1,))
            if v > 1:
                stack.append(w + (v - 1,))
        elif room == 0:
            if v > 1:
                yield w + (v - 1,)
            if v < n:
                yield w + (v + 1,)


def _walks_listed(n: int, k: int) -> int:
    """The number of nodes ``_walks`` yields over every start vertex: the
    walks of length at most k from any vertex, the sum of 1^T A^t 1 over
    t = 0..k. The command line bounds an enumeration by it before the
    search starts."""
    return sum(sum(counts) for counts in _count_vectors(n, None, k))


def iter_walks_from(n: int, x: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every length-k walk starting at x, in lexicographic order.

    Arguments are checked at the call, before the first walk is asked for.
    """
    _check_args(n, k, x=x)
    return (vs for vs in _walks(n, x, k) if len(vs) > k)


def enumerate_walks(n: int, x: int, y: int, k: int) -> list[tuple[int, ...]]:
    """All length-k walks from x to y, in lexicographic order of vertex tuples.

    The one DFS lists every walk from x of length at most k and this keeps
    those of length k that end at y, so the cost follows every walk from x,
    not only the output: up to 2^(k+1) nodes, even when no walk reaches y.
    No length is refused: a path of one or two vertices has at most one
    walk per length.
    """
    _check_args(n, k, x=x, y=y)
    return [vs for vs in _walks(n, x, k) if len(vs) > k and vs[-1] == y]


def _count_vectors(
    n: int, x: int | None, k: int, avoid: int = 0
) -> Iterator[list[int]]:
    """The one counting step: yield the counting vectors of steps 0..k.

    Entry v of the vector after t steps is the number of length-t walks
    from x to v that never touch ``avoid``; with x = None the walks may
    start at any vertex. Positions 0 and n + 1 are permanent-zero
    sentinels, so the default avoid = 0 changes nothing.
    """
    counts = [0] + [int(x is None)] * n + [0]
    if x is not None:
        counts[x] = 1
    counts[avoid] = 0
    yield counts
    for _ in range(k):
        # the count at v sums the counts at v - 1 and v + 1 a step earlier
        counts = [0, *map(add, counts, counts[2:]), 0]
        counts[avoid] = 0
        yield counts


def _family_parity(q: int, a: int, b: int, t: int) -> int:
    """Parity of the length-t walk count from a to b on the 2^q - 1 path.

    The method of images of ``count_walks_exact`` with n + 1 = 2^q, read
    mod 2 by Lucas' theorem: C(t, u) is odd exactly when u is a bitwise
    submask of t. For t < 2^q the only u <= t in the class of a residue r
    mod 2^q is r itself, so the count is [alpha within t] XOR
    [beta within t] with alpha = (t + b - a)/2 and beta = (t + b + a)/2
    reduced mod 2^q. For t >= 2^q the submasks of t in any class come in
    2^popcount(t >> q) copies, an even number. A handful of bit
    operations, whatever t is. Arguments are not checked.
    """
    if t >> q or (t + b - a) % 2:
        return 0
    low = (1 << q) - 1
    alpha = (t + b - a) // 2 & low
    beta = (t + b + a) // 2 & low
    return int((alpha & ~t == 0) != (beta & ~t == 0))


def count_walks_exact(n: int, x: int, y: int, k: int) -> int:
    """Exact number of length-k walks from x to y, as a Python int.

    The method of images: a walk on the path is a walk on the integers
    that never touches the walls 0 and n + 1, and reflecting in the walls
    repeats every target at period 2(n + 1). A length-k walk with u up
    steps moves by 2u - k, so the count is zero when k + y - x is odd, and
    otherwise the sum of C(k, u) over u = (k + y - x)/2 (mod n + 1) less
    the sum over u = (k + y + x)/2 (mod n + 1), which by
    C(k, u) = C(k, k - u) is the sum over the images of -y. A length-0
    walk exists exactly when x = y.

    Cost: for k <= n each class is the single term C(k, u). Otherwise the
    lower half of row k holds up to four visited residues per n + 1
    entries, so about 2k/(n + 1) terms, each one multiply and one exact
    division of a k-bit integer by a product of about (n + 1)/4 factors.
    Stepping a counting vector costs k steps over n cells instead, which
    is cheaper only for tiny n and huge k, where the divisions dominate:
    at k = 30000 it wins below n = 8 and breaks even at n = 8.
    """
    _check_args(n, k, x=x, y=y)
    return _count_exact(n, x, y, k)


def _count_exact(n: int, x: int, y: int, k: int) -> int:
    """The image sum of ``count_walks_exact``, in one pass up half a row.

    Zero for the wrong parity. Otherwise C(k, u) counts +1 for u in the
    class a = (k + y - x)/2 and -1 for u in the class b = (k + y + x)/2,
    mod n + 1; for k < n + 1 each class is the single term C(k, u). Else
    C(k, u) = C(k, k - u) folds the terms above k/2 onto the classes k - a
    and k - b below it, with the same signs, so ``weight`` holds the net
    count of each residue, -2 to 2, and the pass visits the u <= k/2 whose
    residue has a nonzero one. Each visited term is the one before it,
    from C(k, 0) = 1, times the ratio of two falling factorials of the
    gap. The central term of an even row is its own mirror, counted twice,
    so one count comes off at the end. Arguments are not checked;
    ``verify-lemma`` calls it for every (x, y, k) of its table, in range by
    construction.
    """
    if (k + y - x) % 2:
        return 0
    s = n + 1
    a = (k + y - x) // 2 % s
    b = (k + y + x) // 2 % s
    if k < s:
        return comb(k, a) - comb(k, b)
    weight = [0] * s
    weight[a] = 1
    weight[b] = -1
    weight[(k - a) % s] += 1
    weight[(k - b) % s] -= 1
    half = k // 2
    u = total = 0
    term = 1  # C(k, 0)
    for v in range(half + 1):
        w = weight[v % s]
        if w:
            term = term * perm(k - u, v - u) // perm(v, v - u)
            total += w * term
            u = v
    if k % 2 == 0:
        total -= weight[half % s] // 2 * term  # nonzero only if u = k/2
    return total


def _parity_vector(n: int, x: int, k: int) -> int:
    """A^k e_x over GF(2) as a bit mask: bit v - 1 is the parity for vertex v.

    The path embeds in the cycle on N = 2(n + 1) cells as the mirror-image
    state with cells v and N - v set for vertex v, so cells 0 and n + 1
    stay zero and one step of the cycle, S + S^-1 with S the rotation by
    one cell, is one step of the path. Over GF(2),
    (S + S^-1)^(2^j) = S^(2^j) + S^-(2^j), so the factor for bit j of k
    rotates by 2^j mod N both ways and XORs, and the loop runs over the
    bits of k, not over k. A rotation by 0 (N divides 2^j, which happens
    exactly when n + 1 is a power of two) zeroes the state.
    """
    size = 2 * (n + 1)
    full = (1 << size) - 1
    state = (1 << x) | (1 << (size - x))
    r = 1
    while k and state:
        if k & 1:
            state = (
                (state << r | state >> (size - r)) ^ (state >> r | state << (size - r))
            ) & full
        k >>= 1
        r = 2 * r % size
    return state >> 1 & ((1 << n) - 1)


def count_walks_parity(n: int, x: int, y: int, k: int) -> int:
    """Parity (0 or 1) of the number of length-k walks from x to y.

    Bit y - 1 of ``_parity_vector(n, x, k)``: popcount(k) rotation pairs
    of a 2(n + 1)-bit integer, so k may be astronomically large. Equals
    bit (x, y) of the k-th adjacency-matrix power.
    """
    _check_args(n, k, x=x, y=y)
    return _parity_vector(n, x, k) >> (y - 1) & 1


def integer_adjacency_power(n: int, k: int) -> list[list[int]]:
    """k-th power of the 0/1 path adjacency matrix over the integers.

    Deliberately plain repeated multiplication; this is the slow reference
    route that the fast counters are checked against, entry by entry
    (entry (x-1, y-1) is the exact number of length-k walks from x to y).
    """
    _check_args(n, k)
    for power in _integer_powers(n, k):
        pass
    return power


def _integer_powers(n: int, k: int) -> Iterator[list[list[int]]]:
    """Yield the integer adjacency powers A^0, A^1, ..., A^k in turn.

    Each is the one before times A, so listing every power up to k takes k
    products. Arguments are not checked.
    """
    adj = [[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    yield power
    for _ in range(k):
        power = _times_adjacency(power, adj)
        yield power


def _times_adjacency(power: list[list[int]], adj: list[list[int]]) -> list[list[int]]:
    """The product power * adj of two square integer matrices, entry by entry."""
    n = len(adj)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        row = power[i]
        target = out[i]
        for z in range(n):
            c = row[z]
            if c:
                arow = adj[z]
                for j in range(n):
                    if arow[j]:
                        target[j] += c
    return out
