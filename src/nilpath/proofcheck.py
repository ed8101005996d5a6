"""Executable three-class evenness argument for path-graph walk counts.

For n = 2^m - 1 and any k >= n, the number of length-k walks between two
vertices of the n-path is even. The argument partitions walks by how often
they visit the midpoint 2^(m-1): never (class 1), exactly once (class 2),
or at least twice (class 3). Class 1 lives inside one half-path, class 2
factors into two half-path subwalks around the single visit, and class 3
is paired off by reflecting the segment between the first two visits. This
module makes every step of that argument runnable and checkable: the
classifier, the class-2 splitter, the class-3 reflection, an exact census
of the three classes for any pivot, their parities at the midpoint in
closed form, the case notes of the recursive certificate, and the tempting
but broken variant of the reflection that picks its pivot by divisibility.

A walk is a non-empty tuple of 1-based vertices, as the search in
``walks`` yields it, and its class is the plain number 1, 2 or 3. A
class-2 walk splits into two vertex tuples, the parts before and after
its pivot visit, either of which may be empty. The checking shells
(``classify``, ``class2_decompose``, ``reflect_class3`` and
``naive_reflect``) take any vertex sequence, turn it into a tuple and
validate it once, and the ones that build walks return tuples.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .report import Detail, ParityReport
from .walks import (
    _check_args,
    _count_vectors,
    _family_parity,
    count_walks_parity,
    iter_walks_from,
    walk_is_valid,
)

__all__ = [
    "ClassCensus",
    "ReflectionOutOfBounds",
    "classify",
    "class2_decompose",
    "reflect_class3",
    "class_census",
    "class2_by_sides",
    "theorem_check",
    "naive_pivot",
    "naive_reflect",
    "find_naive_failure",
]


class ReflectionOutOfBounds(Exception):
    """A reflected vertex left the range 1..n."""


@dataclass(frozen=True)
class ClassCensus:
    """Exact sizes of the three classes for fixed endpoints and length.

    ``per_step_c2[i]`` counts the class-2 walks whose single pivot visit
    happens after exactly i steps; the entries sum to c2.
    """

    c1: int
    c2: int
    c3: int
    per_step_c2: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.c1 + self.c2 + self.c3


def _require_valid(n: int, vs: Sequence[int]) -> tuple[int, ...]:
    """The walk as a tuple, once it is known to be a walk in the n-path."""
    vs = tuple(vs)
    if not walk_is_valid(n, vs):
        raise ValueError(f"walk {vs} is not a valid walk in the {n}-path")
    return vs


def classify(n: int, vs: Sequence[int], pivot: int) -> int:
    """Class of a walk at pivot: 1, 2 or 3 for 0, 1 or >= 2 pivot visits.

    Raises ValueError when vs is not a walk in the n-path or the pivot is
    not a vertex of it.
    """
    visits = _require_valid(n, vs).count(pivot)
    _check_args(n, pivot=pivot)
    return min(visits, 2) + 1


def class2_decompose(n: int, vs: Sequence[int], pivot: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cut a class-2 walk at its unique pivot visit into (left, right).

    ``left`` is the vertex tuple before the visit and ``right`` the one
    after; either is empty when the visit ends the walk on that side, and
    ``len(left)`` is the step of the visit. Both stay strictly on one side
    of the pivot, and ``left + (pivot,) + right`` is the walk.
    """
    vs = tuple(vs)
    if classify(n, vs, pivot) != 2:
        raise ValueError(
            f"walk {vs} visits pivot {pivot} {vs.count(pivot)} times, not once"
        )
    i = vs.index(pivot)
    return vs[:i], vs[i + 1 :]


def reflect_class3(n: int, vs: Sequence[int], pivot: int) -> tuple[int, ...]:
    """Mirror the segment between the first two pivot visits of a class-3 walk.

    Vertices strictly between the visits map to ``2 * pivot - v``, turning
    every step away from the pivot into a step toward it and vice versa.
    The result keeps the start, end, length, and class of the input, is
    never equal to it, and applying the map twice restores the input.
    Raises ReflectionOutOfBounds when a mirrored vertex would leave 1..n:
    impossible for the exact midpoint pivot of an odd path, but easy to
    trigger for off-center pivots. This shell takes any vertex sequence,
    validates it and its class, then calls the unchecked core ``_reflect``
    on its tuple, which serves walks that the DFS produced.
    """
    vs = tuple(vs)
    if classify(n, vs, pivot) != 3:
        raise ValueError(
            f"walk {vs} visits pivot {pivot} {vs.count(pivot)} times, "
            "need at least two"
        )
    return _reflect(n, vs, pivot)


def _reflect(n: int, vs: tuple[int, ...], pivot: int) -> tuple[int, ...]:
    """``reflect_class3`` without its checks, on a vertex tuple.

    vs must visit pivot at least twice. On an escape, the message names the
    first vertex of the segment whose mirror leaves 1..n.
    """
    first = vs.index(pivot) + 1
    second = vs.index(pivot, first)
    segment = vs[first:second]
    twice = 2 * pivot
    # the rule of _escapes, inline
    if twice - max(segment) < 1 or twice - min(segment) > n:
        v = next(v for v in segment if not 1 <= twice - v <= n)
        raise ReflectionOutOfBounds(f"vertex {v} reflects to {twice - v}, outside 1..{n}")
    return (*vs[:first], *map(twice.__sub__, segment), *vs[second:])


def _escapes(n: int, segment: tuple[int, ...], pivot: int) -> bool:
    """True iff mirroring the segment in pivot takes a vertex out of 1..n.

    The segment lies between two visits of pivot, so a walk never leaves it
    empty, and its mirror spans 2 * pivot - max to 2 * pivot - min of it:
    the bounds decide, and no mirrored vertex is formed.
    """
    return 2 * pivot - max(segment) < 1 or 2 * pivot - min(segment) > n


def class_census(n: int, pivot: int, x: int, y: int, k: int) -> ClassCensus:
    """Exact three-class counts for walks of length k from x to y.

    Every count splits a walk at its first pivot visit. c1 comes from a
    pivot-avoiding count; per_step_c2[i] is the product of a clean prefix
    count (first pivot contact exactly at step i) and a clean suffix
    count; c3 sums the same prefix counts times the suffixes that return
    to the pivot, which are all pivot-to-y walks less the clean ones.
    Nothing is derived from the total, so c1 + c2 + c3 can be checked
    against ``count_walks_exact``.
    """
    _check_args(n, k, pivot=pivot, x=x, y=y)
    # arrivals[i]: walks x -> pivot of length i whose only pivot visit is the
    # final vertex; departures[j]: the mirror image for pivot -> y, counted
    # from y by walk reversal; returns[j]: all walks pivot -> y of length j,
    # read the same way from an unavoided stream. The vectors are streamed,
    # not kept.
    arrivals = [int(x == pivot)]
    departures = [int(y == pivot)]
    returns = []
    steps = zip(
        _count_vectors(n, x, k, pivot),
        _count_vectors(n, y, k, pivot),
        _count_vectors(n, y, k),
    )
    for fwd, bwd, full in steps:
        arrivals.append(fwd[pivot - 1] + fwd[pivot + 1])
        departures.append(bwd[pivot - 1] + bwd[pivot + 1])
        returns.append(full[pivot])
    c1 = fwd[y]  # the step-k vector
    per_step = tuple(arrivals[i] * departures[k - i] for i in range(k + 1))
    c3 = sum(
        arrivals[i] * (returns[k - i] - departures[k - i]) for i in range(k + 1)
    )
    return ClassCensus(c1, sum(per_step), c3, per_step)


def _half_vertex(v: int, pivot: int) -> int:
    """Map a non-pivot vertex to its coordinate inside its half-path."""
    return v if v < pivot else v - pivot


def _clean_counts(n: int, pivot: int, v: int, k: int) -> list[int]:
    """Entry L: walks of length L from v that reach the pivot only at their end.

    Read backwards, they leave the pivot and never return to it. Such a
    walk stays on v's side of the pivot until its last step, so for L >= 1
    it is a walk of length L - 1 on that side segment, from v to the
    pivot's neighbour. One stream over the segment serves every L = 0..k.
    """
    if v == pivot:
        return [1] + [0] * k
    size = pivot - 1 if v < pivot else n - pivot
    end = pivot - 1 if v < pivot else 1  # the pivot's neighbour on v's side
    steps = _count_vectors(size, _half_vertex(v, pivot), k - 1) if k else ()
    return [0, *(counts[end] for counts in steps)]


def class2_by_sides(n: int, pivot: int, x: int, y: int, k: int) -> int:
    """Class-2 count of length-k walks from x to y, from side segments alone.

    A class-2 walk is a clean prefix from x to the pivot and the reverse of
    a clean walk from y to the pivot, so the count is the sum over offsets
    i of clean(x, i) * clean(y, k - i). The clean counts come from walks on
    the side segments, which contain no pivot, so nothing is shared with
    the pivot-avoiding streams of ``class_census``. Costs one counting
    stream of k steps per side segment, the same order as the census.
    """
    _check_args(n, k, pivot=pivot, x=x, y=y)
    prefixes = _clean_counts(n, pivot, x, k)
    suffixes = _clean_counts(n, pivot, y, k)
    return sum(a * b for a, b in zip(prefixes, reversed(suffixes)))


def _odd_first_visits(m: int, v: int, lengths: range) -> list[int]:
    """The L in lengths at which an odd number of length-L walks from v reach
    the midpoint p = 2^(m-1) of the 2^m - 1 path at their last step and
    never before. Read backwards, the same walks are departures from p to v.

    Such a walk of length L >= 1 is a walk of length L - 1 on v's side
    segment, 2^(m-1) - 1 vertices, from v to the midpoint's neighbour, so
    each L is one ``_family_parity`` test. Those walks are even from length
    p on: at side length p - 1 both submask tests pass and cancel, and
    beyond it the length has a bit at or above p. Arguments are not checked.
    """
    p = 2 ** (m - 1)
    if v == p:
        return [0] if 0 in lengths else []
    hv, end = _half_vertex(v, p), p - 1 if v < p else 1
    return [L for L in lengths if L and _family_parity(m - 1, hv, end, L - 1)]


def _family_census(m: int, x: int, y: int, k: int) -> tuple[int, list[int], int]:
    """``class_census`` mod 2 at the midpoint of the 2^m - 1 path, for m >= 1.

    Returns the parity of c1, the visit offsets whose class-2 count is
    odd, and the parity of c3. The split at the first midpoint visit is the
    one of ``class_census``, and every factor is a walk count on a family
    path, whose parity ``_family_parity`` gives in closed form: c1 on a side
    segment of 2^(m-1) - 1 vertices, the returning suffixes on the whole
    path. The clean arrivals of x and departures to y are the lists of
    ``_odd_first_visits``, which are empty from length 2^(m-1) on, so only
    offsets i below the midpoint are read, and only departure lengths
    k - i below it: none once k >= n. Class 2 is odd at the arrivals whose
    departure is odd, and class 3 sums the returns after each odd arrival
    less those departures. The cost does not grow with k. Arguments are not
    checked.
    """
    p = 2 ** (m - 1)
    c1 = 0
    if x != p and y != p and (x < p) == (y < p):
        c1 = _family_parity(m - 1, _half_vertex(x, p), _half_vertex(y, p), k)
    arrivals = _odd_first_visits(m, x, range(min(k + 1, p)))
    departures = set(_odd_first_visits(m, y, range(max(k - p + 1, 0), min(k + 1, p))))
    odd_offsets = [i for i in arrivals if k - i in departures]
    c3 = len(odd_offsets) % 2
    for i in arrivals:
        c3 ^= _family_parity(m, p, y, k - i)
    return c1, odd_offsets, c3


def _certificate_notes(m: int, k: int, x: int, y: int) -> tuple[str, str]:
    """The class-1 and class-2 justifications of the top certificate node.

    Class 1 is empty or confined to one half-path, and the class-2 visit
    offsets 0..k split into prefix recursions, suffix recursions and
    structurally empty offsets. Each recursion is on a half-path of
    half_n = 2^(m-1) - 1 vertices with a length of at least half_n: class 1
    keeps k, an end offset leaves k - 1, and an interior offset leaves a
    prefix and a suffix whose lengths sum to k - 2 >= 2 * half_n - 1, so
    one of them reaches half_n. Hence the bound k >= n, once it holds at
    the top, holds at every node, and no offset is left uncovered.
    """
    p = 2 ** (m - 1)
    half_n = p - 1
    if x == p or y == p:
        class1 = f"empty: an endpoint equals the midpoint {p}"
        # at most one end offset recurses; every other offset is empty
        kinds = {
            "prefix recursion": int(y == p != x),
            "suffix recursion": int(x == p != y),
        }
    else:
        if (x < p) != (y < p):
            class1 = f"empty: endpoints on opposite sides of the midpoint {p}"
        else:
            side = "left" if x < p else "right"
            class1 = (
                f"confined to the {side} half, a path on {half_n} vertices; "
                f"recurse with the same k = {k}"
            )
        # k >= n, so every offset 1..half_n has a long enough suffix
        kinds = {"prefix recursion": k - 1 - half_n, "suffix recursion": half_n}
    kinds["structurally empty"] = k + 1 - sum(kinds.values())
    summary = ", ".join(
        f"{count} {kind}" + ("s" if count != 1 and kind != "structurally empty" else "")
        for kind, count in kinds.items()
        if count
    )
    return class1, f"visit offsets 0..{k}: {summary}"


def theorem_check(m: int, k: int, x: int, y: int) -> ParityReport:
    """Certify that the length-k walk count from x to y is even, for k >= n.

    Requires n = 2^m - 1 vertices and k >= n. That bound makes every case
    of the recursive per-class certificate apply at every level (see
    ``_certificate_notes``), so only the top node's notes are reported.
    Measures each class's actual parity with the closed-form census: one
    ``_family_parity`` test per visit offset below the midpoint for the
    arrivals of x, one per odd arrival for the returns to y after it, and
    none for the departures to y, which are all even at k >= n. That is
    O(2^(m-1)) tests whatever k is. The total is cross-checked against
    the mod-2 count by Frobenius doubling.
    The report carries one row per class plus the cross-check, at every m:
    the base case P_1, whose only vertex is its midpoint, is certified by
    the same rows, with classes 1 and 3 empty and every class-2 offset
    structurally empty.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    n = 2**m - 1
    if k < n:
        raise ValueError(f"k = {k} is below the bound: need k >= n = {n}")
    _check_args(n, k, x=x, y=y)

    params = {"m": m, "n": n, "k": k, "x": x, "y": y}
    class1_note, class2_note = _certificate_notes(m, k, x, y)
    c1, odd_offsets, c3 = _family_census(m, x, y, k)
    details = [
        Detail(
            "class 1: walks avoiding the midpoint",
            "even",
            _parity_word(c1),
            class1_note,
        ),
        Detail(
            "class 2: single midpoint visit, every visit offset",
            "even",
            "even" if not odd_offsets else f"odd at offsets {odd_offsets}",
            class2_note,
        ),
        Detail(
            "class 3: two or more midpoint visits",
            "even",
            _parity_word(c3),
            "paired by reflecting between the first two midpoint visits; "
            "the exact midpoint keeps every reflection inside 1..n",
        ),
        Detail(
            "mod-2 walk count",
            0,
            count_walks_parity(n, x, y, k),
            "Frobenius doubling on the mirrored cycle, independent of the class split",
        ),
    ]
    return ParityReport("theorem-check", params, tuple(details))


def _parity_word(count: int) -> str:
    return "even" if count % 2 == 0 else "odd"


def naive_pivot(vs: Sequence[int]) -> int | None:
    """The repeated vertex with the highest power of 2 in its factorization.

    Among vertices visited at least twice, picks those whose 2-exponent is
    maximal, then the one whose second visit comes first. None when no
    vertex repeats. One pass: v & -v is the largest power of 2 dividing v,
    so it orders vertices as their 2-exponents do, and only a strictly
    larger one replaces the pivot found so far, so the earliest second
    visit wins a tie.
    """
    seen: set[int] = set()
    pivot, pivot_low = None, -1
    for v in vs:
        if v in seen:
            if v & -v > pivot_low:
                pivot, pivot_low = v, v & -v
        else:
            seen.add(v)
    return pivot


def naive_reflect(n: int, vs: Sequence[int]) -> tuple[int, ...]:
    """Reflect between the first two visits of the naive divisibility pivot.

    Looks appealing because the pivot survives the reflection, so applying
    the map twice restores the walk. But nothing anchors the pivot to the
    middle of the path, so the mirrored segment can leave 1..n, in which
    case this raises ReflectionOutOfBounds. That failure is the reason the
    certified argument splits class 2 instead of reflecting across any
    repeated vertex. The walk is validated once: a repeated vertex of a
    valid walk is a vertex of the path visited twice, so the checks of
    ``reflect_class3`` would hold, and the unchecked core ``_reflect`` does
    the mirroring.
    """
    vs = _require_valid(n, vs)
    pivot = naive_pivot(vs)
    if pivot is None:
        raise ValueError(f"walk {vs} has no repeated vertex to reflect around")
    return _reflect(n, vs, pivot)


def find_naive_failure(n: int, k: int) -> tuple[int, ...] | None:
    """First length-k walk (lexicographically) whose naive reflection escapes.

    Scans every walk of length k in the n-path in lexicographic order and
    returns the first one where ``naive_reflect`` leaves 1..n, or None when
    the naive method happens to work everywhere at this size. Each walk's
    segment is tested by the escape rule of ``_reflect`` without being
    mirrored. A pivot that stays inside settles the walks sharing the
    prefix up to its second visit once only the midpoint, which mirrors
    1..n onto itself, has a larger 2-exponent: their pivot is it or the
    midpoint. No length is refused; the scan lists up to n * 2^k walks,
    and tests 3 of 215,233 at n = 7, k = 22.
    """
    _check_args(n, k)
    top = 1 << (n.bit_length() - 1)
    final = top >> 1 if 2 * top == n + 1 else top
    settled, cut = (0,), 1  # no walk starts at 0
    for start in range(1, n + 1):
        for vs in iter_walks_from(n, start, k):
            if vs[:cut] == settled:
                continue
            pivot = naive_pivot(vs)
            if pivot is None:
                continue
            first = vs.index(pivot)
            second = vs.index(pivot, first + 1)
            if _escapes(n, vs[first + 1 : second], pivot):
                return vs
            if pivot & -pivot >= final:
                cut = second + 1
                settled = vs[:cut]
    return None
