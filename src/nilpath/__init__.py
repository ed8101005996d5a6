"""Nilpotency of path-graph adjacency matrices over GF(2), two ways.

The adjacency matrix A of the path on n = 2^m - 1 vertices satisfies
A^n = 0 over GF(2), and no smaller power vanishes. This package verifies
that claim directly with bit-packed linear algebra (:mod:`nilpath.gf2`),
re-derives it through the walk-counting argument it encodes
(:mod:`nilpath.walks`, :mod:`nilpath.proofcheck`), and cross-checks it
against the characteristic polynomial (:mod:`nilpath.charpoly`). The
``nilpath`` command line wraps each piece in a reporting harness.
"""

from .charpoly import GF2Poly, charpoly_is_monomial, charpoly_path
from .gf2 import (
    GF2Matrix,
    identity,
    mat_from_entries,
    mat_is_zero,
    mat_mul,
    mat_pow,
    nilpotency_index,
    zero,
)
from .proofcheck import (
    Class2Split,
    ClassCensus,
    ClassTag,
    ReflectionOutOfBounds,
    WalkClass,
    class2_decompose,
    class_census,
    classify,
    find_naive_failure,
    naive_pivot,
    naive_reflect,
    reflect_class3,
    theorem_check,
)
from .report import Detail, ParityReport, render_csv, render_json, render_text
from .walks import (
    DEFAULT_ENUM_CAP,
    EnumerationCapExceeded,
    PathSpec,
    Walk,
    count_walks_exact,
    count_walks_parity,
    enumerate_walks,
    integer_adjacency_power,
    iter_walks_from,
    path_adjacency,
    walk_is_valid,
)

__version__ = "0.1.0"

__all__ = [
    "GF2Matrix",
    "identity",
    "zero",
    "mat_from_entries",
    "mat_mul",
    "mat_pow",
    "mat_is_zero",
    "nilpotency_index",
    "PathSpec",
    "Walk",
    "DEFAULT_ENUM_CAP",
    "EnumerationCapExceeded",
    "path_adjacency",
    "walk_is_valid",
    "iter_walks_from",
    "enumerate_walks",
    "count_walks_exact",
    "count_walks_parity",
    "integer_adjacency_power",
    "ClassTag",
    "WalkClass",
    "Class2Split",
    "ClassCensus",
    "ReflectionOutOfBounds",
    "classify",
    "class2_decompose",
    "reflect_class3",
    "class_census",
    "theorem_check",
    "naive_pivot",
    "naive_reflect",
    "find_naive_failure",
    "GF2Poly",
    "charpoly_path",
    "charpoly_is_monomial",
    "Detail",
    "ParityReport",
    "render_text",
    "render_json",
    "render_csv",
    "__version__",
]
