"""Nilpotency of path-graph adjacency matrices over GF(2), three ways.

The adjacency matrix A of the path on n = 2^m - 1 vertices satisfies
A^n = 0 over GF(2), and no smaller power vanishes. This package verifies
that claim directly with bit-packed linear algebra (:mod:`nilpath.gf2`),
re-derives it through the walk-counting argument it encodes
(:mod:`nilpath.walks`, :mod:`nilpath.proofcheck`), and cross-checks it
against the characteristic polynomial (:mod:`nilpath.charpoly`). The
``nilpath`` command line wraps each piece in a reporting harness.

The package republishes the ``__all__`` of each library module, so a
public name is declared once, in its own module.
"""

from .charpoly import *
from .gf2 import *
from .proofcheck import *
from .report import *
from .walks import *

__version__ = "0.1.0"

__all__ = (
    gf2.__all__
    + walks.__all__
    + proofcheck.__all__
    + charpoly.__all__
    + report.__all__
    + ["__version__"]
)
