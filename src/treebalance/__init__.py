"""Exact stairs2 balance index computations on rooted binary trees.

The stairs2 index of a binary tree averages, over the internal nodes, the
ratio of the smaller to the larger child-subtree leaf count.  This package
computes it in exact rational arithmetic, builds the extremal tree
families (fully balanced, echelon, caterpillar), evaluates the maximum
value per leaf count by three formulas (the recursive and closed forms are
independent of each other; the even recursion takes its half-size value
from the recursive one), verifies extremality claims by exhaustive shape
enumeration, and reads/writes strictly binary Newick.
"""

from .extremal import (
    ExtremalReport,
    max_value_closed,
    max_value_even_recursion,
    max_value_recursive,
    verify_extremal,
)
from .families import caterpillar, echelon, fully_balanced
from .newick import NewickArityError, NewickDocument, NewickError, parse_newick, write_newick
from .shapes import DEFAULT_ENUM_BOUND, count_shapes, enumerate_shapes
from .stairs2 import stairs2_direct, stairs2_recursive
from .tree import (
    CanonicalCode,
    LimitError,
    Tree,
    canonical,
    decompose,
    height,
    is_isomorphic,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalCode",
    "DEFAULT_ENUM_BOUND",
    "ExtremalReport",
    "LimitError",
    "NewickArityError",
    "NewickDocument",
    "NewickError",
    "Tree",
    "canonical",
    "caterpillar",
    "count_shapes",
    "decompose",
    "echelon",
    "enumerate_shapes",
    "fully_balanced",
    "height",
    "is_isomorphic",
    "max_value_closed",
    "max_value_even_recursion",
    "max_value_recursive",
    "parse_newick",
    "stairs2_direct",
    "stairs2_recursive",
    "verify_extremal",
    "write_newick",
]
