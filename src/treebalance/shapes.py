"""Exhaustive enumeration of tree shapes, with an independent count.

``enumerate_shapes(n)`` returns exactly one representative per n-leaf shape
(isomorphism class).  ``count_shapes(n)`` evaluates the classic pairing
recurrence for the number of such shapes without building any trees, so
the two act as independent checks on each other:

    w(1) = 1
    w(2m + 1) = sum_{i=1..m} w(i) w(2m + 1 - i)
    w(2m)     = sum_{i=1..m-1} w(i) w(2m - i)  +  w(m) (w(m) + 1) / 2

The shape lists are built bottom-up and cached: ``_shapes[m]`` holds every
m-leaf shape, and the shapes of each new leaf count pair up the cached
shapes of smaller counts, so all of them share subtree objects.
"""

from itertools import combinations_with_replacement

from .tree import LimitError, Tree

#: Default ceiling for shape enumeration (the CLI can raise it via the
#: TREEBALANCE_MAX_ENUM environment variable).  n = 18 means 56011 shapes.
DEFAULT_ENUM_BOUND = 18

_shapes: "list[tuple[Tree, ...]]" = [(), (Tree(),)]


def enumerate_shapes(n: int, bound: int = DEFAULT_ENUM_BOUND) -> "tuple[Tree, ...]":
    """Return every n-leaf shape exactly once, in a fixed deterministic order.

    The tuple is the cache's own; its trees share subtree objects with each
    other, and all are immutable, so this is safe.  The arguments are
    checked when called: ValueError below one leaf, LimitError above
    ``bound``.
    """
    if n < 1:
        raise ValueError("need at least one leaf")
    if n > bound:
        raise LimitError(f"n={n} exceeds the enumeration bound {bound}")
    for m in range(len(_shapes), n + 1):
        out = []
        # Splits m = m1 + m2 with m1 >= m2 >= 1, larger side first.
        for m1 in range(m - 1, (m + 1) // 2 - 1, -1):
            m2 = m - m1
            if m1 > m2:
                out.extend(Tree(a, b) for a in _shapes[m1] for b in _shapes[m2])
            else:
                # Equal halves: one tree per unordered pair of shapes.
                out.extend(Tree(a, b) for a, b in combinations_with_replacement(_shapes[m1], 2))
        _shapes.append(tuple(out))
    return _shapes[n]


def count_shapes(n: int) -> int:
    """Count n-leaf shapes by the pairing recurrence; builds no tree, keeps no state."""
    if n < 1:
        raise ValueError("need at least one leaf")
    w = [0, 1]
    for m in range(2, n + 1):
        total = sum(w[i] * w[m - i] for i in range(1, (m - 1) // 2 + 1))
        if m % 2 == 0:
            half = w[m // 2]
            total += half * (half + 1) // 2
        w.append(total)
    return w[n]
