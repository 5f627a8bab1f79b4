"""Exhaustive enumeration of tree shapes, with an independent count.

``enumerate_shapes(n)`` returns exactly one representative per n-leaf shape
(isomorphism class).  ``count_shapes(n)`` evaluates the classic pairing
recurrence for the number of such shapes without building any trees, so
the two act as independent checks on each other:

    w(1) = 1
    w(2m + 1) = sum_{i=1..m} w(i) w(2m + 1 - i)
    w(2m)     = sum_{i=1..m-1} w(i) w(2m - i)  +  w(m) (w(m) + 1) / 2

Shape lists for each n are cached; enumeration returns the cached tuple.
"""

from itertools import combinations_with_replacement

from .tree import LimitError, Tree

#: Default ceiling for shape enumeration (the CLI can raise it via the
#: TREEBALANCE_MAX_ENUM environment variable).  n = 18 means 56011 shapes.
DEFAULT_ENUM_BOUND = 18

_shape_cache: dict[int, "tuple[Tree, ...]"] = {1: (Tree(),)}


def _shapes(n: int) -> "tuple[Tree, ...]":
    cached = _shape_cache.get(n)
    if cached is not None:
        return cached
    out = []
    # Splits n = n1 + n2 with n1 >= n2 >= 1, larger side first.
    for n1 in range(n - 1, (n + 1) // 2 - 1, -1):
        n2 = n - n1
        if n1 > n2:
            for a in _shapes(n1):
                for b in _shapes(n2):
                    out.append(Tree(a, b))
        else:
            # Equal halves: one tree per unordered pair of shapes.
            for a, b in combinations_with_replacement(_shapes(n1), 2):
                out.append(Tree(a, b))
    result = tuple(out)
    _shape_cache[n] = result
    return result


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
    return _shapes(n)


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
