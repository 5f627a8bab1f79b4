"""Maximum stairs2 values and brute-force extremal verification.

Three routes to the maximum index over all n-leaf shapes:

* ``max_value_recursive``: peel off the largest power-of-two block,
* ``max_value_closed``: closed form over the binary expansion of n,
* ``max_value_even_recursion``: shortcut relating even n to n/2.

The first two are independent of each other.  The third is not: it takes
the half-size value from ``max_value_recursive``, so it checks the
doubling step rather than the whole recursion.  They must agree exactly
everywhere; the test suite holds them to that.

``verify_extremal`` is the ground truth at small n: it scores every shape
exactly and reports whether the maximizer is unique and is the echelon
tree, whether the minimizer is unique and is the caterpillar, and whether
both root subtrees of every maximizer attain the maximum for their own
sizes.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .families import caterpillar, echelon
from .shapes import DEFAULT_ENUM_BOUND, enumerate_shapes
from .tree import CanonicalCode, Tree, canonical

_ZERO = Fraction(0)

# Values computed so far; filling is idempotent, so racing fills at worst
# redo work (safe under concurrent use, exact values are deterministic).
_max_memo: dict[int, Fraction] = {0: _ZERO, 1: _ZERO}


def max_value_recursive(n: int) -> Fraction:
    """Maximum index over n-leaf shapes, by power-of-two peeling.

    For n >= 2 with k = 2**floor(log2 n):

        value(n) = ((k - 1) + (n - k - 1) value(n - k) + (n - k)/k) / (n - 1)

    with value(0) = value(1) = 0.  When n is a power of two the remainder
    term vanishes and the value is exactly 1.  Memoized over n.
    """
    if n < 0:
        raise ValueError("leaf count must be non-negative")
    got = _max_memo.get(n)
    if got is not None:
        return got
    k = 1 << (n.bit_length() - 1)
    rest = n - k
    value = ((k - 1) + (rest - 1) * max_value_recursive(rest) + Fraction(rest, k)) / (n - 1)
    _max_memo[n] = value
    return value


def max_value_closed(n: int) -> Fraction:
    """Same maximum, in closed form over the binary expansion of n.

    With n = 2**e1 + ... + 2**eL (e1 < ... < eL):

        (n - 1) * value = sum_i (2**e_i - 1)
                        + sum_{i<L} (2**e1 + ... + 2**e_i) / 2**e_{i+1}

    Evaluated directly, no recursion and no shared state, so it serves as
    an independent check on :func:`max_value_recursive`.
    """
    if n < 0:
        raise ValueError("leaf count must be non-negative")
    if n <= 1:
        return _ZERO
    powers = [1 << e for e in range(n.bit_length()) if (n >> e) & 1]
    total = Fraction(sum(p - 1 for p in powers))
    prefix = 0
    for small, nxt in zip(powers, powers[1:]):
        prefix += small
        total += Fraction(prefix, nxt)
    return total / (n - 1)


def max_value_even_recursion(n: int) -> Fraction:
    """Maximum for even n via the half-size value.

    Doubling every leaf of a maximizer on n/2 leaves into a cherry gives
    the maximizer on n leaves, whence

        value(n) = ((n/2 - 1) value(n/2) + n/2) / (n - 1)

    Raises ValueError for odd n or n < 2.
    """
    if n < 2 or n % 2:
        raise ValueError("the even recursion needs an even n >= 2")
    half = n // 2
    return ((half - 1) * max_value_recursive(half) + half) / Fraction(n - 1)


@dataclass(frozen=True)
class ExtremalReport:
    """Brute-force extremal summary for one leaf count.

    Witness lists hold canonical codes, sorted, one entry per argmax or
    argmin shape.  The boolean flags record the expected outcome: a unique
    maximizer equal to the echelon tree, a unique minimizer equal to the
    caterpillar, and maximizers whose root subtrees are maximizers too.
    """

    n: int
    shape_count: int
    max_value: Fraction
    min_value: Fraction
    max_witnesses: "tuple[CanonicalCode, ...]"
    min_witnesses: "tuple[CanonicalCode, ...]"
    max_unique_and_is_echelon: bool
    min_unique_and_is_caterpillar: bool
    subtree_maximality_holds: bool


def _node_sum(t: Tree, scale: int, memo: "dict[int, int]") -> int:
    """``scale`` times the sum of min/max child leaf-count ratios over t's nodes.

    A tree with m >= 2 leaves has index ``_node_sum(t, ...) / (scale * (m - 1))``,
    and every term is an exact integer when ``scale`` is a multiple of every
    leaf count below t, such as ``lcm(1..m-1)``.  ``memo`` maps the id of each
    node strictly below t to its own sum, so shapes that share subtrees, as
    enumerated shapes do, sum each shared node once; t itself is not stored.
    Ids are keys only while their nodes live, so one memo must serve only
    trees that outlive it.
    """
    if t.left is None:
        return 0
    na, nb = t.left.leaf_count, t.right.leaf_count
    total = scale * min(na, nb) // max(na, nb)
    for child in (t.left, t.right):
        s = memo.get(id(child))
        if s is None:
            # Recursion depth is at most the leaf count, kept small by the
            # enumeration bound.
            s = memo[id(child)] = _node_sum(child, scale, memo)
        total += s
    return total


def verify_extremal(n: int, bound: int = DEFAULT_ENUM_BOUND) -> ExtremalReport:
    """Score every n-leaf shape exactly and summarize the extremes.

    Every score is an integer, the index times ``lcm(1..n-1) * (n - 1)``, so
    uniqueness is decided by exact integer equality; there is no epsilon
    anywhere.  Raises ValueError for n < 2 and LimitError above ``bound``.
    """
    if n < 2:
        raise ValueError("extremal verification needs at least two leaves")
    scale = math.lcm(*range(1, n))
    memo: dict[int, int] = {}
    shape_count = 0
    best: int | None = None
    worst: int | None = None
    max_trees: list[Tree] = []
    min_trees: list[Tree] = []
    for shape in enumerate_shapes(n, bound):
        shape_count += 1
        value = _node_sum(shape, scale, memo)
        if best is None or value > best:
            best, max_trees = value, [shape]
        elif value == best:
            max_trees.append(shape)
        if worst is None or value < worst:
            worst, min_trees = value, [shape]
        elif value == worst:
            min_trees.append(shape)

    # Cross-multiplied, so a single leaf (m = 1, value 0) needs no special case.
    subtree_ok = all(
        _node_sum(part, scale, memo)
        == max_value_recursive(part.leaf_count) * scale * (part.leaf_count - 1)
        for tree in max_trees
        for part in (tree.left, tree.right)
    )

    max_codes = tuple(sorted(canonical(t) for t in max_trees))
    min_codes = tuple(sorted(canonical(t) for t in min_trees))
    return ExtremalReport(
        n=n,
        shape_count=shape_count,
        max_value=Fraction(best, scale * (n - 1)),
        min_value=Fraction(worst, scale * (n - 1)),
        max_witnesses=max_codes,
        min_witnesses=min_codes,
        max_unique_and_is_echelon=(
            len(max_codes) == 1 and max_codes[0] == canonical(echelon(n))
        ),
        min_unique_and_is_caterpillar=(
            len(min_codes) == 1 and min_codes[0] == canonical(caterpillar(n))
        ),
        subtree_maximality_holds=subtree_ok,
    )
