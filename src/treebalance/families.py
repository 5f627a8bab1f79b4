"""Generators for the named tree families.

``fully_balanced(h)`` puts all 2**h leaves at depth exactly h.
``echelon(n)`` pairs the largest admissible power-of-two balanced block
with the echelon tree on the remainder; it is the unique shape with
maximum stairs2 index for its leaf count.  ``caterpillar(n)`` hangs a leaf
off every internal node; it is the unique minimizer.  Every tree has at
least one leaf, so ``echelon`` and ``caterpillar`` reject n < 1.

All generators alias repeated subtree objects (trees are immutable, so
sharing is safe and keeps fully balanced trees at O(h) memory instead of
O(2**h), and an echelon tree at O(log n)).  Traversals elsewhere in the
package are written for that.
"""

from .tree import Tree


def fully_balanced(h: int) -> Tree:
    """Tree on 2**h leaves with every leaf at depth exactly h.

    It holds h + 1 distinct nodes, one per level, so any height is cheap to
    build; the CLI's ``generate``, which writes every leaf, caps h itself.
    """
    if h < 0:
        raise ValueError("height must be non-negative")
    t = Tree()
    for _ in range(h):
        t = Tree(t, t)
    return t


def echelon(n: int) -> Tree:
    """The echelon tree on n >= 1 leaves.

    For n >= 2 the larger root subtree is fully balanced on k leaves,
    where k is the unique power of two with n/2 <= k < n, and the smaller
    is the echelon tree on n - k leaves.  Unrolled, that is one fully
    balanced block per set bit of n, each paired with the blocks of the
    lower bits; when n is a power of two its single block is the whole
    tree.  The blocks are cut from one doubling chain, so the tree has
    fewer than 2 * n.bit_length() distinct nodes.
    """
    if n < 1:
        raise ValueError("echelon needs at least one leaf")
    t = None
    block = Tree()
    while True:
        if n & 1:
            t = block if t is None else Tree(block, t)
        n >>= 1
        if not n:
            return t
        block = Tree(block, block)


def caterpillar(n: int) -> Tree:
    """The caterpillar on n leaves: a path of internal nodes, height n - 1."""
    if n < 1:
        raise ValueError("caterpillar needs at least one leaf")
    leaf = Tree()
    t = leaf
    for _ in range(n - 1):
        t = Tree(t, leaf)
    return t
