"""Rooted binary tree shapes and exact structural queries.

A tree is either a single leaf or an internal node with exactly two
children, so every tree has at least one leaf.  Shapes carry no labels and
children are unordered: two trees count as the same shape when one becomes
the other by swapping children at any set of nodes.

Instances are immutable and may freely share subtree objects (the family
generators rely on this), so every structural operation here walks each
distinct node at most once, keyed by identity, instead of recursing over
the unfolded tree.  That walk is written once, in ``_postorder``, which
returns the distinct internal nodes children first and does its own
deduplication: an explicit stack rather than recursion, so arbitrarily
deep trees such as large caterpillars are safe.  ``canonical`` caches its
codes on the nodes, across calls; ``height`` keeps one integer per
distinct node for the length of the call.  Both index evaluations in
``stairs2`` and ``newick.write_shapes`` use the same walk.
"""

from collections.abc import Callable

#: Canonical codes are strings over "0"/"1"; equal codes mean equal shapes.
CanonicalCode = str


class LimitError(ValueError):
    """A configurable size guard (tree height or enumeration bound) was hit."""


class Tree:
    """An immutable rooted binary tree shape.

    ``Tree()`` is a leaf; ``Tree(left, right)`` is an internal node.  Each
    node caches the number of leaves below it at construction time, so
    subtree sizes are O(1).  Equality and hashing go through the canonical
    code: ``t1 == t2`` means "same shape".
    """

    __slots__ = ("left", "right", "leaf_count", "_code")

    def __init__(self, left: "Tree | None" = None, right: "Tree | None" = None):
        if (left is None) != (right is None):
            raise ValueError("an internal node needs exactly two children")
        self.leaf_count = 1 if left is None else left.leaf_count + right.leaf_count
        self.left = left
        self.right = right
        self._code: str | None = "0" if left is None else None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self is other or canonical(self) == canonical(other)

    def __hash__(self):
        return hash(canonical(self))

    def __repr__(self):
        return f"<Tree with {self.leaf_count} leaves>"


def _postorder(t: Tree, done: "Callable[[Tree], bool] | None" = None) -> "list[Tree]":
    """The distinct internal nodes of ``t``, by identity, each after both of
    its children; reversed, every node comes before its children.

    A subtree shared by several parents appears once.  ``done`` marks nodes
    that an earlier call already handled: a node for which it holds is left
    out together with everything below it.
    """
    order: list[Tree] = []
    expanded: set[int] = set()
    stack = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
            continue
        # A node expanded earlier is in ``order`` already: were it not, the
        # parent that pushed it again would lie below it.
        if node.left is None or id(node) in expanded or (done is not None and done(node)):
            continue
        expanded.add(id(node))
        stack += (node, True), (node.left, False), (node.right, False)
    return order


def canonical(t: Tree) -> CanonicalCode:
    """Return the canonical code of ``t``.

    A leaf codes as ``"0"`` and an internal node as ``"1"`` followed by the
    codes of its children ordered by the canonical sort key (leaf count
    descending, then code lexicographic), which is the order ``decompose``
    returns.  The code is cached on each node, computed at most once per
    object.
    """
    if t._code is not None:
        return t._code
    for node in _postorder(t, lambda v: v._code is not None):
        first, second = decompose(node)
        node._code = "1" + first._code + second._code
    return t._code


def decompose(t: Tree) -> "tuple[Tree, Tree]":
    """Split ``t`` into its two maximal pending subtrees, larger one first.

    Ties in leaf count are broken by canonical code, so the returned pair
    is deterministic per shape; this is the sibling order of ``canonical``
    and of the Newick writer.  The identity fast path avoids building codes
    for aliased pairs.  Raises ValueError on a leaf.
    """
    a, b = t.left, t.right
    if a is None:
        raise ValueError("decompose needs an internal node (at least two leaves)")
    if a is b:
        return a, b
    if a.leaf_count != b.leaf_count:
        return (a, b) if a.leaf_count > b.leaf_count else (b, a)
    return (a, b) if canonical(a) <= canonical(b) else (b, a)


def height(t: Tree) -> int:
    """Edge count from the root to its deepest leaf; a lone leaf has height 0."""
    heights: dict[int, int] = {}
    for node in _postorder(t):
        heights[id(node)] = 1 + max(heights.get(id(node.left), 0), heights.get(id(node.right), 0))
    return heights.get(id(t), 0)


def is_isomorphic(t1: Tree, t2: Tree) -> bool:
    """True when the two trees are the same shape (children unordered).

    An alias of ``t1 == t2``, kept as public API.
    """
    return t1 == t2
