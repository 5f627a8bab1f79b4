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
``stairs2`` use the same walk.  A canonical code is the shape's unlabeled
Newick template: ``_LEAF_CODE`` per leaf, ``_join`` of the children's codes
per internal node.  ``shapes.filled_codes`` builds the codes of every
shape of a leaf count from the same two, with no tree.
"""

from collections.abc import Callable

#: Canonical codes are unlabeled Newick templates such as "((%s,%s),%s)";
#: equal codes mean equal shapes.
CanonicalCode = str

_LEAF_CODE: CanonicalCode = "%s"
#: The code of an internal node from its children's codes, in ``decompose`` order.
_join: "Callable[[str, str], str]" = "({},{})".format


class LimitError(ValueError):
    """A size guard was hit: the fixed scoring bound or the enumeration
    bound.

    Only the enumeration bound can be set, through the ``bound`` arguments
    of :func:`~treebalance.shapes.enumerate_shapes`,
    :func:`~treebalance.shapes.filled_codes` and
    :func:`~treebalance.extremal.verify_extremal`, or the CLI's
    ``TREEBALANCE_MAX_ENUM`` environment variable.  Whatever that bound,
    ``verify_extremal`` refuses a ``max_n`` above 43
    (``extremal.MAX_VERIFY_N``), where its integer scores would pass 2**63.
    """


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
        self._code: str | None = _LEAF_CODE if left is None else None

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
    expanded: set[int] = set()  # the ids of the nodes pushed with their children
    # Internal nodes only.  An expanded node goes back with a None and then
    # its children above it, so the None is popped once they are listed,
    # and then lists the node.
    stack = [t] if t.left is not None else []
    while stack:
        node = stack.pop()
        if node is None:
            order.append(stack.pop())
            continue
        key = id(node)
        # A node met again was expanded earlier; in a DAG it cannot be one
        # whose children are still being walked, so it is listed already.
        if key in expanded or done is not None and done(node):
            continue
        expanded.add(key)
        stack += node, None
        if node.left.left is not None:
            stack.append(node.left)
        if node.right.left is not None:
            stack.append(node.right)
    return order


def canonical(t: Tree) -> CanonicalCode:
    """Return the canonical code of ``t``: its unlabeled Newick template.

    A leaf codes as ``"%s"`` and an internal node as ``"(" + code(first) +
    "," + code(second) + ")"`` with ``first, second = decompose(node)``:
    leaf count descending, then code lexicographic.  So ``canonical(t) %
    names`` is ``t``'s Newick text, less the ``;``, with one name per leaf
    in output order.  The code is cached on each node, computed at most
    once per object.  A k-leaf node caches 5k - 3 characters.
    """
    if t._code is not None:
        return t._code
    # A node whose children are coded, as a shape built from coded ones is,
    # needs no walk.
    if t.left._code is None or t.right._code is None:
        nodes = _postorder(t, lambda v: v._code is not None)
    else:
        nodes = (t,)
    for node in nodes:
        first, second = decompose(node)
        node._code = _join(first._code, second._code)
    return t._code


def decompose(t: Tree) -> "tuple[Tree, Tree]":
    """Split ``t`` into its two maximal pending subtrees, larger one first.

    Ties in leaf count are broken by canonical code, so the returned pair
    is deterministic per shape; this is the package's one sibling order,
    which ``canonical`` and ``write_newick`` take.  The identity fast
    path avoids building codes for aliased pairs.  Raises ValueError on a
    leaf.
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
