"""The stairs2 balance index, computed two independent ways.

For a tree T with n >= 2 leaves the index is

    st(T) = (1 / (n - 1)) * sum over internal nodes v of min(nL, nR) / max(nL, nR)

where nL and nR are the leaf counts of v's two child subtrees; a lone
leaf scores 0.  The index lies in (0, 1] and equals 1 exactly for fully
balanced trees.

``stairs2_direct`` evaluates the defining sum over the distinct internal
nodes, each term weighted by how often its node occurs in the unfolded
tree, so a subtree shared by several parents, as the parser and the
family generators share equal subtrees, is summed once.  It adds one
integer numerator per denominator, each partial sum kept over the least
common denominator of its terms.
``stairs2_recursive`` instead applies the equivalent root-decomposition
rule, with T = (T1, T2), n1 >= n2:

    st(T) = ((n1 - 1) st(T1) + (n2 - 1) st(T2) + n2/n1) / (n1 + n2 - 1)

Given st(T2), the rule is an affine map of st(T1), so it composes the
maps along each heavy path (the chain of heavier children from a head)
and applies the result once at the path's head.  Every internal node is
a head except one with a single parent whose heavier child it is; the
function stores one value per head and keeps them until it returns.

Both folds, of the sum's terms and of a path's maps, go through one
balanced product tree (binary splitting), ``_balanced_fold``, so both run
in near-linear time in the distinct nodes.  The two functions agree
exactly on every input; keeping both gives the test suite an internal
cross-check, so they share only that fold, which knows neither rule,
and ``tree._postorder``, which lists each distinct node once, children
first.  All arithmetic is exact, in
integers and rationals, never float.
"""

from collections.abc import Callable, Iterable
from fractions import Fraction
from math import gcd

from .tree import Tree, _postorder

_ZERO = Fraction(0)


def _numerators(t: Tree) -> "dict[int, int]":
    """Map each denominator q = max(nL, nR) of an internal node of ``t`` to
    the sum of min(nL, nR) over the nodes of the unfolded tree with that q.

    One pass over ``_postorder``'s list in reverse, parents first, starts
    the root at multiplicity 1, adds each node's multiplicity in the
    unfolded tree to its children's (twice to a child that is both) and
    multiplicity * min(nL, nR) to its numerator; every parent of a node
    comes before it, so its multiplicity is complete when it is read.
    ``t`` must not be a leaf.
    """
    multiplicity = {id(t): 1}
    numerators: dict[int, int] = {}
    for node in reversed(_postorder(t)):
        m = multiplicity.pop(id(node))
        na, nb = node.left.leaf_count, node.right.leaf_count
        lo, hi = (na, nb) if na <= nb else (nb, na)
        numerators[hi] = numerators.get(hi, 0) + m * lo
        for child in (node.left, node.right):
            if child.left is not None:
                multiplicity[id(child)] = multiplicity.get(id(child), 0) + m
    return numerators


def _balanced_fold(items: Iterable, combine: Callable):
    """Fold ``items``, at least one, left to right as ``combine(earlier, later)``
    in a balanced product tree (binary splitting).

    A binary counter holds at most one partial result per level, the fold
    of 2**level consecutive items, so k items keep about log2(k) partial
    results at once and are read as they arrive.  ``combine`` must be
    associative; it need not be commutative.
    """
    pending: list = []
    for item in items:
        level = 0
        while pending and pending[-1][0] == level:
            level, item = level + 1, combine(pending.pop()[1], item)
        pending.append((level, item))
    result = pending.pop()[1]
    while pending:
        result = combine(pending.pop()[1], result)
    return result


def _add_over_lcm(s: "tuple[int, int]", u: "tuple[int, int]") -> "tuple[int, int]":
    """The sum p1/q1 + p2/q2 of two (q, p) terms, over lcm(q1, q2)."""
    (q1, p1), (q2, p2) = s, u
    g = gcd(q1, q2)
    return q1 // g * q2, p1 * (q2 // g) + p2 * (q1 // g)


def stairs2_direct(t: Tree) -> Fraction:
    """Index of ``t`` by the defining sum over internal nodes.

    The terms min/max are grouped by denominator: each distinct node adds
    its multiplicity in the unfolded tree times min(nL, nR) to one integer
    numerator per max(nL, nR).  The (denominator, numerator) terms are
    added by :func:`_balanced_fold`, each sum put over the least common
    multiple of its two denominators, so every gcd works on numbers the
    size of the reduced result, not of the product of all denominators.
    Time and memory follow the distinct nodes, not the unfolded tree: a
    fully balanced tree of height h has h terms, a caterpillar of n leaves
    n - 1.  On a parsed 100k-leaf caterpillar it takes 0.5 to 0.7 s
    in-process (2-vCPU VM, Python 3.11).
    """
    if t.is_leaf:
        return _ZERO
    q, p = _balanced_fold(_numerators(t).items(), _add_over_lcm)
    return Fraction(p, q * (t.leaf_count - 1))


def _compose(outer: "tuple[int, int, int]", inner: "tuple[int, int, int]") -> "tuple[int, int, int]":
    """The map x -> outer(inner(x)), each map (A, B, D) being x -> (A x + B) / D,
    divided through by the gcd of its three integers."""
    a1, b1, d1 = outer
    a2, b2, d2 = inner
    a, b, d = a1 * a2, a1 * b2 + b1 * d2, d1 * d2
    g = gcd(a, b, d)
    return a // g, b // g, d // g


def _split(node: Tree) -> "tuple[Tree, Tree]":
    """The children of ``node``, heavier first; on a tie the left one."""
    # Only leaf counts matter: with equal counts the rule is symmetric, so
    # no canonical-code tie-break is needed.
    a, b = node.left, node.right
    return (a, b) if a.leaf_count >= b.leaf_count else (b, a)


def stairs2_recursive(t: Tree) -> Fraction:
    """Index of ``t`` by the root-decomposition recurrence.

    Returns the same exact value as :func:`stairs2_direct` on every tree.
    At a node with heavier child T1 (n1 >= n2 leaves) and lighter child T2
    of index p/q, the rule is the affine map of x = st(T1)

        x -> ((n1 - 1) q n1 x + (n2 - 1) p n1 + n2 q) / (q n1 (n - 1)).

    Following heavier children from a head gives a heavy path.  A node is
    on its parent's path when it has one parent and is that parent's
    heavier child; every other internal node is a head: the root, every
    lighter child, and every node with more than one parent, so each
    distinct node lies on one path.  A lighter child has at most half its
    parent's leaves, so heads nest at most log2(n) deep.  One pass over
    ``_postorder``'s list counts each node's parents; a second takes the
    heads in the same order, children first.  The maps of one path are folded by
    :func:`_balanced_fold`, head side first, each product divided by the
    gcd of its three integers, and applied once to the value at the path's
    end: a leaf, or a head below.  A path of k nodes holds a list of its
    nodes and about log2(k) maps at once; the heads' values are kept until
    the call returns.  On a
    parsed 100k-leaf caterpillar it takes 1.2 to 1.5 s in-process (2-vCPU
    VM, Python 3.11).
    """
    if t.left is None:
        return _ZERO
    # +1 from a parent that holds the node as its heavier child, +2 from one
    # that holds it as its lighter child: exactly 1 means not a head.
    order = _postorder(t)
    count: dict[int, int] = {}
    for node in order:
        for child, weight in zip(_split(node), (1, 2)):
            if child.left is not None:
                count[id(child)] = count.get(id(child), 0) + weight
    values: dict[int, Fraction] = {}

    def value(v: Tree) -> Fraction:
        return _ZERO if v.left is None else values[id(v)]

    def root_rule(node: Tree) -> "tuple[int, int, int]":
        heavy, light = _split(node)
        n1, n2 = heavy.leaf_count, light.leaf_count
        x = value(light)
        p, q = x.numerator, x.denominator
        return (n1 - 1) * q * n1, (n2 - 1) * p * n1 + n2 * q, q * n1 * (n1 + n2 - 1)

    for head in order:
        if count.get(id(head)) == 1:  # the root has no count
            continue
        path, end = [head], _split(head)[0]
        while count.get(id(end)) == 1:  # nor has a leaf
            path.append(end)
            end = _split(end)[0]
        a, b, d = _balanced_fold(map(root_rule, path), _compose)
        x = value(end)
        values[id(head)] = Fraction(a * x.numerator + b * x.denominator, d * x.denominator)
    return values[id(t)]
