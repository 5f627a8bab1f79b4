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
integer numerator per denominator in a product tree whose partial sums
keep the least common denominator.
``stairs2_recursive`` instead applies the equivalent root-decomposition
rule, with T = (T1, T2), n1 >= n2:

    st(T) = ((n1 - 1) st(T1) + (n2 - 1) st(T2) + n2/n1) / (n1 + n2 - 1)

Given st(T2), the rule is an affine map of st(T1), so it composes the
maps along each heavy path (the chain of larger children) in a product
tree and applies the result once at the path's head.  Both run in
near-linear time in the distinct nodes.

The two functions agree exactly on every input; keeping both gives the
test suite an internal cross-check, so they share only the walk over the
distinct nodes.  All arithmetic is exact, in integers and rationals,
never float.
"""

from fractions import Fraction
from math import gcd

from .tree import Tree, _postorder

_ZERO = Fraction(0)


def _numerators(t: Tree) -> "dict[int, int]":
    """Map each denominator q = max(nL, nR) of an internal node of ``t`` to
    the sum of min(nL, nR) over the nodes of the unfolded tree with that q.

    One walk lists the distinct internal nodes, children first.  A pass in
    reverse order, parents first, adds each node's multiplicity in the
    unfolded tree to its children's (twice to a child that is both) and
    multiplicity * min(nL, nR) to its numerator.  ``t`` must not be a leaf.
    """
    multiplicity: dict[int, int] = {}
    order: list[Tree] = []
    for node in _postorder(t, lambda v: id(v) in multiplicity):
        multiplicity[id(node)] = 0
        order.append(node)
    multiplicity[id(t)] = 1
    numerators: dict[int, int] = {}
    for node in reversed(order):
        m = multiplicity.pop(id(node))
        na, nb = node.left.leaf_count, node.right.leaf_count
        lo, hi = (na, nb) if na <= nb else (nb, na)
        numerators[hi] = numerators.get(hi, 0) + m * lo
        for child in (node.left, node.right):
            if child.left is not None:
                multiplicity[id(child)] += m
    return numerators


def stairs2_direct(t: Tree) -> Fraction:
    """Index of ``t`` by the defining sum over internal nodes.

    The terms min/max are grouped by denominator: each distinct node adds
    its multiplicity in the unfolded tree times min(nL, nR) to one integer
    numerator per max(nL, nR).  The (denominator, numerator) terms are
    added in a product tree, pairing neighbours level by level and carrying
    an odd one over (binary splitting).  Each pair is put over the least
    common multiple of its denominators, so every gcd works on numbers the
    size of the reduced result, not of the product of all denominators.
    Time and memory follow the distinct nodes, not the unfolded tree: a
    fully balanced tree of height h has h terms, a caterpillar of n leaves
    n - 1.  On a parsed 100k-leaf caterpillar it takes 0.5 to 0.7 s
    in-process (2-vCPU VM, Python 3.11).
    """
    if t.is_leaf:
        return _ZERO
    terms = list(_numerators(t).items())
    while len(terms) > 1:
        paired = []
        for (q1, p1), (q2, p2) in zip(terms[::2], terms[1::2]):
            g = gcd(q1, q2)
            q1, q2 = q1 // g, q2 // g
            paired.append((q1 * q2 * g, p1 * q2 + p2 * q1))
        terms = paired + terms[2 * len(paired):]
    q, p = terms[0]
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

    Following heavier children from a head, the root or a lighter child,
    gives a heavy path; a lighter child has at most half its parent's
    leaves, so heads nest at most log2(n) deep.  The maps of one path are
    composed in a product tree, each product divided by the gcd of its
    three integers, and applied once to the value at the path's end: a
    leaf, or a node that already has one.  Every node with more than one
    parent is a head too, so each distinct node lies on one path.  Heads
    are evaluated children first, and a head's value is dropped when its
    last parent has read it.  The product tree is built as the maps
    arrive, so a path of k nodes holds about log2(k) of them at once and
    memory follows the walk's frontier.  On a parsed 100k-leaf caterpillar
    it takes 1.2 to 1.5 s in-process (2-vCPU VM, Python 3.11).
    """
    if t.left is None:
        return _ZERO
    readers: dict[int, int] = {}
    lighter: set[int] = set()
    order: list[Tree] = []
    for node in _postorder(t, lambda v: id(v) in readers):
        readers[id(node)] = 0
        order.append(node)
        for child in (node.left, node.right):
            if child.left is not None:
                readers[id(child)] += 1
        light = _split(node)[1]
        if light.left is not None:
            lighter.add(id(light))
    values: dict[int, Fraction] = {}

    def take(child: Tree) -> Fraction:
        if child.left is None:
            return _ZERO
        key = id(child)
        readers[key] -= 1
        return values[key] if readers[key] else values.pop(key)

    for head in order:
        # A node whose one reader is the parent it is the heavier child of
        # lies on that parent's path.  No parent has read ``head`` yet, so
        # its count is still complete.
        if readers[id(head)] == 1 and id(head) not in lighter:
            continue
        # A binary counter of composed maps: ``pending`` holds at most one
        # per level, the product of 2**level maps, head-side ones first.
        pending: list[tuple[int, tuple[int, int, int]]] = []
        node = head
        while node.left is not None and id(node) not in values:
            heavy, light = _split(node)
            n1, n2 = heavy.leaf_count, light.leaf_count
            x = take(light)
            p, q = x.numerator, x.denominator
            level, m = 0, ((n1 - 1) * q * n1, (n2 - 1) * p * n1 + n2 * q, q * n1 * (n1 + n2 - 1))
            while pending and pending[-1][0] == level:
                level, m = level + 1, _compose(pending.pop()[1], m)
            pending.append((level, m))
            node = heavy
        a, b, d = pending.pop()[1]
        while pending:
            a, b, d = _compose(pending.pop()[1], (a, b, d))
        x = take(node)
        values[id(head)] = Fraction(a * x.numerator + b * x.denominator, d * x.denominator)
    return values.pop(id(t))

