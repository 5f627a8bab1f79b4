"""The stairs2 balance index, computed two independent ways.

For a tree T with n >= 2 leaves the index is

    st(T) = (1 / (n - 1)) * sum over internal nodes v of min(nL, nR) / max(nL, nR)

where nL and nR are the leaf counts of v's two child subtrees; a lone
leaf scores 0.  The index lies in (0, 1] and equals 1 exactly for fully
balanced trees.

``stairs2_direct`` evaluates the defining sum over the distinct internal
nodes, each term weighted by how often its node occurs in the unfolded
tree, so a subtree shared by several parents, as the parser and the
family generators share equal subtrees, is summed once.
``stairs2_recursive`` instead applies the equivalent root-decomposition
rule, with T = (T1, T2), n1 >= n2:

    st(T) = ((n1 - 1) st(T1) + (n2 - 1) st(T2) + n2/n1) / (n1 + n2 - 1)

The two functions agree exactly on every input; keeping both gives the
test suite an internal cross-check.  All arithmetic is exact, in
integers and rationals, never float.
"""

from fractions import Fraction

from .tree import Tree, _fold, _postorder

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
    an odd one over (binary splitting), and the sum is reduced once.  Time
    and memory follow the distinct nodes, not the unfolded tree: a fully
    balanced tree of height h has h terms, a caterpillar of n leaves n - 1.
    """
    if t.is_leaf:
        return _ZERO
    terms = list(_numerators(t).items())
    while len(terms) > 1:
        pairs = zip(terms[::2], terms[1::2])
        paired = [(q1 * q2, p1 * q2 + p2 * q1) for (q1, p1), (q2, p2) in pairs]
        terms = paired + terms[2 * len(paired):]
    q, p = terms[0]
    return Fraction(p, q * (t.leaf_count - 1))


def _root_rule(node: Tree, st_left: Fraction, st_right: Fraction) -> Fraction:
    """Index of ``node`` from the indices of its two children."""
    # Only leaf counts matter: with equal counts the recurrence is
    # symmetric, so no canonical-code tie-break is needed.
    n1, n2 = node.left.leaf_count, node.right.leaf_count
    if n1 < n2:
        n1, n2, st_left, st_right = n2, n1, st_right, st_left
    return ((n1 - 1) * st_left + (n2 - 1) * st_right + Fraction(n2, n1)) / (n1 + n2 - 1)


def stairs2_recursive(t: Tree) -> Fraction:
    """Index of ``t`` by the root-decomposition recurrence.

    Returns the same exact value as :func:`stairs2_direct` on every tree.
    Each distinct node is combined once and its value dropped when its last
    parent has read it, so memory follows the walk's frontier; but every
    step reduces a fresh ``Fraction``, so the time is superlinear on trees
    without repeated shapes: on a 100k-leaf caterpillar about 22 s against
    under 4 s for the direct sum (``compute``, 2-vCPU VM, Python 3.11).
    """
    return _fold(t, _ZERO, _root_rule)
