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
rule, with T = (T1, T2), n1 >= n2, to the node sum S(T) = (n - 1) st(T):

    S(T) = S(T1) + S(T2) + n2/n1

Unrolled along a heavy path (the chain of heavier children from a head),
a head's S is the sum of S(T2) + n2/n1 over the path's nodes plus S at
the path's end.  Every internal node is a head except one with a single
parent whose heavier child it is; the function stores one sum per head
and keeps them until it returns.

Both evaluators add their terms as (denominator, numerator) pairs through
``_balanced_fold``.  Terms over a leaf count go in runs of 32 over one
``math.lcm``; the runs' sums and any stored node sums then go through one
balanced product tree (binary splitting), each sum put over the least
common multiple of its two denominators by ``_add_over_lcm``, so both
make a near-linear number of big-integer steps in the distinct nodes.  The time is not near-linear: a caterpillar's
values grow by 1.4 bits a leaf, CPython's products and gcds on them are
superlinear, and each doubling of the leaves roughly triples the time.
The two functions agree exactly on every input; keeping both gives the
test suite an internal cross-check, so they share only that addition,
which knows neither rule, and ``tree._postorder``, which lists each
distinct node once, children first.  All arithmetic is exact, in
integers and rationals, never float.
"""

from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm
from operator import floordiv, mul

from .tree import Tree, _postorder

_ZERO = Fraction(0)
#: Terms over leaf counts that ``_balanced_fold`` adds over one lcm at a time.
_RUN = 32


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
        a = node.left
        b = node.right
        na = a.leaf_count
        nb = b.leaf_count
        if na <= nb:
            numerators[nb] = numerators.get(nb, 0) + m * na
        else:
            numerators[na] = numerators.get(na, 0) + m * nb
        if a.left is not None:
            multiplicity[id(a)] = multiplicity.get(id(a), 0) + m
        if b.left is not None:
            multiplicity[id(b)] = multiplicity.get(id(b), 0) + m
    return numerators


def _add_over_lcm(s: "tuple[int, int]", u: "tuple[int, int]") -> "tuple[int, int]":
    """The sum p1/q1 + p2/q2 of two (q, p) terms, over lcm(q1, q2)."""
    (q1, p1), (q2, p2) = s, u
    g = gcd(q1, q2)
    return q1 // g * q2, p1 * (q2 // g) + p2 * (q1 // g)


def _run_sums(denominators: Iterable[int], numerators: Iterable[int]):
    """Yield (lcm, sum) for each run of up to ``_RUN`` terms, in order."""
    denominators, numerators = iter(denominators), iter(numerators)
    while run := tuple(islice(denominators, _RUN)):
        q = lcm(*run)
        yield q, sum(map(mul, map(floordiv, repeat(q), run), islice(numerators, len(run))))


def _balanced_fold(
    denominators: Iterable[int], numerators: Iterable[int], sums: "Iterable[tuple[int, int]]" = ()
) -> "tuple[int, int]":
    """The sum of numerators[i] / denominators[i] and of the (q, p) ``sums``,
    at least one term in all, as a (q, p) pair over the lcm of every q.

    The denominators are leaf counts, small, so each run of up to ``_RUN``
    of them is put over one ``math.lcm`` and summed by C-level ``map``s.
    The runs' sums and ``sums``, which may be large, are then added left
    to right by :func:`_add_over_lcm` in a balanced product tree (binary
    splitting), so no large denominator meets a sequential lcm.  A binary
    counter holds at most one partial sum per level, the sum of 2**level
    consecutive items, so k items keep about log2(k) partial sums at once
    and are read as they arrive.  The pair is the one that adding the
    terms one by one through :func:`_add_over_lcm` gives.
    """
    pending: list = []
    for item in chain(_run_sums(denominators, numerators), sums):
        level = 0
        while pending and pending[-1][0] == level:
            level, item = level + 1, _add_over_lcm(pending.pop()[1], item)
        pending.append((level, item))
    result = pending.pop()[1]
    while pending:
        result = _add_over_lcm(pending.pop()[1], result)
    return result


def stairs2_direct(t: Tree) -> Fraction:
    """Index of ``t`` by the defining sum over internal nodes.

    The terms min/max are grouped by denominator: each distinct node adds
    its multiplicity in the unfolded tree times min(nL, nR) to one integer
    numerator per max(nL, nR).  The (denominator, numerator) terms are
    added by :func:`_balanced_fold`, each sum put over the least common
    multiple of its denominators, so every gcd works on numbers the size
    of the reduced result, not of the product of all denominators.  Time
    and memory follow the distinct nodes, not the unfolded tree: a fully
    balanced tree of height h has h terms, a caterpillar of n leaves
    n - 1.
    """
    if t.is_leaf:
        return _ZERO
    numerators = _numerators(t)
    q, p = _balanced_fold(numerators, numerators.values())
    return Fraction(p, q * (t.leaf_count - 1))


def _parent_counts(order: "list[Tree]") -> "dict[int, int]":
    """For each internal child of the nodes in ``order``, by id: 1 per
    parent that holds it as its heavier child, 2 per one that holds it as
    its lighter child, so exactly 1 means it is on that parent's heavy path.

    The heavier child is the one with more leaves; on a tie the left one.
    Only leaf counts matter: with equal counts the rule is symmetric, so no
    canonical-code tie-break is needed.
    """
    count: dict[int, int] = {}
    for node in order:
        heavy = node.left
        light = node.right
        if heavy.leaf_count < light.leaf_count:
            heavy, light = light, heavy
        if heavy.left is not None:
            count[id(heavy)] = count.get(id(heavy), 0) + 1
        if light.left is not None:
            count[id(light)] = count.get(id(light), 0) + 2
    return count


def stairs2_recursive(t: Tree) -> Fraction:
    """Index of ``t`` by the root-decomposition recurrence.

    Returns the same exact value as :func:`stairs2_direct` on every tree.
    At a node with heavier child T1 (n1 >= n2 leaves) and lighter child
    T2, the node sum S = (n - 1) st of the node is S(T1) + S(T2) + n2/n1,
    where a leaf's S is 0.

    Following heavier children from a head gives a heavy path.  A node is
    on its parent's path when it has one parent and is that parent's
    heavier child; every other internal node is a head: the root, every
    lighter child, and every node with more than one parent, so each
    distinct node lies on one path.  A lighter child has at most half its
    parent's leaves, so heads nest at most log2(n) deep.  One pass over
    ``_postorder``'s list counts each node's parents
    (:func:`_parent_counts`); a second takes the heads in the same order,
    children first.  A head's walk lists each path node's n1 and n2 and
    the stored S(T2) of its internal lighter children, then S at the
    path's end, a leaf or a head below; :func:`_balanced_fold` adds them.  A
    path of k nodes holds its 2k leaf counts and about log2(k) partial
    sums at once; the heads' sums are kept until the call returns, and the
    last, the root's, is divided by n - 1.
    """
    if t.left is None:
        return _ZERO
    order = _postorder(t)
    count = _parent_counts(order)
    sums: dict[int, "tuple[int, int]"] = {}
    for head in order:
        if count.get(id(head)) == 1:  # the root has no count
            continue
        heavies: list[int] = []
        lights: list[int] = []
        below: "list[tuple[int, int]]" = []
        node = head
        while True:
            heavy = node.left
            light = node.right
            if heavy.leaf_count < light.leaf_count:
                heavy, light = light, heavy
            heavies.append(heavy.leaf_count)
            lights.append(light.leaf_count)
            if light.left is not None:
                below.append(sums[id(light)])
            if count.get(id(heavy)) != 1:  # a leaf has no count
                if heavy.left is not None:
                    below.append(sums[id(heavy)])
                break
            node = heavy
        sums[id(head)] = _balanced_fold(heavies, lights, below)
    q, p = sums[id(t)]
    return Fraction(p, q * (t.leaf_count - 1))
