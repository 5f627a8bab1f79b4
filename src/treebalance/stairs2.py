"""The stairs2 balance index, computed two independent ways.

For a tree T with n >= 2 leaves the index is

    st(T) = (1 / (n - 1)) * sum over internal nodes v of min(nL, nR) / max(nL, nR)

where nL and nR are the leaf counts of v's two child subtrees; trees with
at most one leaf (including the empty tree) score 0.  The index lies in
(0, 1] and equals 1 exactly for fully balanced trees.

``stairs2_direct`` evaluates the defining sum in a single post-order pass.
``stairs2_recursive`` instead applies the equivalent root-decomposition
rule, with T = (T1, T2), n1 >= n2:

    st(T) = ((n1 - 1) st(T1) + (n2 - 1) st(T2) + n2/n1) / (n1 + n2 - 1)

which also holds when T2 is the empty tree (its term vanishes).  The two
functions agree exactly on every input; keeping both gives the test suite
an internal cross-check.  All arithmetic is exact rational, never float.
"""

from fractions import Fraction

from .tree import Tree

_ZERO = Fraction(0)


def stairs2_direct(t: Tree) -> Fraction:
    """Index of ``t`` by the defining sum over internal nodes.

    One post-order traversal, O(n) exact rational operations on a plain
    tree; shared subtrees are evaluated once and their sums reused.
    """
    if t.leaf_count <= 1:
        return _ZERO
    # sums[id(node)] = sum of min/max leaf-count ratios over node's subtree
    sums: dict[int, Fraction] = {}
    stack = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if node.left is None or id(node) in sums:
            continue
        if ready:
            a, b = node.left, node.right
            na, nb = a.leaf_count, b.leaf_count
            ratio = Fraction(na, nb) if na <= nb else Fraction(nb, na)
            sums[id(node)] = sums.get(id(a), _ZERO) + sums.get(id(b), _ZERO) + ratio
        else:
            stack.append((node, True))
            stack.append((node.left, False))
            stack.append((node.right, False))
    return sums[id(t)] / (t.leaf_count - 1)


def stairs2_recursive(t: Tree) -> Fraction:
    """Index of ``t`` by the root-decomposition recurrence.

    Returns the same exact value as :func:`stairs2_direct` on every tree.
    """
    if t.leaf_count <= 1:
        return _ZERO
    values: dict[int, Fraction] = {}
    stack = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if node.left is None or id(node) in values:
            continue
        if ready:
            # Only leaf counts matter: with equal counts the recurrence is
            # symmetric, so no canonical-code tie-break is needed.
            big, small = node.left, node.right
            if big.leaf_count < small.leaf_count:
                big, small = small, big
            n1, n2 = big.leaf_count, small.leaf_count
            st1 = values.get(id(big), _ZERO)
            st2 = values.get(id(small), _ZERO)
            values[id(node)] = ((n1 - 1) * st1 + (n2 - 1) * st2 + Fraction(n2, n1)) / (
                n1 + n2 - 1
            )
        else:
            stack.append((node, True))
            stack.append((node.left, False))
            stack.append((node.right, False))
    return values[id(t)]
