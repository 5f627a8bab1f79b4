import pytest

from treebalance.families import caterpillar, echelon, fully_balanced
from treebalance.tree import Tree, canonical, decompose, height, is_isomorphic


def leaf_depths(t):
    depths = set()
    stack = [(t, 0)]
    while stack:
        node, d = stack.pop()
        if node.left is None:
            depths.add(d)
        else:
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return depths


def distinct_internal_nodes(t):
    """Number of internal node objects reachable from ``t``, by identity."""
    seen = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if node.left is not None and id(node) not in seen:
            seen.add(id(node))
            stack.extend((node.left, node.right))
    return len(seen)


def echelon_by_definition(n):
    """The fully balanced block on the power of two k, n/2 <= k < n, with
    the echelon tree on n - k leaves, built by plain recursion."""
    if n == 1:
        return Tree()
    k = 1 << (n.bit_length() - 1)
    if k == n:
        k //= 2
    return Tree(fully_balanced(k.bit_length() - 1), echelon_by_definition(n - k))


def cherry_expanded(t):
    """Replace every leaf with a cherry."""
    if t.left is None:
        return Tree(Tree(), Tree())
    return Tree(cherry_expanded(t.left), cherry_expanded(t.right))


class TestFullyBalanced:
    def test_height_zero_is_leaf(self):
        assert fully_balanced(0).is_leaf

    def test_height_one_is_cherry(self):
        t = fully_balanced(1)
        assert t.leaf_count == 2 and height(t) == 1

    def test_all_leaves_at_exact_depth(self):
        t = fully_balanced(3)
        assert t.leaf_count == 8
        assert leaf_depths(t) == {3}

    def test_recursive_structure(self):
        t = fully_balanced(4)
        first, second = decompose(t)
        assert is_isomorphic(first, fully_balanced(3))
        assert is_isomorphic(second, fully_balanced(3))

    @pytest.mark.parametrize("h", range(21))
    def test_leaf_count_is_power_of_two(self, h):
        assert fully_balanced(h).leaf_count == 2**h

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            fully_balanced(-1)

    def test_height_bound(self):
        # No library bound: a tall tree holds one node per level.  The CLI's
        # generate, which writes every leaf, refuses h > 22 (test_cli).
        t = fully_balanced(64)
        assert t.leaf_count == 2**64
        assert distinct_internal_nodes(t) == 64
        assert height(t) == 64


class TestEchelon:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            echelon(0)

    def test_one_is_leaf(self):
        assert echelon(1).is_leaf

    def test_two_is_cherry(self):
        assert is_isomorphic(echelon(2), fully_balanced(1))

    @pytest.mark.parametrize("h", range(1, 9))
    def test_powers_of_two_are_fully_balanced(self, h):
        assert is_isomorphic(echelon(2**h), fully_balanced(h))

    def test_eleven_pairs_fb3_with_echelon3(self):
        first, second = decompose(echelon(11))
        assert is_isomorphic(first, fully_balanced(3))
        assert is_isomorphic(second, echelon(3))
        assert is_isomorphic(second, Tree(Tree(Tree(), Tree()), Tree()))

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_larger_subtree_is_fb3_for_ten_to_twelve(self, n):
        first, _ = decompose(echelon(n))
        assert is_isomorphic(first, fully_balanced(3))

    def test_deterministic(self):
        for n in (3, 7, 12, 100, 257):
            assert canonical(echelon(n)) == canonical(echelon(n))

    @pytest.mark.parametrize("n", range(1, 257))
    def test_doubling_replaces_leaves_with_cherries(self, n):
        assert is_isomorphic(echelon(2 * n), cherry_expanded(echelon(n)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            echelon(-1)

    @pytest.mark.parametrize("n", [2**20, 2**20 - 1, 2**40 - 1, 10**12])
    def test_distinct_internal_nodes_are_logarithmic(self, n):
        t = echelon(n)
        assert t.leaf_count == n
        assert distinct_internal_nodes(t) <= 2 * n.bit_length()

    def test_matches_the_recursive_definition(self):
        for n in range(1, 3000):
            assert canonical(echelon(n)) == canonical(echelon_by_definition(n)), n


class TestCaterpillar:
    def test_one_is_leaf(self):
        assert caterpillar(1).is_leaf

    def test_two_is_cherry(self):
        assert is_isomorphic(caterpillar(2), fully_balanced(1))

    def test_three_is_the_unique_shape(self):
        assert is_isomorphic(caterpillar(3), echelon(3))

    def test_four_is_a_chain(self):
        t = caterpillar(4)
        assert height(t) == 3
        first, second = decompose(t)
        assert is_isomorphic(first, caterpillar(3)) and second.is_leaf

    @pytest.mark.parametrize("n", list(range(1, 30)) + [200])
    def test_height_is_leaves_minus_one(self, n):
        assert height(caterpillar(n)) == n - 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            caterpillar(0)
