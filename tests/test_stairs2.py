from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treebalance.families import caterpillar, echelon, fully_balanced
from treebalance.newick import NewickDocument, parse_newick, write_newick
from treebalance.shapes import enumerate_shapes
from treebalance.stairs2 import stairs2_direct, stairs2_recursive
from treebalance.tree import Tree, canonical

trees = st.recursive(st.builds(Tree), lambda sub: st.builds(Tree, sub, sub), max_leaves=40)

# Brute-force values, frozen from exhaustive scoring of the unique shapes.
CATERPILLAR_VALUES = {
    3: Fraction(3, 4),
    4: Fraction(11, 18),
    5: Fraction(25, 48),
    8: Fraction(363, 980),
}
ECHELON_VALUES = {
    5: Fraction(13, 16),
    6: Fraction(9, 10),
    7: Fraction(7, 8),
    11: Fraction(71, 80),
}


@pytest.mark.parametrize("fn", [stairs2_direct, stairs2_recursive])
class TestSmallCases:
    def test_leaf_is_zero(self, fn):
        assert fn(Tree()) == 0

    def test_cherry_is_one(self, fn):
        assert fn(Tree(Tree(), Tree())) == 1

    def test_three_leaves(self, fn):
        assert fn(caterpillar(3)) == Fraction(3, 4)

    def test_returns_exact_rationals(self, fn):
        assert isinstance(fn(caterpillar(5)), Fraction)


@pytest.mark.parametrize("n,expected", sorted(CATERPILLAR_VALUES.items()))
def test_caterpillar_values(n, expected):
    assert stairs2_direct(caterpillar(n)) == expected
    assert stairs2_recursive(caterpillar(n)) == expected


@pytest.mark.parametrize("n,expected", sorted(ECHELON_VALUES.items()))
def test_echelon_values(n, expected):
    assert stairs2_recursive(echelon(n)) == expected
    assert stairs2_direct(echelon(n)) == expected


@pytest.mark.parametrize("h", range(1, 7))
def test_fully_balanced_scores_one(h):
    assert stairs2_direct(fully_balanced(h)) == 1
    assert stairs2_recursive(fully_balanced(h)) == 1


def test_heavily_shared_subtrees_stay_cheap():
    # fully_balanced(30) has 2**30 leaves but only 31 distinct nodes; the
    # traversals must work on distinct nodes, not the unfolded tree.
    assert stairs2_direct(fully_balanced(30)) == 1


def test_deep_tree_no_recursion_limit():
    value = stairs2_direct(caterpillar(3000))
    assert stairs2_recursive(caterpillar(3000)) == value
    assert 0 < value < Fraction(1, 100)


def test_recursive_builds_no_canonical_codes():
    # The recurrence needs only leaf counts; equal halves need no tie-break.
    text = write_newick(NewickDocument(fully_balanced(10)))
    t = parse_newick(text).shape
    assert stairs2_recursive(t) == 1
    assert t.left._code is None and t.right._code is None


@given(trees)
def test_direct_equals_recursive(t):
    assert stairs2_direct(t) == stairs2_recursive(t)


@given(trees)
def test_range_for_at_least_two_leaves(t):
    if t.leaf_count < 2:
        return
    value = stairs2_direct(t)
    assert 0 < value <= 1


def test_direct_equals_recursive_exhaustively_to_twelve():
    for n in range(1, 13):
        for shape in enumerate_shapes(n):
            assert stairs2_direct(shape) == stairs2_recursive(shape)


def test_value_one_characterizes_fully_balanced_to_twelve():
    for n in range(2, 13):
        power = n & (n - 1) == 0
        fb_code = canonical(fully_balanced(n.bit_length() - 1)) if power else None
        for shape in enumerate_shapes(n):
            if stairs2_direct(shape) == 1:
                assert power and canonical(shape) == fb_code
            else:
                assert not power or canonical(shape) != fb_code
