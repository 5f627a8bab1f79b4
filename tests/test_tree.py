import random

import pytest
from hypothesis import given, strategies as st

from treebalance.tree import (
    Tree,
    _postorder,
    canonical,
    decompose,
    height,
    is_isomorphic,
)
from treebalance.families import caterpillar, echelon, fully_balanced

from test_families import distinct_internal_nodes
from test_newick import swapped_copy
from test_stairs2 import seeded_dag

# Random unaliased shapes, up to 32 leaves.
trees = st.recursive(st.builds(Tree), lambda sub: st.builds(Tree, sub, sub), max_leaves=32)


def cherry():
    return Tree(Tree(), Tree())


def internal_occurrences(t):
    """Number of internal vertices of the unfolded tree."""
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if node.left is not None:
            count += 1
            stack.append(node.left)
            stack.append(node.right)
    return count


class TestConstruction:
    def test_leaf(self):
        leaf = Tree()
        assert leaf.leaf_count == 1
        assert leaf.is_leaf

    def test_internal_counts_are_cached_sums(self):
        t = Tree(cherry(), Tree())
        assert t.leaf_count == 3
        assert not t.is_leaf

    def test_one_child_rejected(self):
        with pytest.raises(ValueError):
            Tree(Tree(), None)
        with pytest.raises(ValueError):
            Tree(None, Tree())



class TestDecompose:
    def test_cherry(self):
        first, second = decompose(cherry())
        assert first.is_leaf and second.is_leaf

    def test_fully_balanced_splits_into_halves(self):
        first, second = decompose(fully_balanced(2))
        assert is_isomorphic(first, fully_balanced(1))
        assert is_isomorphic(second, fully_balanced(1))

    def test_echelon_three_splits_into_cherry_and_leaf(self):
        first, second = decompose(echelon(3))
        assert is_isomorphic(first, cherry())
        assert second.is_leaf

    def test_larger_side_first(self):
        t = Tree(Tree(), cherry())  # built small-side-left on purpose
        first, second = decompose(t)
        assert (first.leaf_count, second.leaf_count) == (2, 1)

    @pytest.mark.parametrize("bad", [Tree()])
    def test_rejects_leaf_and_empty(self, bad):
        with pytest.raises(ValueError):
            decompose(bad)

    @given(trees)
    def test_recombine_preserves_shape(self, t):
        if t.leaf_count < 2:
            return
        assert is_isomorphic(Tree(*decompose(t)), t)


class TestHeight:
    def test_leaf_is_zero(self):
        assert height(Tree()) == 0

    def test_fully_balanced(self):
        assert height(fully_balanced(3)) == 3

    def test_caterpillar_four(self):
        assert height(caterpillar(4)) == 3

    def test_deep_tree_no_recursion_limit(self):
        assert height(caterpillar(5000)) == 4999


def assert_each_once_children_first(t, order):
    # With the root listed and every internal child of a listed node listed
    # (the lookup below), the list holds every node reachable from t.
    assert order[-1] is t
    assert len({id(v) for v in order}) == len(order) == distinct_internal_nodes(t)
    position = {id(v): i for i, v in enumerate(reversed(order))}
    for v in order:
        for child in (v.left, v.right):
            if child.left is not None:
                assert position[id(v)] < position[id(child)]


class TestPostorder:
    def test_shared_node_under_two_parents_is_yielded_once(self):
        s = cherry()
        a, b = Tree(s, Tree()), Tree(s, Tree())
        r = Tree(a, b)
        order = _postorder(r)
        assert len(order) == 4
        assert_each_once_children_first(r, order)

    def test_node_pushed_twice_before_its_first_expansion(self):
        # The root pushes s, then a pushes s again above it; s is expanded
        # from a's push and skipped when the root's push comes up.
        s = cherry()
        a = Tree(s, Tree())
        r = Tree(s, a)
        assert [id(v) for v in _postorder(r)] == [id(s), id(a), id(r)]

    def test_node_that_is_both_children(self):
        s = cherry()
        r = Tree(s, s)
        assert [id(v) for v in _postorder(r)] == [id(s), id(r)]

    def test_done_leaves_out_a_node_and_everything_below_it(self):
        s = cherry()
        known = Tree(s, Tree())
        r = Tree(known, cherry())
        assert [id(v) for v in _postorder(r, lambda v: v is known)] == [id(r.right), id(r)]

    def test_seeded_dags(self):
        for seed in range(30):
            t = seeded_dag(seed)
            assert_each_once_children_first(t, _postorder(t))

    def test_deep_caterpillar_needs_no_recursion(self):
        assert len(_postorder(caterpillar(10**5))) == 10**5 - 1


class TestCanonical:
    def test_leaf_atom(self):
        assert canonical(Tree()) == "%s"

    def test_child_order_irrelevant(self):
        assert canonical(Tree(Tree(), cherry())) == canonical(Tree(cherry(), Tree()))

    def test_distinct_four_leaf_shapes(self):
        assert canonical(fully_balanced(2)) != canonical(caterpillar(4))

    def test_deterministic_across_fresh_builds(self):
        assert canonical(echelon(13)) == canonical(echelon(13))

    @given(trees, st.integers(0, 2**32 - 1))
    def test_invariant_under_any_reordering(self, t, seed):
        assert canonical(swapped_copy(t, random.Random(seed))) == canonical(t)


class TestIsomorphism:
    def test_cherries(self):
        assert is_isomorphic(cherry(), cherry())

    def test_distinct_four_leaf_shapes(self):
        assert not is_isomorphic(fully_balanced(2), caterpillar(4))

    def test_echelon_at_powers_of_two_is_fully_balanced(self):
        assert is_isomorphic(echelon(8), fully_balanced(3))

    def test_equality_and_hash_follow_shape(self):
        assert echelon(8) == fully_balanced(3)
        assert cherry() != caterpillar(3)
        assert len({cherry(), Tree(Tree(), Tree()), caterpillar(3)}) == 2
        assert Tree() != 0
        assert not (Tree() == "0")


@given(trees)
def test_internal_vertices_are_leaves_minus_one(t):
    assert internal_occurrences(t) == t.leaf_count - 1


@pytest.mark.parametrize("t", [fully_balanced(5), echelon(29), caterpillar(40)])
def test_internal_vertices_for_generated_families(t):
    assert internal_occurrences(t) == t.leaf_count - 1
