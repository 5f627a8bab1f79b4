import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from treebalance.families import caterpillar, echelon, fully_balanced
from treebalance.newick import NewickDocument, parse_newick, write_newick
from treebalance.shapes import enumerate_shapes
from treebalance.stairs2 import stairs2_direct, stairs2_recursive
from treebalance.tree import Tree, _postorder, canonical, height

trees = st.recursive(st.builds(Tree), lambda sub: st.builds(Tree, sub, sub), max_leaves=40)


def shared_dags(max_joins):
    """Trees whose subtrees are shared objects: each new node pairs two
    already built nodes, possibly the same node twice."""
    picks = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=max_joins)

    def build(pairs):
        nodes = [Tree()]
        for i, j in pairs:
            nodes.append(Tree(nodes[i % len(nodes)], nodes[j % len(nodes)]))
        return nodes[-1]

    return picks.map(build)


def unshared(t):
    """A copy of ``t`` in which no node has two parents (recursion depth = height)."""
    return Tree() if t.is_leaf else Tree(unshared(t.left), unshared(t.right))


def fibonacci_dag(k):
    """f[k] = Tree(f[k-1], f[k-2]) from two leaves: k - 1 internal nodes, Fib(k+1) leaves, height k - 1."""
    f = [Tree(), Tree()]
    for _ in range(2, k + 1):
        f.append(Tree(f[-1], f[-2]))
    return f[k]


def term_by_term(t):
    """The defining sum with one ``Fraction`` per node of the unfolded tree."""
    total = Fraction(0)
    stack = [t]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        na, nb = node.left.leaf_count, node.right.leaf_count
        total += Fraction(na, nb) if na <= nb else Fraction(nb, na)
        stack += (node.left, node.right)
    return total / (t.leaf_count - 1) if t.leaf_count > 1 else total


def seeded_dag(seed):
    """A DAG of 2 to 12 joins, each of two of the last four nodes built (so
    nodes are shared, and a node may be paired with itself); for every
    third seed the last join pairs the top node with itself."""
    rng = random.Random(seed)
    nodes = [Tree()]
    for _ in range(rng.randrange(2, 13)):
        nodes.append(Tree(rng.choice(nodes[-4:]), rng.choice(nodes[-4:])))
    if seed % 3 == 0:
        nodes.append(Tree(nodes[-1], nodes[-1]))
    return nodes[-1]


def distinct_denominators(t):
    return len({max(node.left.leaf_count, node.right.leaf_count) for node in _postorder(t)})


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
    # traversals must work on distinct nodes, not the unfolded tree.  Every
    # node there is both children of its parent, so it has two readers.
    t = fully_balanced(30)
    assert stairs2_direct(t) == 1
    assert stairs2_recursive(t) == 1
    assert height(t) == 30


def random_split_tree(n, seed):
    """A tree of ``n`` leaves in which every node splits its leaves at a
    uniformly random point (the Yule model), built without recursion and
    with no shared subtrees."""
    rng = random.Random(seed)
    built = []
    stack = [(n, False)]
    while stack:
        m, ready = stack.pop()
        if m == 1:
            built.append(Tree())
        elif ready:
            right = built.pop()
            built.append(Tree(built.pop(), right))
        else:
            k = rng.randrange(1, m)
            stack += [(m, True), (m - k, False), (k, False)]
    return built[0]


@pytest.mark.parametrize(
    "fn,shape",
    [
        pytest.param(fn, shape, id=fn.__name__ + suffix)
        for shape, suffix in (("caterpillar", ""), ("random split", "-random-split"))
        for fn in (stairs2_direct, stairs2_recursive)
    ],
)
def test_memory_follows_the_frontier_not_the_tree(fn, shape):
    # A caterpillar is one heavy path, and its exact partial sums and
    # composed maps reach O(n) bits, so a fold that held one per node would
    # take O(n**2) bits here; the balanced fold holds about log2(n) at once.
    # The random split tree has about 5000 heads, whose values the
    # recursive evaluation keeps until it returns: each is a lighter child
    # with at most half its parent's leaves, so together they stay small.
    t = caterpillar(15000) if shape == "caterpillar" else random_split_tree(15000, seed=1)
    tracemalloc.start()
    try:
        fn(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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


@given(shared_dags(40))
def test_direct_equals_recursive_on_shared_subtrees(t):
    assert stairs2_direct(t) == stairs2_recursive(t)


@given(shared_dags(12))
def test_sharing_does_not_change_any_value(t):
    copy = unshared(t)
    assert stairs2_direct(t) == stairs2_direct(copy)
    assert stairs2_recursive(t) == stairs2_recursive(copy)
    assert height(t) == height(copy)


@given(trees)
@example(fully_balanced(10))
@example(echelon(777))
def test_parsed_tree_values_equal_an_unshared_copy(t):
    shape = parse_newick(write_newick(NewickDocument(t))).shape
    copy = unshared(shape)
    assert stairs2_direct(shape) == stairs2_direct(copy)
    assert stairs2_recursive(shape) == stairs2_recursive(copy)


def test_fibonacci_dag():
    # Every internal node but the top two has two parents, one and two levels up.
    t = fibonacci_dag(70)
    assert stairs2_direct(t) == stairs2_recursive(t)
    assert height(t) == 69
    for k in range(2, 16):
        t = fibonacci_dag(k)
        copy = unshared(t)
        assert stairs2_direct(t) == stairs2_recursive(t) == stairs2_direct(copy) == stairs2_recursive(copy)
        assert height(t) == height(copy) == k - 1


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


def test_direct_equals_term_by_term_on_every_shape_to_twelve():
    for n in range(1, 13):
        for shape in enumerate_shapes(n):
            assert stairs2_direct(shape) == term_by_term(shape)


def test_direct_equals_term_by_term_on_seeded_dags():
    parities = set()
    for seed in range(300):
        t = seeded_dag(seed)
        assert stairs2_direct(t) == stairs2_recursive(t) == term_by_term(t)
        parities.add(distinct_denominators(t) % 2)
    # An odd count carries a term over at the first level of the product tree.
    assert parities == {0, 1}


def assert_all_agree(t):
    value = term_by_term(t)
    assert stairs2_direct(t) == stairs2_recursive(t) == value
    assert stairs2_recursive(unshared(t)) == value
    return value


def test_node_heavy_under_one_parent_and_light_under_another():
    x = caterpillar(3)
    heavy_parent = Tree(Tree(), x)
    light_parent = Tree(x, echelon(5))
    assert heavy_parent.left.leaf_count < x.leaf_count < light_parent.right.leaf_count
    assert_all_agree(Tree(heavy_parent, light_parent))
    assert_all_agree(Tree(light_parent, heavy_parent))
    # x the heavy child of two parents, with and without a third parent
    # for which it is light: either way a path stops at x's stored value.
    second_heavy_parent = Tree(x, Tree())
    assert_all_agree(Tree(heavy_parent, second_heavy_parent))
    assert_all_agree(Tree(Tree(heavy_parent, second_heavy_parent), light_parent))


def test_equal_leaf_counts_on_both_sides():
    for a, b in [
        (caterpillar(5), caterpillar(5)),
        (caterpillar(4), fully_balanced(2)),
        (echelon(6), caterpillar(6)),
    ]:
        assert a is not b and a.leaf_count == b.leaf_count
        assert assert_all_agree(Tree(a, b)) == assert_all_agree(Tree(b, a))
    for a in (caterpillar(5), echelon(7), Tree(caterpillar(3), caterpillar(3))):
        assert assert_all_agree(Tree(a, a)) == assert_all_agree(Tree(a, unshared(a)))


def test_heavy_paths_of_odd_and_even_length():
    # A caterpillar of n leaves is one heavy path of n - 1 nodes; hanging a
    # shared cherry off every node makes each map depend on a stored value.
    for n in range(2, 18):
        assert_all_agree(caterpillar(n))
        t = cherry = fully_balanced(1)
        for _ in range(n - 2):
            t = Tree(t, cherry)
        assert_all_agree(t)
