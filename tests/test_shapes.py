import pytest

from treebalance.families import caterpillar, echelon, fully_balanced
from treebalance.shapes import count_shapes, enumerate_shapes
from treebalance.tree import LimitError, canonical

# Frozen from an independent brute-force enumeration (n <= 14); n = 18 from
# extending the recurrence by hand.
KNOWN_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451, 983, 2179]


@pytest.mark.parametrize("n,expected", list(enumerate(KNOWN_COUNTS, start=1)) + [(18, 56011)])
def test_known_counts(n, expected):
    assert count_shapes(n) == expected


def test_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        count_shapes(0)


def test_single_leaf():
    shapes = list(enumerate_shapes(1))
    assert len(shapes) == 1 and shapes[0].is_leaf


def test_four_leaf_shapes():
    codes = {canonical(t) for t in enumerate_shapes(4)}
    assert codes == {canonical(fully_balanced(2)), canonical(caterpillar(4))}


@pytest.mark.parametrize("n", range(1, 13))
def test_complete_and_distinct(n):
    codes = [canonical(t) for t in enumerate_shapes(n)]
    assert len(codes) == count_shapes(n)
    assert len(set(codes)) == len(codes)


@pytest.mark.parametrize("n", range(2, 13))
def test_named_families_appear(n):
    codes = {canonical(t) for t in enumerate_shapes(n)}
    assert canonical(echelon(n)) in codes
    assert canonical(caterpillar(n)) in codes
    if n & (n - 1) == 0:
        assert canonical(fully_balanced(n.bit_length() - 1)) in codes


def test_first_ten_leaf_shapes_hang_off_a_nine_leaf_side():
    # Larger side first.
    first, second = enumerate_shapes(10)[:2]
    assert (first.left.leaf_count, second.left.leaf_count) == (9, 9)


def test_enumeration_order_is_repeatable():
    once = [canonical(t) for t in enumerate_shapes(7)]
    again = [canonical(t) for t in enumerate_shapes(7)]
    assert once == again


def test_bounds():
    with pytest.raises(LimitError):
        enumerate_shapes(19)
    with pytest.raises(LimitError):
        enumerate_shapes(5, bound=4)
    assert len(enumerate_shapes(5, bound=5)) == 3
    with pytest.raises(ValueError):
        enumerate_shapes(0)
    with pytest.raises(ValueError):
        enumerate_shapes(-3)


def test_bounds_are_checked_when_called(no_tree):
    # A refused call builds no tree, not even the leaf of its first level.
    with pytest.raises(LimitError):
        enumerate_shapes(19)
    with pytest.raises(ValueError):
        enumerate_shapes(-3)
