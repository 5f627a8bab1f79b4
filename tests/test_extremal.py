import math
import random
import tracemalloc
from array import array
from fractions import Fraction

import pytest

from treebalance import cli, extremal
from treebalance.extremal import (
    ExtremalReport,
    _closed_numerators,
    _closed_ratio,
    _recursive_numerators,
    _recursive_ratio,
    _runs,
    _shape_at,
    _split_at,
    max_value_closed,
    max_value_even_recursion,
    max_value_recursive,
    verify_extremal,
)
from treebalance.families import caterpillar, echelon, fully_balanced
from treebalance.newick import NewickDocument, parse_newick, write_newick
from treebalance.shapes import count_shapes, enumerate_shapes
from treebalance.tree import LimitError, Tree, canonical

# Frozen from brute force over all shapes per leaf count.
KNOWN_MAXIMA = {
    0: Fraction(0),
    1: Fraction(0),
    2: Fraction(1),
    3: Fraction(3, 4),
    4: Fraction(1),
    5: Fraction(13, 16),
    6: Fraction(9, 10),
    7: Fraction(7, 8),
    8: Fraction(1),
    9: Fraction(57, 64),
    10: Fraction(11, 12),
    11: Fraction(71, 80),
    12: Fraction(21, 22),
}


def _recursive_reference(n):
    """The docstring recurrence of max_value_recursive, one Fraction per term."""
    chain = [n]
    while chain[-1] > 1:
        chain.append(chain[-1] - (1 << (chain[-1].bit_length() - 1)))
    value = Fraction(0)
    for m in reversed(chain[:-1]):
        k = 1 << (m.bit_length() - 1)
        value = ((k - 1) + (m - k - 1) * value + Fraction(m - k, k)) / (m - 1)
    return value


def _closed_reference(n):
    """The docstring sum of max_value_closed, one Fraction per term."""
    if n <= 1:
        return Fraction(0)
    powers = [1 << e for e in range(n.bit_length()) if (n >> e) & 1]
    total = Fraction(sum(p - 1 for p in powers))
    prefix = 0
    for small, nxt in zip(powers, powers[1:]):
        prefix += small
        total += Fraction(prefix, nxt)
    return total / (n - 1)


@pytest.mark.parametrize("fn", [max_value_recursive, max_value_closed])
@pytest.mark.parametrize("n,expected", sorted(KNOWN_MAXIMA.items()))
def test_known_maxima(fn, n, expected):
    assert fn(n) == expected


@pytest.mark.parametrize("fn", [max_value_recursive, max_value_closed])
def test_negative_rejected(fn):
    with pytest.raises(ValueError):
        fn(-1)


@pytest.mark.parametrize("h", range(1, 13))
def test_powers_of_two_give_exactly_one(h):
    assert max_value_recursive(2**h) == 1
    assert max_value_closed(2**h) == 1
    assert max_value_even_recursion(2**h) == 1


def test_formulas_agree_to_2048():
    for n in range(2049):
        assert max_value_recursive(n) == max_value_closed(n)


def test_formulas_agree_with_thousands_of_set_bits():
    n = 2**4000 - 1
    assert max_value_recursive(n) == max_value_closed(n)


def test_formulas_equal_their_definitions_below_5000():
    for n in range(5000):
        assert max_value_recursive(n) == _recursive_reference(n)
        assert max_value_closed(n) == _closed_reference(n)


def test_formulas_keep_no_memory_between_calls():
    # A memo of the 14280 peeled remainders would hold tens of MB.  No other
    # test asks for n = 2**14280 - 3, so such a memo could not be warm already.
    n = 2**14280 - 3
    tracemalloc.start()
    try:
        values = [max_value_recursive(n), max_value_closed(n), max_value_even_recursion(n - 1)]
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values[0] == values[1]
    assert kept < 2**20


@pytest.mark.parametrize(
    "n",
    [2**4000 - 1, 3**600, random.Random(3000).getrandbits(3000) | 1 << 2999],
    ids=["2**4000-1", "3**600", "seeded-3000-bit"],
)
def test_formulas_equal_their_definitions_for_huge_n(n):
    assert max_value_recursive(n) == _recursive_reference(n)
    assert max_value_closed(n) == _closed_reference(n)


def _swept(sweep, lo, hi):
    """Rows max(lo, 2)..hi of ``sweep(lo, hi)`` as (numerator, (n - 1) << top) pairs."""
    pairs = []
    for (first, end, top, _), numerators in zip(_runs(lo, hi), sweep(lo, hi), strict=True):
        assert len(numerators) == end - first + 1
        pairs += zip(numerators, range((first - 1) << top, end << top, 1 << top))
    return pairs


@pytest.mark.parametrize(
    "lo,hi",
    [(0, 5000), (1020, 1030), (8000, 8192 + 2 * 4096 + 5), (131071, 135000), (999990, 1000000),
     (1, 1), (3, 2)],
)
def test_runs_cover_the_rows_in_order(lo, hi):
    rows = []
    for n, end, top, w in _runs(lo, hi):
        assert 1 <= end - n + 1 <= extremal._CHUNK_ROWS
        # Bit lengths grow with n: the ends of a run bound every row of it.
        for m in (n, end):
            assert m.bit_length() - 1 == top
            assert (m - (1 << top)).bit_length() == w
        rows += range(n, end + 1)
    assert rows == list(range(max(lo, 2), hi + 1))


def test_table_range_is_within_the_sweeps_bound():
    # Both sweeps hold a row's numerator in a 64-bit field, which every
    # row below 2**31 fits.
    assert cli.TABLE_RANGE_CAP < 2**31


@pytest.mark.parametrize(
    "lo,hi",
    [
        (1, 5000),
        (0, 40),
        (600, 1700),  # straddles 1024: rows past 1624 read rows of the range itself
        (1024, 1024),
        (30000, 140000),  # straddles 65536 and 131072
        (65000, 66100),
        (999990, 1000000),
        (0, 0),
        (1, 1),
        (777, 777),
        (65535, 65535),
        (3, 2),
        (1020, 1030),  # lo inside a run, then across 1024
        (1023, 2049),  # every remainder bit length of top 10, lo = last
        (65530, 65540),  # lo > last: every row read is swept below lo, unprinted
        (98299, 98309),  # the remainder's bit length goes from 15 to 16
        (131071, 135000),  # across 2**17, and a run cut at _CHUNK_ROWS rows
    ],
)
def test_table_sweep_equals_the_per_n_loop(lo, hi):
    expected = [_recursive_ratio(n) for n in range(max(lo, 2), hi + 1)]
    assert _swept(_recursive_numerators, lo, hi) == expected


def test_table_sweep_keeps_only_the_rows_peeled_down_to():
    # Of rows 1..200000, only those up to 200000 - 2**17 are some later
    # row's remainder: 551 KB as 8-byte entries, against 1.6 MB for all rows.
    tracemalloc.start()
    try:
        for _ in _recursive_numerators(1, 200000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("lo,hi", [(600, 1700), (524200, 530000), (999990, 1000000)])
def test_table_sweep_calls_no_per_n_loop(monkeypatch, lo, hi):
    # Rows below lo that the range peels down to come from the sweep itself.
    expected = [_recursive_ratio(n) for n in range(lo, hi + 1)]

    def fail(n):
        raise AssertionError("the table sweep called the per-n loop")

    monkeypatch.setattr(extremal, "_recursive_ratio", fail)
    assert _swept(_recursive_numerators, lo, hi) == expected


def test_narrow_range_at_the_cap_keeps_the_rows_below_it():
    # Rows 0..475712 are what some row up to 10**6 peels down to: 3.8 MB
    # as 8-byte entries, swept even though none of them is yielded.
    tracemalloc.start()
    try:
        for _ in _recursive_numerators(999990, 1000000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "lo,hi",
    [
        (1, 5000),
        (0, 40),
        (600, 1700),
        (1024, 1024),
        (30000, 140000),
        (65000, 66100),
        (999990, 1000000),
        (0, 0),
        (1, 1),
        (777, 777),
        (65535, 65535),
        (3, 2),
        # 4095, 4096 and 4097 rows into the 8192 rows of bit length 14: the
        # last row ends inside, ends and follows a run of _CHUNK_ROWS rows
        (8192, 8192 + 4094),
        (8192, 8192 + 4095),
        (8192, 8192 + 4096),
        (8000, 8192 + 2 * 4096 + 5),
        # the last bit lengths the table's 64-bit fields could hold
        (2**31 - 2100, 2**31 + 2100),
    ],
)
def test_closed_sweep_equals_the_per_n_pairs_and_the_definition(lo, hi):
    pairs = _swept(_closed_numerators, lo, hi)
    rows = range(max(lo, 2), hi + 1)
    assert pairs == [_closed_ratio(n) for n in rows]
    # The definition, one Fraction per term, on every row of a short range
    # and on every 97th row of a long one.
    step = 1 if hi - lo < 20000 else 97
    for i in range(0, len(rows), step):
        assert Fraction(*pairs[i]) == _closed_reference(rows[i])


def test_closed_sweep_holds_one_chunk_at_a_time():
    # A run is at most 1024 rows of 8 bytes, 8 KB per packed integer.
    # Packing all 68929 rows of bit length 18 at once takes 551 KB per integer.
    tracemalloc.start()
    try:
        for _ in _closed_numerators(1, 200000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_even_recursion_matches_to_2048():
    for n in range(2, 2049, 2):
        assert max_value_even_recursion(n) == max_value_recursive(n)


def test_maximum_is_one_exactly_at_powers_of_two():
    for n in range(2, 4097):
        value = max_value_recursive(n)
        assert value <= 1
        assert (value == 1) == (n & (n - 1) == 0)


@pytest.mark.parametrize("n", [-2, 0, 1, 3, 7, 999])
def test_even_recursion_rejects_odd_or_small(n):
    with pytest.raises(ValueError):
        max_value_even_recursion(n)


def test_even_recursion_base_cases():
    assert max_value_even_recursion(2) == 1
    assert max_value_even_recursion(4) == 1
    assert max_value_even_recursion(6) == Fraction(9, 10)


class TestVerifyExtremal:
    def test_four_leaves(self):
        *_, report = verify_extremal(4)
        assert isinstance(report, ExtremalReport)
        assert report.shape_count == 2
        assert report.max_value == 1
        assert report.min_value == Fraction(11, 18)
        assert report.max_witnesses == (canonical(fully_balanced(2)),)
        assert report.min_witnesses == (canonical(caterpillar(4)),)
        assert report.max_unique_and_is_echelon
        assert report.min_unique_and_is_caterpillar
        assert report.subtree_maximality_holds

    def test_six_leaves(self):
        *_, report = verify_extremal(6)
        assert report.shape_count == 6
        assert report.max_value == Fraction(9, 10)
        assert report.max_witnesses == (canonical(echelon(6)),)
        assert report.max_unique_and_is_echelon

    def test_eight_leaves(self):
        *_, report = verify_extremal(8)
        assert report.shape_count == 23
        assert report.max_value == 1
        assert report.max_witnesses == (canonical(fully_balanced(3)),)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_reports_are_consistent(self, n):
        *_, report = verify_extremal(n)
        assert report.n == n
        assert report.shape_count == count_shapes(n)
        assert report.max_value == max_value_recursive(n)
        assert report.max_unique_and_is_echelon
        assert report.min_unique_and_is_caterpillar
        assert report.subtree_maximality_holds

    def test_needs_two_leaves(self):
        with pytest.raises(ValueError):
            next(verify_extremal(1))

    def test_enumeration_bound(self):
        # max_n is checked against the bound once, before the first report.
        with pytest.raises(LimitError, match="n=19 exceeds the enumeration bound 18"):
            next(verify_extremal(19))
        with pytest.raises(LimitError, match="n=5 exceeds the enumeration bound 4"):
            next(verify_extremal(5, bound=4))
        assert [r.n for r in verify_extremal(4, bound=4)] == [2, 3, 4]

    def test_scoring_bound(self):
        # Past it the largest score, lcm(1..max_n-1) * (max_n - 1), passes 2**63.
        top = extremal.MAX_VERIFY_N
        assert math.lcm(*range(1, top)) * (top - 1) < 2**63 <= math.lcm(*range(1, top + 1)) * top
        with pytest.raises(LimitError):
            next(verify_extremal(top + 1, bound=top + 1))
        assert next(verify_extremal(top, bound=top)) == next(verify_extremal(2))

    def test_witnesses_are_templates_of_their_shapes(self):
        for report in verify_extremal(12):
            n = report.n
            names = tuple(f"t{i}" for i in range(1, n + 1))
            witnesses = ((report.max_witnesses, echelon), (report.min_witnesses, caterpillar))
            for (code,), family in witnesses:
                text = code % names + ";"
                assert text == write_newick(NewickDocument(family(n)))
                assert parse_newick(text).shape == family(n)

    def test_one_sweep_reports_every_leaf_count_as_its_own_sweep_does(self):
        sweep = list(verify_extremal(12))
        assert [r.n for r in sweep] == list(range(2, 13))
        for report in sweep:
            *_, alone = verify_extremal(report.n)
            assert report == alone

    def test_uses_no_maximum_formula(self, monkeypatch):
        expected = {n: max_value_recursive(n) for n in range(2, 13)}

        def fail(*args):
            raise AssertionError("verify_extremal evaluated a maximum-value formula")

        for name in ("max_value_recursive", "max_value_closed", "max_value_even_recursion",
                     "_recursive_ratio", "_recursive_numerators", "_closed_ratio",
                     "_closed_numerators", "_closed_packed", "_runs"):
            monkeypatch.setattr(extremal, name, fail)
        for n, value in expected.items():
            *_, report = verify_extremal(n)
            assert report.max_value == value
            assert report.max_unique_and_is_echelon
            assert report.min_unique_and_is_caterpillar
            assert report.subtree_maximality_holds

    def test_subtree_check_can_fail(self, monkeypatch):
        # Raise the 6-leaf entry (caterpillar(5), leaf) above the rest: its
        # 5-leaf child is not maximal for its size, so the "maximizer" breaks
        # subtree maximality, and it is not the echelon tree either.  The
        # (5, 1) split is the first block and a leaf count has one shape, so
        # the entry's index is the caterpillar's index among the 5-leaf shapes.
        cat5 = canonical(caterpillar(5))
        at = next(i for i, t in enumerate(enumerate_shapes(5)) if canonical(t) == cat5)
        sizes = iter(range(2, 7))

        def raising_array(typecode, items):
            scores = array(typecode, items)
            if next(sizes) == 6:
                scores[at] = max(scores) + 1
            return scores

        monkeypatch.setattr(extremal, "array", raising_array)
        *_, report = verify_extremal(6)
        assert report.shape_count == 6
        assert report.max_witnesses == (canonical(Tree(caterpillar(5), Tree())),)
        assert not report.subtree_maximality_holds
        assert not report.max_unique_and_is_echelon

    def test_tied_scores_give_every_witness(self, monkeypatch):
        # With every 6-leaf score equal, each shape is an argmax and an argmin.
        sizes = iter(range(2, 7))

        def flat_array(typecode, items):
            scores = array(typecode, items)
            return array(typecode, [0]) * len(scores) if next(sizes) == 6 else scores

        monkeypatch.setattr(extremal, "array", flat_array)
        *_, report = verify_extremal(6)
        every = tuple(sorted(canonical(t) for t in enumerate_shapes(6)))
        assert report.max_witnesses == report.min_witnesses == every
        assert not report.max_unique_and_is_echelon
        assert not report.min_unique_and_is_caterpillar

    def test_decoded_shapes_are_the_enumerated_ones(self):
        items = [(), *(enumerate_shapes(m) for m in range(1, 13))]
        for n in range(2, 13):
            decoded = [canonical(_shape_at(n, i, items)) for i in range(len(items[n]))]
            assert decoded == [canonical(t) for t in items[n]], f"n={n}"
            with pytest.raises(IndexError):
                _split_at(n, len(items[n]), items)

    def test_sweep_holds_a_few_bytes_per_shape(self):
        # 8 bytes a score, about 0.8 MB of arrays for the 100k shapes of 2..18
        # leaves; a tree and a dict slot per shape came to 12.8 MB.
        tracemalloc.start()
        try:
            for _ in verify_extremal(18):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_sweep_fills_no_shape_cache(self, no_tree):
        # The sweep scores without enumerating shapes as trees.
        *_, report = verify_extremal(12)
        assert report.n == 12 and report.shape_count == count_shapes(12)
        assert report.max_unique_and_is_echelon and report.min_unique_and_is_caterpillar
        assert report.subtree_maximality_holds
