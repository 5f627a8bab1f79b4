"""Acceptance suite: one test per headline guarantee, exact tolerances.

Every comparison is exact rational equality (zero tolerance); the only
numeric limits here are the wall-clock budgets, asserted where a budget is
part of the guarantee.  Each test prints a PASS line (visible with -s) so
the suite doubles as a human-readable checklist.
"""

import math
import time
from array import array
from fractions import Fraction

import pytest

from treebalance import extremal
from treebalance.extremal import (
    max_value_closed,
    max_value_even_recursion,
    max_value_recursive,
    verify_extremal,
)
from treebalance.families import caterpillar, echelon, fully_balanced
from treebalance.newick import NewickArityError, NewickDocument, parse_newick, write_newick
from treebalance.shapes import count_shapes, enumerate_shapes
from treebalance.stairs2 import stairs2_direct, stairs2_recursive
from treebalance.tree import canonical, is_isomorphic

SWEEP_MAX_N = 16


def _pass(message):
    print(f"[PASS] {message}")


@pytest.fixture(scope="module")
def extremal_sweep():
    """Exhaustive per-n verification reports for n = 2..16, timed once."""
    start = time.perf_counter()
    reports = {report.n: report for report in verify_extremal(SWEEP_MAX_N)}
    return reports, time.perf_counter() - start


def test_fully_balanced_trees_score_exactly_one():
    start = time.perf_counter()
    for h in range(1, 11):
        assert stairs2_direct(fully_balanced(h)) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(f"index of fully balanced trees is exactly 1 for h=1..10 ({elapsed:.3f}s)")


def test_maximizer_is_unique_and_is_the_echelon_tree(extremal_sweep):
    reports, elapsed = extremal_sweep
    for n, report in reports.items():
        assert report.max_unique_and_is_echelon, f"n={n}"
        assert len(report.max_witnesses) == 1
        assert report.max_witnesses[0] == canonical(echelon(n))
    assert elapsed < 30.0
    _pass(f"unique maximum shape = echelon tree for n=2..{SWEEP_MAX_N} ({elapsed:.2f}s sweep)")


def test_minimizer_is_unique_and_is_the_caterpillar(extremal_sweep):
    reports, _ = extremal_sweep
    for n, report in reports.items():
        assert report.min_unique_and_is_caterpillar, f"n={n}"
        assert report.min_witnesses == (canonical(caterpillar(n)),)
    _pass(f"unique minimum shape = caterpillar for n=2..{SWEEP_MAX_N}")


def test_maximizer_subtrees_attain_their_own_maxima(extremal_sweep):
    reports, _ = extremal_sweep
    for n, report in reports.items():
        assert report.subtree_maximality_holds, f"n={n}"
    _pass(f"both root subtrees of each maximizer are maximizers, n=2..{SWEEP_MAX_N}")


def test_sweep_scores_equal_the_defining_sum(monkeypatch):
    # verify_extremal scores shapes by scaled integer node-sums; this holds
    # every score it compares to the direct index, the ground truth.  A sweep
    # builds one score array per leaf count, smallest first; record them.
    recorded = []

    def recording_array(typecode, items):
        recorded.append(array(typecode, items))
        return recorded[-1]

    monkeypatch.setattr(extremal, "array", recording_array)
    for _ in verify_extremal(SWEEP_MAX_N):
        pass
    assert len(recorded) == SWEEP_MAX_N - 1
    scale = math.lcm(*range(1, SWEEP_MAX_N))
    shapes_checked = 0
    for n, scores in enumerate(recorded, start=2):
        assert len(scores) == count_shapes(n)
        for shape, score in zip(enumerate_shapes(n), scores):
            assert Fraction(score, scale * (n - 1)) == stairs2_direct(shape)
            shapes_checked += 1
    _pass(f"sweep scores equal the defining sum on all {shapes_checked} shapes, n=2..{SWEEP_MAX_N}")


def test_three_maximum_formulas_agree_exactly():
    start = time.perf_counter()
    for n in range(4097):
        recursive = max_value_recursive(n)
        assert recursive == max_value_closed(n), f"n={n}"
        if n >= 2 and n % 2 == 0:
            assert recursive == max_value_even_recursion(n), f"n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass(f"recursive, closed, and even-n formulas agree for n=0..4096 ({elapsed:.2f}s)")


def test_echelon_construction_attains_the_formula_maximum():
    for n in range(1, 4097):
        assert stairs2_direct(echelon(n)) == max_value_recursive(n), f"n={n}"
    _pass("index of echelon(n) equals the formula maximum for n=1..4096")


def test_direct_and_recursive_index_agree_on_every_small_shape():
    shapes_checked = 0
    for n in range(1, 13):
        for shape in enumerate_shapes(n):
            assert stairs2_direct(shape) == stairs2_recursive(shape)
            shapes_checked += 1
    assert shapes_checked == sum(count_shapes(n) for n in range(1, 13))
    _pass(f"definition and recurrence agree on all {shapes_checked} shapes with n<=12")


def test_spot_maxima_confirmed_by_brute_force():
    expected = {
        3: Fraction(3, 4),
        5: Fraction(13, 16),
        6: Fraction(9, 10),
        2: Fraction(1),
        4: Fraction(1),
        8: Fraction(1),
        16: Fraction(1),
    }
    for n, value in expected.items():
        brute = max(stairs2_direct(shape) for shape in enumerate_shapes(n))
        assert brute == value, f"n={n}"
    _pass("spot maxima 3/4, 13/16, 9/10 and 1 at powers of two match brute force")


def test_enumeration_is_complete_and_free_of_duplicates():
    for n in range(1, 15):
        codes = [canonical(shape) for shape in enumerate_shapes(n)]
        assert len(codes) == count_shapes(n), f"n={n}"
        assert len(set(codes)) == len(codes), f"n={n}"
    _pass("enumeration matches the counting recurrence with distinct codes, n=1..14")


def test_newick_round_trip_preserves_every_small_shape():
    for n in range(1, 11):
        for shape in enumerate_shapes(n):
            parsed = parse_newick(write_newick(NewickDocument(shape)))
            assert is_isomorphic(parsed.shape, shape)
    for bad in ("(A,B,C);", "(A,(B,C,D));", "(A);"):
        with pytest.raises(NewickArityError) as exc:
            parse_newick(bad)
        assert exc.value.offset >= 0
    _pass("Newick write/parse round-trips all shapes with n<=10; non-binary input rejected")
