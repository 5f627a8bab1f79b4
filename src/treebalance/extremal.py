"""Maximum stairs2 values and brute-force extremal verification.

Three routes to the maximum index over all n-leaf shapes:

* ``max_value_recursive``: peel off the largest power-of-two block,
* ``max_value_closed``: closed form over the binary expansion of n,
* ``max_value_even_recursion``: shortcut relating even n to n/2.

The first two are independent of each other.  The third is not: it takes
the half-size value from ``max_value_recursive``, so it checks the
doubling step rather than the whole recursion.  They must agree exactly
everywhere; the test suite holds them to that.  Each is a pure function of
n: the first two make one loop over n's set bits, O(popcount n) integer
steps, with no memo, so nothing is kept between calls.  Their loops are
the private ``_recursive_ratio`` and ``_closed_ratio``, which return the
unreduced integer pair (numerator, (n - 1) << top), top = floor(log2 n):
both share that denominator, so ``table`` compares the two numerators and
reduces once, and the public functions are ``Fraction`` of the pair.

``table`` takes both columns from sweeps over its rows, cut into runs by
one walker, ``_runs(lo, hi)``: up to ``_CHUNK_ROWS`` rows of one
top = floor(log2 n) whose remainders n - 2**top have one bit length.
Each sweep yields one array of numerators per run, and ``table`` gives
them the shared denominator (n - 1) << top and row 1 its value 0.
``_recursive_numerators`` makes one peeling step per row from a row
before it, the same shift for every row of a run, by C-level ``map``s
over the slice of earlier rows the run reads; it holds one array of
earlier rows for the length of its call.  ``_closed_numerators``
evaluates the closed form for every row of a run at once, side by side
in the 64-bit fields of one integer ("SIMD within a register"): a step
per bit position serves the whole run.  ``_closed_ratio`` runs the same
steps on n alone, so the closed form has one implementation.  Neither
sweep reads the other's values, so the cross-check stays independent,
and the public functions still keep nothing between calls.

``verify_extremal`` is the ground truth at small n: it scores every shape
of each leaf count up to a bound once, exactly, and reports per count
whether the maximizer is unique and is the echelon tree, whether the
minimizer is unique and is the caterpillar, and whether both root
subtrees of every maximizer attain the maximum for their own sizes.
That maximum is the enumerated one, the largest score among the shapes
of that size, so the check uses none of the three formulas.  It builds
no tree per shape: the scores of each size are one signed 64-bit array,
8 bytes a score, in the enumeration order of ``shapes.split_blocks``, and
each split's block of them is summed from the arrays of its two child
sizes by C-level iterators.  Only the argmax and argmin entries become
trees, decoded from their index by ``_split_at``.
"""

import math
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter

from .families import caterpillar, echelon
from .shapes import DEFAULT_ENUM_BOUND, check_leaf_count, root_splits, split_blocks
from .tree import LimitError, Tree, canonical

# The largest max_n whose scores fit a signed 64-bit array: none exceeds
# lcm(1..max_n-1) * (max_n - 1), which passes 2**63 at max_n = 44.
MAX_VERIFY_N = 43
#: Most rows a run holds.  ``_closed_numerators`` packs a run into one
#: integer, 8 KB of fields: from 512 rows up a run takes as long per row,
#: and over rows 1..200000 the sweep's traced peak is 97 KB at 1024 rows
#: and 384 KB at 4096.  ``_recursive_numerators`` maps over them.
_CHUNK_ROWS = 1024


def _recursive_ratio(n: int) -> "tuple[int, int]":
    """The recursive maximum for n as an unreduced (numerator, (n - 1) << top) pair."""
    if n < 0:
        raise ValueError("leaf count must be non-negative")
    if n <= 1:
        return 0, 1
    scaled = prefix = 0
    rest = n
    while rest:
        k = rest & -rest
        top = k.bit_length() - 1
        # N(2**top + prefix) from N(prefix), for 0 <= prefix < 2**top.
        scaled = (((1 << top) - 1) << top) + prefix + (scaled << (top + 1 - prefix.bit_length()))
        prefix += k
        rest ^= k
    return scaled, (n - 1) << top


def _runs(lo: int, hi: int) -> "Iterator[tuple[int, int, int, int]]":
    """Yield (n, end, top, w) for the runs of rows n..end that cover max(lo, 2)..hi.

    Every row of a run has top = floor(log2 n), and every remainder
    n - 2**top has the bit length w; a run holds at most ``_CHUNK_ROWS``
    rows.  Both sweeps walk these runs, and the row n of a run has the
    denominator (n - 1) << top.
    """
    n = max(lo, 2)
    while n <= hi:
        top = n.bit_length() - 1
        base = 1 << top
        w = (n - base).bit_length()
        end = min(hi, n + _CHUNK_ROWS - 1, base + (1 << w) - 1)
        yield n, end, top, w
        n = end + 1


def _recursive_numerators(lo: int, hi: int) -> "Iterator[array]":
    """Yield the numerators of ``_recursive_ratio`` for each run of ``_runs(lo, hi)``.

    Row n peels down to r = n - 2**top, which an earlier row gave when
    r >= lo and ``_recursive_ratio`` gives otherwise.  Over a run, whose r
    have one bit length w, the peeling step is

        N(n) = ((2**top - 1) << top) + r + (N(r) << (top + 1 - w)),

    the same shift for every row, so a run takes C-level ``map``s over the
    slice of earlier rows it peels down to, into a signed 64-bit array.
    Only the rows that a later row peels down to are kept, written back a
    run at a time by slice assignment: n is some row's r when
    n + 2**(bit length of n) <= hi.  That sum grows with n, so these rows
    run from lo to the largest such n, ``last``, whose bit length b is the
    largest with 2**(b - 1) + 2**b <= hi: the bit length of hi // 3.  They
    go in one signed 64-bit array, allocated once at its full size.  Every
    N(n) < n**2 fits while hi < 2**31, and rows 0 and 1, whose N is 0, are
    kept as the zeros they start as.  Needs 0 <= lo.
    """
    b = (hi // 3).bit_length()
    last = min((1 << b) - 1, hi - (1 << b))
    kept = array("q", [0]) * max(0, last - lo + 1)
    for n, end, top, w in _runs(lo, hi):
        base = 1 << top
        r = n - base
        stop = end - base + 1  # the run's remainders are range(r, stop)
        split = min(max(r, lo), stop)  # and those from split on are in kept
        below = chain(
            map(itemgetter(0), map(_recursive_ratio, range(r, split))),
            kept[split - lo:stop - lo],
        )
        start = (base - 1) << top
        shifted = map((1 << top + 1 - w).__mul__, below)
        numerators = array("q", map(add, range(start + r, start + stop), shifted))
        if n <= last:
            kept[n - lo:min(end, last) - lo + 1] = numerators[:last - n + 1]
        yield numerators


def _closed_packed(packed: int, ones: int, top: int, bits: int) -> int:
    """The closed-form numerators of rows packed side by side in one integer.

    ``packed`` holds rows n of bit length top + 1 in equal fields, and
    ``ones`` holds 1 in each field; ``bits`` has every bit that some row
    has.  The numerator of :func:`max_value_closed` is (n - L) << top, L
    the number of set bits of n, plus (n mod 2**e) << (top - e) for each
    set bit e (0 at the lowest).  One step per bit position e makes that
    term and counts the bit in every field at once, selecting by masks the
    fields that have bit e.  A field ends below
    n << top < 2**(2 * top + 1), and no step takes one below 0, so nothing
    carries from field to field when the fields are that wide.
    """
    total = count = 0
    digits = f"{bits:b}"
    i = 0  # digit i is bit top - i; every row has the top bit
    while i >= 0:
        e = top - i
        have = packed & ones << e  # 2**e in a field that has bit e
        one = have >> e
        count += one
        total += (packed & have - one) << i
        i = digits.find("1", i + 1)
    return ((packed - count) << top) + total


def _closed_numerators(lo: int, hi: int) -> "Iterator[array]":
    """Yield the numerators of ``_closed_ratio`` for each run of ``_runs(lo, hi)``.

    A run's rows go into the 64-bit fields of one integer, through an
    ``array("Q")``, and ``_closed_packed`` evaluates them all; the fields
    hold every numerator while hi < 2**32.  The steps go over the bits of
    the OR of the run's rows.  No recursive value is read.
    """
    for n, end, top, _ in _runs(lo, hi):
        rows = array("Q", range(n, end + 1))
        ones = int.from_bytes(array("Q", [1]) * len(rows), sys.byteorder)
        # [n, end] shares the bits above its highest differing bit d and
        # holds every pattern below d: its OR is end | (2**d - 1).
        bits = end | ((1 << (n ^ end).bit_length()) - 1) >> 1
        packed = _closed_packed(int.from_bytes(rows, sys.byteorder), ones, top, bits)
        numerators = array("Q")
        numerators.frombytes(packed.to_bytes(len(rows) * rows.itemsize, sys.byteorder))
        yield numerators


def _closed_ratio(n: int) -> "tuple[int, int]":
    """The closed-form maximum for n as an unreduced (numerator, (n - 1) << top) pair."""
    if n < 0:
        raise ValueError("leaf count must be non-negative")
    if n <= 1:
        return 0, 1
    top = n.bit_length() - 1
    return _closed_packed(n, 1, top, n), (n - 1) << top


def max_value_recursive(n: int) -> Fraction:
    """Maximum index over n-leaf shapes, by power-of-two peeling.

    For n >= 2 with k = 2**floor(log2 n) and r = n - k:

        value(n) = ((k - 1) + (r - 1) value(r) + r/k) / (n - 1)

    with value(0) = value(1) = 0.  When n is a power of two the remainder
    term vanishes and the value is exactly 1.  Scaled by (n - 1) * k, the
    recurrence runs in integers: with N(m) = (m - 1) * 2**floor(log2 m) *
    value(m) and k_r = 2**floor(log2 r),

        N(n) = (k - 1) k + r + N(r) * (k / k_r),    N(0) = N(1) = 0,

    where k / k_r is a power of two, so the last term is a shift.  The
    remainders r are the prefixes of n's binary expansion, so one loop
    builds N up from the lowest set bit of n, adding one bit per step:
    O(popcount n) integer steps per call, no recursion, and no state kept
    between calls.  The loop is ``_recursive_ratio``, which returns N(n)
    over the denominator (n - 1) << top, top = floor(log2 n); the only
    reduction is the returned ``Fraction``.
    """
    return Fraction(*_recursive_ratio(n))


def max_value_closed(n: int) -> Fraction:
    """Same maximum, in closed form over the binary expansion of n.

    With n = 2**e1 + ... + 2**eL (e1 < ... < eL):

        (n - 1) * value = sum_i (2**e_i - 1)
                        + sum_{i<L} (2**e1 + ... + 2**e_i) / 2**e_{i+1}

    Every denominator divides 2**eL, so the sum times 2**eL is the integer

        (n - L) * 2**eL + sum_{i<L} (2**e1 + ... + 2**e_i) * 2**(eL - e_{i+1})

    which ``_closed_ratio`` returns over the denominator (n - 1) << eL;
    the only reduction is the returned ``Fraction``.  It runs the steps of
    ``_closed_packed``, which packs many n into one integer for ``table``,
    on n alone, one step per set bit.  Evaluated directly, no recursion
    and no shared state, so it serves as an independent check on
    :func:`max_value_recursive`.
    """
    return Fraction(*_closed_ratio(n))


def max_value_even_recursion(n: int) -> Fraction:
    """Maximum for even n via the half-size value.

    Doubling every leaf of a maximizer on n/2 leaves into a cherry gives
    the maximizer on n leaves, whence

        value(n) = ((n/2 - 1) value(n/2) + n/2) / (n - 1)

    Raises ValueError for odd n or n < 2.
    """
    if n < 2 or n % 2:
        raise ValueError("the even recursion needs an even n >= 2")
    half = n // 2
    return ((half - 1) * max_value_recursive(half) + half) / Fraction(n - 1)


class ExtremalReport(
    namedtuple(
        "ExtremalReport",
        "n shape_count max_value min_value max_witnesses min_witnesses"
        " max_unique_and_is_echelon min_unique_and_is_caterpillar subtree_maximality_holds",
    )
):
    """Brute-force extremal summary for one leaf count.

    ``max_value`` and ``min_value`` are exact Fractions.  Witness lists
    hold canonical codes, sorted, one entry per argmax or argmin shape:
    unlabeled Newick templates such as ``"((%s,%s),(%s,%s))"``.
    The boolean flags record the expected outcome: a unique maximizer
    equal to the echelon tree, a unique minimizer equal to the
    caterpillar, and maximizers whose root subtrees are maximizers too.
    """

    __slots__ = ()


def _split_at(n: int, i: int, items: "Sequence[Sequence]") -> "tuple[tuple[int, int], ...]":
    """The children ((m1, a), (m2, b)) of entry i of the n-leaf enumeration.

    They are entry a of the m1-leaf and entry b of the m2-leaf enumeration.
    The blocks of ``shapes.split_blocks`` are walked by their sizes, read
    from the lengths of ``items[1..n-1]``; nothing else of them is read.
    """
    for m1, m2 in root_splits(n):
        c1, c2 = len(items[m1]), len(items[m2])
        if m1 > m2:
            if i < c1 * c2:
                a, b = divmod(i, c2)
                return (m1, a), (m2, b)
            i -= c1 * c2
        else:
            # Equal halves: row a of the triangle pairs a with a..c1-1.
            for a in range(c1):
                if i < c1 - a:
                    return (m1, a), (m2, a + i)
                i -= c1 - a
    raise IndexError(f"no {n}-leaf shape has this index")


def _shape_at(n: int, i: int, items: "Sequence[Sequence]") -> Tree:
    """Entry i of the n-leaf enumeration as a tree, decoded by ``_split_at``."""
    if n == 1:
        return Tree()
    return Tree(*(_shape_at(m, k, items) for m, k in _split_at(n, i, items)))


def _where(row: array, value: int) -> "Iterator[int]":
    """Yield the indices of ``value`` in ``row``, by C-level scans."""
    i = -1
    for _ in range(row.count(value)):
        i = row.index(value, i + 1)
        yield i


def verify_extremal(max_n: int, bound: int = DEFAULT_ENUM_BOUND) -> Iterator[ExtremalReport]:
    """Score every shape of each leaf count n = 2..max_n; yield one report per n.

    A shape with m leaves scores its index times ``scale * (m - 1)``, where
    ``scale = lcm(1..max_n-1)``: ``scale`` times the sum of min/max child
    leaf-count ratios over its internal nodes, an integer.  So uniqueness
    is decided by exact integer equality; there is no epsilon anywhere.
    Over a root split (m1, m2) that score is ``scale * m2 // m1`` plus the
    scores of the two children, so the n-leaf scores are one array summed
    block by block from the arrays of smaller sizes, in enumeration order,
    with no tree and no Python step per shape: 8 bytes a score, which
    ``MAX_VERIFY_N`` keeps below 2**63.  Only the argmax and argmin entries
    are decoded into trees, for their canonical codes; a maximizer's root
    subtree attains its own maximum when its score is the largest of its
    size.  The arguments are checked when the first report is drawn,
    before any shape is scored: ValueError for max_n < 2, then LimitError
    for max_n > ``MAX_VERIFY_N``, then LimitError for max_n > ``bound``.
    """
    if max_n < 2:
        raise ValueError("extremal verification needs at least two leaves")
    if max_n > MAX_VERIFY_N:
        raise LimitError(f"max_n={max_n} exceeds the scoring bound {MAX_VERIFY_N}")
    check_leaf_count(max_n, bound)
    scale = math.lcm(*range(1, max_n))
    # scores[m]: every m-leaf shape's score, in enumeration order.
    scores: "list[Sequence[int]]" = [(), (0,)]
    largest = [0, 0]
    for n in range(2, max_n + 1):
        blocks = (map((scale * m2 // m1).__add__, block)
                  for m1, m2, block in split_blocks(n, scores, add))
        row = array("q", chain.from_iterable(blocks))
        scores.append(row)
        best, worst = max(row), min(row)
        largest.append(best)
        max_at = list(_where(row, best))
        max_codes = tuple(sorted(canonical(_shape_at(n, i, scores)) for i in max_at))
        min_codes = tuple(sorted(canonical(_shape_at(n, i, scores)) for i in _where(row, worst)))
        yield ExtremalReport(
            n=n,
            shape_count=len(row),
            max_value=Fraction(best, scale * (n - 1)),
            min_value=Fraction(worst, scale * (n - 1)),
            max_witnesses=max_codes,
            min_witnesses=min_codes,
            max_unique_and_is_echelon=max_codes == (canonical(echelon(n)),),
            min_unique_and_is_caterpillar=min_codes == (canonical(caterpillar(n)),),
            subtree_maximality_holds=all(
                scores[m][k] == largest[m] for i in max_at for m, k in _split_at(n, i, scores)
            ),
        )
