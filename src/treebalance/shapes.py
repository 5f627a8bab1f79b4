"""Exhaustive enumeration of tree shapes, with an independent count.

``enumerate_shapes(n)`` returns exactly one representative per n-leaf shape
(isomorphism class).  ``count_shapes(n)`` evaluates the classic pairing
recurrence for the number of such shapes without building any trees, so
the two act as independent checks on each other:

    w(1) = 1
    w(2m + 1) = sum_{i=1..m} w(i) w(2m + 1 - i)
    w(2m)     = sum_{i=1..m-1} w(i) w(2m - i)  +  w(m) (w(m) + 1) / 2

The enumeration order is written once, in ``split_blocks(m, items,
join)``: the root splits m = m1 + m2 with m1 >= m2 >= 1, larger side
first, and per split ``join(a, b)`` for every pair of items[m1] and
items[m2], a-major when m1 > m2 and one per unordered pair
(``combinations_with_replacement``) when m1 = m2.  ``root_splits(m)``
gives the split order alone.  ``items[k]`` is any sequence with one entry
per k-leaf shape, in the caller's order; equal halves pair a <= b in it.
Here the shapes, joined by ``Tree``; in ``filled_codes`` their
canonical codes, joined as ``canonical`` joins them; in
``extremal.verify_extremal`` their scores, joined by addition.  The last
two build no tree per shape.

Each call builds its levels afresh, bottom-up, in a list of its own: the
shapes of each leaf count pair up those of smaller counts, so the shapes
of one call share subtree objects.  Nothing is kept between calls.
From n = 5 leaves on, ``filled_codes`` builds only the levels of up to
n - 3 leaves: it yields the n-leaf codes in sorted order as it pairs them,
so neither the largest level nor the two below it is ever built.
"""

from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from itertools import chain, combinations_with_replacement, repeat, starmap

from .tree import _LEAF_CODE, CanonicalCode, LimitError, Tree, _join

#: Default ceiling for shape enumeration (the CLI can raise it via the
#: TREEBALANCE_MAX_ENUM environment variable).  n = 18 means 56011 shapes.
DEFAULT_ENUM_BOUND = 18


def check_leaf_count(n: int, bound: int) -> None:
    """ValueError below one leaf, LimitError above the enumeration ``bound``."""
    if n < 1:
        raise ValueError("need at least one leaf")
    if n > bound:
        raise LimitError(f"n={n} exceeds the enumeration bound {bound}")


def root_splits(m: int) -> "Iterator[tuple[int, int]]":
    """Yield the root splits (m1, m2) of m leaves, m1 >= m2 >= 1, larger side first."""
    return ((m1, m - m1) for m1 in range(m - 1, (m - 1) // 2, -1))


def split_blocks(m: int, items: "Sequence[Sequence]", join: Callable) -> Iterator:
    """Yield (m1, m2, block) per root split of m leaves, in enumeration order.

    ``block`` gives ``join(a, b)`` for the children (a, b) of each m-leaf
    entry of the split, a from ``items[m1]`` and b from ``items[m2]``: every
    pair, a-major, when m1 > m2, and one per unordered pair when m1 = m2.
    An a-major block is one lazy pass over ``items[m1]`` per b, read in
    step, so no side is copied; each block is made only when the one before
    it is drawn.
    """
    for m1, m2 in root_splits(m):
        if m1 > m2:
            columns = [map(join, items[m1], repeat(b)) for b in items[m2]]
            yield m1, m2, chain.from_iterable(zip(*columns))
        else:
            yield m1, m2, starmap(join, combinations_with_replacement(items[m1], 2))


def _level(m: int, items: "Sequence[Sequence]", join: Callable) -> list:
    """Every m-leaf entry, ``join`` of its children, in ``split_blocks`` order."""
    return list(chain.from_iterable(block for _, _, block in split_blocks(m, items, join)))


def enumerate_shapes(n: int, bound: int = DEFAULT_ENUM_BOUND) -> "tuple[Tree, ...]":
    """Return every n-leaf shape exactly once, in a fixed deterministic order.

    The trees share subtree objects with each other, and all are
    immutable.  The arguments are checked when called: ValueError below one
    leaf, LimitError above ``bound``.
    """
    check_leaf_count(n, bound)
    shapes: "list[tuple[Tree, ...]]" = [(), (Tree(),)]
    for m in range(2, n + 1):
        shapes.append(tuple(_level(m, shapes, Tree)))
    return shapes[n]


def _size(code: CanonicalCode) -> int:
    """The leaf count of a canonical code: k leaves take 5k - 3 characters."""
    return (len(code) + 3) // 5


def filled_codes(
    n: int, names: "Sequence[str]", bound: int = DEFAULT_ENUM_BOUND, end: str = ""
) -> "Iterator[str]":
    """Every n-leaf canonical code once, in sorted order, filled with
    ``names`` and followed by ``end``; builds no tree and, from n = 5 on,
    no level above n - 3 leaves.

    ``("%s",) * n`` gives the bare codes.  The levels of 1..n-3 leaves are
    built and each sorted before the next one reads it, so on equal halves
    a <= b, ``decompose``'s tie order, and every joined string is a
    canonical code.  An n-leaf code is "(((" + c + "," + d + ")," + b +
    ")," + s + ")": its first half is f = (a, b), and f's first half is
    a = (c, d).  Codes are prefix-free, so the codes sort by c, then d, b
    and s: one sorted pass over the held codes c, each followed by the
    sorted codes d, b and s of the sizes that complete it, gives the n-leaf
    codes in order without building the levels of f or a.  On equal halves
    the later one is taken no smaller: d >= c, b >= a, s >= f.  Each c is
    filled with its names once, and what follows an a of at least n / 2
    leaves, which ties with neither its b nor its f, once per call, so most
    lines cost one concatenation.  The arguments are checked when called,
    as ``enumerate_shapes``'s are, and ``names`` must hold exactly n names
    (ValueError).
    """
    check_leaf_count(n, bound)
    names = tuple(names)
    if len(names) != n:
        raise ValueError(f"{n} leaves need {n} names, not {len(names)}")
    codes: "list[list[CanonicalCode]]" = [[], [_LEAF_CODE]]
    for m in range(2, n - 2 if n > 4 else n + 1):
        level = _level(m, codes, _join)
        level.sort()
        codes.append(level)
    if n < 5:  # a has too few leaves to be taken apart: all levels are tiny
        return iter([code % names + end for code in codes[n]])
    least_f = (n + 1) // 2  # the fewest leaves of f, a and c
    least_a = (least_f + 1) // 2
    least_c = (least_a + 1) // 2
    # A second half of m leaves comes last, so it takes the last m names.
    seconds = [[s % names[n - m :] + ")" + end for s in codes[m]] for m in range(n // 2 + 1)]

    def window(k: int, lo: int, hi: int) -> "list[tuple[CanonicalCode, int, str]]":
        # The sorted codes of lo..hi leaves that follow a half of k leaves,
        # each with its leaf count and its text from name k on, then "),".
        entries = []
        for x in sorted(chain.from_iterable(codes[lo : hi + 1])):
            m = _size(x)
            entries.append((x, m, x % names[k : k + m] + "),"))
        return entries

    bs = {j: window(j, max(1, least_f - j), min(j, n - 1 - j)) for j in range(least_a, n - 1)}
    ds = {i: window(i, max(1, least_a - i), min(i, n - 2 - i)) for i in range(least_c, n - 2)}
    # What follows an a of j >= n / 2 leaves: no b or s can tie there.
    after = {j: [b + s for _, m, b in bs[j] for s in seconds[n - j - m]] for j in range(least_f, n - 1)}

    def tied(a: CanonicalCode, j: int, head: str) -> Iterator:
        # The lines of an a of j < n / 2 leaves; head is "((", a filled, ",".
        for b, m, filled in bs[j]:
            if m == j and b < a:
                continue
            tails = seconds[n - j - m]
            if 2 * (j + m) == n:
                tails = tails[bisect_left(codes[j + m], "(" + a + "," + b + ")") :]
            yield map((head + filled).__add__, tails)

    def blocks() -> Iterator:
        for c in sorted(chain.from_iterable(codes[least_c : n - 2])):
            i = _size(c)
            head = "(((" + c % names[:i] + ","
            for d, m, filled in ds[i]:
                if m == i and d < c:
                    continue
                if i + m in after:
                    yield map((head + filled).__add__, after[i + m])
                else:
                    yield from tied("(" + c + "," + d + ")", i + m, head + filled)

    return chain.from_iterable(blocks())


def count_shapes(n: int) -> int:
    """Count n-leaf shapes by the pairing recurrence; builds no tree, keeps no state."""
    if n < 1:
        raise ValueError("need at least one leaf")
    w = [0, 1]
    for m in range(2, n + 1):
        total = sum(w[i] * w[m - i] for i in range(1, (m - 1) // 2 + 1))
        if m % 2 == 0:
            half = w[m // 2]
            total += half * (half + 1) // 2
        w.append(total)
    return w[n]
