"""Expected outputs for every operation, computed without ``treebalance``.

Each value comes from a route the timed code does not take:

* caterpillar: H(n-1) / (n-1), the harmonic number by binary splitting;
* fully balanced: exactly 1;
* echelon: the maximum value, by our own integer closed form;
* Yule and PDA trees: the sum of min/max over the generator's own splits;
* ``table`` and ``max-value``: our own integer closed form;
* ``verify`` and ``enumerate``: shape counts from our own pairing
  recurrence, and shapes listed by our own canonical-code enumeration.

Decimal rendering is redone in integer arithmetic.  Two defects of the
program are known and predicted here, so they count as failures without
making the run incorrect: an exact value with more than 4300 decimal
digits trips Python's int-to-str guard (exit 2), and ``max-value`` on an N
with about a thousand set bits overflows the recursion limit.
"""

import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import NamedTuple

# Python's default int-to-str limit; the benchmark itself prints past it.
INT_STR_DIGITS = 4300
# max_value_recursive recurses once per set bit under the default limit of
# 1000 frames; well above this many set bits, max-value fails.
RECURSION_SET_BITS = 1000

sys.set_int_max_str_digits(0)


def rational_sum(terms: "list[tuple[int, int]]") -> "tuple[int, int]":
    """Exact sum of ``num/den`` terms by pairwise (binary-splitting) merging."""
    if not terms:
        return 0, 1
    level = list(terms)
    while len(level) > 1:
        merged = []
        for i in range(0, len(level) - 1, 2):
            (a, b), (c, d) = level[i], level[i + 1]
            g = gcd(b, d)
            merged.append((a * (d // g) + c * (b // g), b // g * d))
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]


def index_from_splits(splits: "list[tuple[int, int]]") -> Fraction:
    """stairs2 from a tree's (left, right) leaf counts at each internal node."""
    if not splits:
        return Fraction(0)
    by_den: Counter = Counter()
    for (a, b), k in Counter(splits).items():
        lo, hi = min(a, b), max(a, b)
        g = gcd(lo, hi)
        by_den[hi // g] += k * (lo // g)
    num, den = rational_sum([(p, q) for q, p in by_den.items()])
    return Fraction(num, den * len(splits))


def caterpillar_index(n: int) -> Fraction:
    """H(n-1) / (n-1): every internal node of a caterpillar splits 1 : k."""
    if n < 2:
        return Fraction(0)
    num, den = rational_sum([(1, k) for k in range(1, n)])
    return Fraction(num, den * (n - 1))


def max_value(n: int) -> Fraction:
    """Maximum stairs2 over n-leaf shapes, in integers over the binary expansion.

    With n = 2**e1 + ... + 2**eL (e1 < ... < eL), scaling by 2**eL turns
    (n-1) * value = sum (2**ei - 1) + sum_{i<L} (2**e1 + ... + 2**ei) / 2**e(i+1)
    into one integer numerator.
    """
    if n <= 1:
        return Fraction(0)
    exps = [e for e in range(n.bit_length()) if n >> e & 1]
    top = exps[-1]
    num = sum((1 << e) - 1 for e in exps) << top
    prefix = 0
    for e, nxt in zip(exps, exps[1:]):
        prefix += 1 << e
        num += prefix << (top - nxt)
    return Fraction(num, (n - 1) << top)


def shape_counts(m: int) -> "list[int]":
    """w[n] for n = 0..m by the pairing recurrence (w[0] unused)."""
    w = [0, 1]
    for n in range(2, m + 1):
        total = sum(w[i] * w[n - i] for i in range(1, (n - 1) // 2 + 1))
        if n % 2 == 0:
            total += w[n // 2] * (w[n // 2] + 1) // 2
        w.append(total)
    return w


def shape_codes(m: int) -> "list[str]":
    """Every m-leaf shape as a canonical code: leaf "0", node "1" + children.

    Children come larger first, equal sizes in ascending code order.
    """
    codes = {1: ["0"]}
    for n in range(2, m + 1):
        out = []
        for n1 in range(n - 1, (n + 1) // 2 - 1, -1):
            n2 = n - n1
            if n1 > n2:
                out.extend("1" + a + b for a in codes[n1] for b in codes[n2])
            else:
                same = codes[n1]
                for i, a in enumerate(same):
                    out.extend("1" + min(a, b) + max(a, b) for b in same[i:])
        codes[n] = out
    return codes[m]


def code_to_newick(code: str) -> str:
    """Newick for a canonical code, children in code order, leaves t1, t2, ..."""
    out = []
    open_children: list[int] = []
    leaf = 0
    for ch in code:
        if ch == "1":
            out.append("(")
            open_children.append(0)
            continue
        leaf += 1
        out.append(f"t{leaf}")
        while open_children:
            open_children[-1] += 1
            if open_children[-1] == 1:
                out.append(",")
                break
            out.append(")")
            open_children.pop()
    return "".join(out) + ";"


def decimal_string(v: Fraction, digits: int = 10) -> str:
    """``digits`` significant digits, half-even, as ``decimal`` would print them."""
    if v == 0:
        return "0"
    num, den = v.numerator, v.denominator
    # a = floor(log10 v), found from bit lengths and corrected exactly.
    a = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while num * 10 ** max(-a, 0) < den * 10 ** max(a, 0):
        a -= 1
    while num * 10 ** max(-a - 1, 0) >= den * 10 ** max(a + 1, 0):
        a += 1
    shift = digits - 1 - a
    top, bottom = (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)
    q, r = divmod(top, bottom)
    if 2 * r > bottom or (2 * r == bottom and q % 2):
        q += 1
    if q == 10**digits:
        q //= 10
        a += 1
    # Decimal's own layout: fixed point unless the exponent is positive or
    # the value is below 1e-6, where it switches to scientific notation.
    s = str(q)
    if a - digits + 1 <= 0 and a >= -6:
        if a < 0:
            return "0." + "0" * (-a - 1) + s
        return s[: a + 1] + ("." + s[a + 1 :] if a + 1 < digits else "")
    return s[0] + ("." + s[1:] if digits > 1 else "") + f"E{a:+d}"


def fmt(v: Fraction) -> str:
    return f"{v} ({decimal_string(v)})"


def tree_index(spec: dict) -> Fraction:
    tree = spec["tree"]
    if tree.family == "caterpillar":
        return caterpillar_index(tree.leaves)
    if tree.family == "balanced":
        return Fraction(1)
    if tree.family == "echelon":
        return max_value(tree.leaves)
    return index_from_splits(tree.split_sizes())


def _too_long(v: Fraction) -> bool:
    return max(len(str(v.numerator)), len(str(v.denominator))) > INT_STR_DIGITS


class Expected(NamedTuple):
    """What a correct run prints, the known defect it trips, and its work units."""

    text: str
    defect: "str | None"
    units: int


def expect(spec: dict) -> Expected:
    """Expected result of one operation; units are leaves, shapes or rows."""
    kind = spec["kind"]
    if kind == "compute":
        v = tree_index(spec)
        if spec["method"] == "both":
            text = f"direct: {fmt(v)}\nrecursive: {fmt(v)}\n"
        else:
            text = f"{fmt(v)}\n"
        return Expected(text, "int-str-limit" if _too_long(v) else None, spec["tree"].leaves)
    if kind == "verify":
        m = spec["max_n"]
        w = shape_counts(m)
        lines = [
            f"n={n} shapes={w[n]} max={fmt(max_value(n))} "
            "echelon_max=ok caterpillar_min=ok subtree_max=ok"
            for n in range(2, m + 1)
        ]
        lines.append(f"verified: all checks passed for n=2..{m}")
        return Expected("\n".join(lines) + "\n", None, sum(w[2:]))
    if kind == "emit":
        codes = sorted(shape_codes(spec["n"]))
        return Expected("".join(code_to_newick(c) + "\n" for c in codes), None, len(codes))
    if kind == "table":
        lines = ["n,st2_max_exact,st2_max_decimal"]
        for n in range(spec["lo"], spec["hi"] + 1):
            v = max_value(n)
            lines.append(f"{n},{v},{decimal_string(v)}")
        return Expected("\n".join(lines) + "\n", None, len(lines) - 1)
    if kind == "maxvalue":
        n = spec["n"]
        v = max_value(n)
        names = ["recursive", "closed"] + (["even"] if n >= 2 and n % 2 == 0 else [])
        text = "".join(f"{name}: {fmt(v)}\n" for name in names)
        defect = "recursion" if bin(n).count("1") >= RECURSION_SET_BITS else None
        return Expected(text, defect, 1)
    raise ValueError(f"unknown operation kind {kind!r}")


# How each known defect shows: the exception text the program reports.
DEFECT_SIGNS = {
    "int-str-limit": "Exceeds the limit (4300 digits) for integer string conversion",
    "recursion": "RecursionError",
}


def judge(exp: Expected, rc: int, out: str, err: str) -> str:
    """Classify one run: "ok", "defect" (known and predicted), "wrong" or "error"."""
    if rc == 0:
        return "ok" if out == exp.text else "wrong"
    if exp.defect is not None and DEFECT_SIGNS[exp.defect] in err:
        return "defect"
    return "error"
