"""Command-line front end.

Subcommands: compute, generate, max-value, verify, table, enumerate.
Exit codes are a stable contract for CI use: 0 success/verified, 1
verification or internal consistency failure, 2 usage or parse errors
and running out of memory.
All output is deterministic for a given set of flags.

A ``table`` row costs a share of two sweeps over runs of up to 1024
rows, one per formula, each a few C-level steps per run: the recursive
one maps one peeling step over the earlier rows a run reads, the closed
one works on the rows packed into one integer.  Each yields a run's
numerators; the table compares them and gives the row its denominator
(n - 1) << floor(log2 n).  Then one gcd, and one integer division and a
string slice for the decimal column, which is laid out directly, with no
``Decimal``.
The bulk outputs, ``table`` and ``enumerate --emit-newick``, are written
in blocks of about 16 KB, so an unbuffered stdout (``python -u``) does not
make one system call per line; ``verify`` prints each leaf count's line as
it is checked.
"""

import argparse
import io
import os
import sys
from fractions import Fraction
from math import gcd

from .extremal import (
    _closed_numerators,
    _recursive_numerators,
    _runs,
    max_value_closed,
    max_value_even_recursion,
    max_value_recursive,
    verify_extremal,
)
from .families import caterpillar, echelon, fully_balanced
from .newick import NewickDocument, parse_newick, write_newick
from .shapes import DEFAULT_ENUM_BOUND, count_shapes, filled_codes
from .stairs2 import stairs2_direct, stairs2_recursive

TABLE_RANGE_CAP = 10**6
#: Most significant digits ``table --precision`` renders; every row divides
#: and prints integers of that many digits.
TABLE_PRECISION_CAP = 10**4
#: Most leaves ``generate`` writes; the unfolded output costs memory per leaf.
GENERATE_LEAF_CAP = 2**22
#: Most leaves ``enumerate`` counts; the count costs about n**3.6 bit operations.
COUNT_LEAF_CAP = 2048
#: About how many characters ``_write_lines`` joins into one write.  A block's
#: lines are held until it is written; at 64 KB they added 6 % to the traced
#: peak of ``enumerate --n 17 --emit-newick`` (2.73 to 2.90 MB), at 16 KB no
#: more than at 4 KB.
_BLOCK_CHARS = 1 << 14


#: 10**i for the exponents a row at the default precision needs, and more:
#: a larger power is computed when it is needed.
_TENS = [10**i for i in range(64)]
#: log10(2) * 10**30, rounded down: close enough that ``_decimal``'s estimate
#: is off by at most the one step it corrects, at any bit length in memory.
_LOG10_2 = 301029995663981195213738894724
#: At most this many digits convert to ``str`` under any int-to-str limit
#: (the smallest limit the interpreter accepts).
_STR_SAFE_DIGITS = 640


def _ten(e: int) -> int:
    return _TENS[e] if e < 64 else 10**e


def _decimal(p: int, q: int, digits: int) -> str:
    """p/q (q > 0, p != 0) to ``digits`` significant digits, half-even.

    The rounded digits are laid out as ``str(Decimal)`` lays them out:
    plain when the last digit falls at the units place or after it and the
    rounded value is at least 1E-6, scientific otherwise.  Powers of ten up
    to 10**63 come from ``_TENS``.
    """
    c = abs(p)
    # With e the difference of the bit lengths, 2**(e - 1) < c/q < 2**(e + 1),
    # so a = floor(log10(c/q)) is the estimate from the lower bound or one
    # more.  The quotient taken with the estimate has ``digits`` digits, or
    # one more, which is cut off into the remainder.
    a = (c.bit_length() - q.bit_length() - 1) * _LOG10_2 // 10**30
    k = digits - 1 - a
    if k >= 0:
        c, r = divmod(c * _ten(k), q)
    else:
        q *= _ten(-k)
        c, r = divmod(c, q)
    top = _ten(digits)
    if c >= top:
        c, last = divmod(c, 10)
        r += last * q
        q *= 10
        k -= 1
    # 10**(digits - 1) <= c < 10**digits; round on the exact remainder.
    if 2 * r > q or (2 * r == q and c & 1):
        c += 1
        if c == top:
            c //= 10
            k -= 1
    text = str(c) if digits <= _STR_SAFE_DIGITS else _exact_str(c)
    point = digits - k  # the digits before the decimal point
    if k < 0 or point < -5:
        text = f"{text[0]}.{text[1:]}E{point - 1:+d}" if digits > 1 else f"{text}E{point - 1:+d}"
    elif point <= 0:
        text = f"0.{'0' * -point}{text}"
    elif k:
        text = f"{text[:point]}.{text[point:]}"
    return "-" + text if p < 0 else text


def decimal_string(value: Fraction, digits: int = 10) -> str:
    """Render an exact rational to ``digits`` significant decimal digits.

    Rounding is half-even; trailing zeros are kept so the width is stable
    (1 renders as "1.000000000" at the default ten digits).  Zero renders
    as plain "0".  The work is in integers: the decimal exponent is
    estimated from the two bit lengths, one ``divmod`` gives a quotient of
    ``digits`` digits or one more, which is cut off when the estimate was
    one low, and the quotient is rounded on its remainder.  Those
    digits are laid out as ``str(Decimal)`` lays them out, plain from 1E-6
    up to the last digit before the point, scientific otherwise, with no
    ``Decimal`` built.  A huge value costs one division and one int-to-str
    conversion, for which the interpreter's digit limit is lifted.
    """
    if digits < 1:
        raise ValueError("need at least one significant digit")
    if value == 0:
        return "0"
    return _decimal(value.numerator, value.denominator, digits)


def _exact_str(value) -> str:
    # An exact value can have more digits than the interpreter's int-to-str
    # guard allows (Python >= 3.10.7); lift it for this conversion only, so
    # in-process callers of main() keep their own limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _fmt(value: Fraction) -> str:
    return f"{_exact_str(value)} ({decimal_string(value)})"


def _enum_bound() -> int:
    raw = os.environ.get("TREEBALANCE_MAX_ENUM")
    if raw is None:
        return DEFAULT_ENUM_BOUND
    try:
        return int(raw)
    except ValueError:
        raise ValueError("TREEBALANCE_MAX_ENUM must be an integer") from None


def _read_input(path: str) -> str:
    # Strict UTF-8 with universal newlines either way: sys.stdin itself
    # follows the locale and may turn undecodable bytes into surrogates.
    if path == "-":
        stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
        try:
            return stdin.read()
        finally:
            # Collected while attached, the wrapper would close the buffer,
            # and with it the process's stdin.
            stdin.detach()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_lines(lines) -> None:
    """Write each line and a newline to stdout, about ``_BLOCK_CHARS`` per write.

    One ``write`` per line is one system call per line when stdout is
    unbuffered (``python -u``, ``PYTHONUNBUFFERED``).  ``sys.stdout`` is
    looked up at each write, so a redirect in force at that time gets the
    output.  If ``lines`` raises, what it gave before is written first.
    """
    block: "list[str]" = []
    size = 0
    try:
        for line in lines:
            block.append(line)
            size += len(line)
            if size >= _BLOCK_CHARS:
                block.append("")
                text = "\n".join(block)
                block, size = [], 0
                sys.stdout.write(text)
    finally:
        if block:
            block.append("")
            sys.stdout.write("\n".join(block))


def _print_agreeing(values: "dict[str, Fraction]", message: str) -> int:
    """Print every named value; exit code 1 with ``message`` unless all agree."""
    for name, value in values.items():
        print(f"{name}: {_fmt(value)}")
    if len(set(values.values())) != 1:
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


def cmd_compute(args) -> int:
    doc = parse_newick(_read_input(args.input), labels=False)
    methods = {"direct": stairs2_direct, "recursive": stairs2_recursive}
    if args.method != "both":
        print(_fmt(methods[args.method](doc.shape)))
        return 0
    values = {name: fn(doc.shape) for name, fn in methods.items()}
    return _print_agreeing(values, "direct and recursive values disagree")


def cmd_generate(args) -> int:
    takes, other = ("h", "n") if args.shape == "fb" else ("n", "h")
    if getattr(args, takes) is None:
        raise ValueError(f"--shape {args.shape} requires --{takes}")
    if getattr(args, other) is not None:
        raise ValueError(f"--shape {args.shape} does not take --{other}")
    if args.shape == "fb":
        if args.h > GENERATE_LEAF_CAP.bit_length() - 1:
            raise ValueError(f"2**{args.h} leaves is over the bound of {GENERATE_LEAF_CAP}")
        tree = fully_balanced(args.h)
    else:
        if args.n > GENERATE_LEAF_CAP:
            raise ValueError(f"{args.n} leaves is over the bound of {GENERATE_LEAF_CAP}")
        tree = echelon(args.n) if args.shape == "echelon" else caterpillar(args.n)
    print(write_newick(NewickDocument(tree)))
    return 0


def _formulas() -> dict:
    """The maximum-value formulas by ``--method`` name.

    Built on each call, so it holds whatever the module's names are bound
    to at that time.
    """
    return {
        "recursive": max_value_recursive,
        "closed": max_value_closed,
        "even": max_value_even_recursion,
    }


def _formula_values(n: int) -> "dict[str, Fraction]":
    """Every formula that applies to n >= 1; the even one needs an even n."""
    return {name: fn(n) for name, fn in _formulas().items() if name != "even" or n % 2 == 0}


def cmd_max_value(args) -> int:
    if args.n < 1:
        raise ValueError("need at least one leaf")
    if args.method != "all":
        print(_fmt(_formulas()[args.method](args.n)))
        return 0
    return _print_agreeing(_formula_values(args.n), "the formulas disagree")


def _flag(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def cmd_verify(args) -> int:
    bound = _enum_bound()
    if args.max_n < 2 or args.max_n > bound:
        raise ValueError(f"--max-n must be between 2 and {bound}")
    all_ok = True
    # H(n - 1) = harmonic / scale, in integers: the caterpillar's index
    # times n - 1, the sum of 1/k over its internal nodes' splits (k, 1).
    harmonic, scale = 0, 1
    for r in verify_extremal(args.max_n, bound=bound):
        harmonic, scale = harmonic * (r.n - 1) + scale, scale * (r.n - 1)
        print(
            f"n={r.n} shapes={r.shape_count} max={_fmt(r.max_value)} "
            f"echelon_max={_flag(r.max_unique_and_is_echelon)} "
            f"caterpillar_min={_flag(r.min_unique_and_is_caterpillar)} "
            f"subtree_max={_flag(r.subtree_maximality_holds)}"
        )
        all_ok = all_ok and (
            r.max_unique_and_is_echelon
            and r.min_unique_and_is_caterpillar
            and r.subtree_maximality_holds
        )
        for name, value in _formula_values(r.n).items():
            if value != r.max_value:
                print(
                    f"error: n={r.n}: the {name} formula gives {value}, "
                    f"enumeration gives {r.max_value}",
                    file=sys.stderr,
                )
                all_ok = False
        least = Fraction(harmonic, scale * (r.n - 1))
        if least != r.min_value:
            print(
                f"error: n={r.n}: the caterpillar gives {least}, "
                f"enumeration gives {r.min_value} as the minimum",
                file=sys.stderr,
            )
            all_ok = False
    if all_ok:
        print(f"verified: all checks passed for n=2..{args.max_n}")
        return 0
    print(f"FAILED: at least one check failed for n=2..{args.max_n}", file=sys.stderr)
    return 1


def cmd_table(args) -> int:
    lo, hi = args.from_n, args.to_n
    if not (1 <= lo <= hi <= TABLE_RANGE_CAP):
        raise ValueError(f"need 1 <= from <= to <= {TABLE_RANGE_CAP}")
    if not 1 <= args.precision <= TABLE_PRECISION_CAP:  # before the header: stdout stays empty
        raise ValueError(f"need 1 to {TABLE_PRECISION_CAP} significant digits")
    sep = {"csv": ",", "tsv": "\t", "plain": " "}[args.format]
    digits = args.precision
    disagreement = None

    def rows():
        nonlocal disagreement
        if args.format != "plain":
            yield sep.join(("n", "st2_max_exact", "st2_max_decimal"))
        if lo == 1:  # value 0; the runs start at row 2
            yield f"1{sep}0{sep}0"
        sweeps = zip(_runs(lo, hi), _recursive_numerators(lo, hi), _closed_numerators(lo, hi))
        for (first, end, top, _), numerators, closed in sweeps:
            denominators = range((first - 1) << top, end << top, 1 << top)
            for n, p, c, q in zip(range(first, end + 1), numerators, closed, denominators):
                if p != c:
                    disagreement = n
                    return
                g = gcd(p, q)
                p //= g
                q //= g
                shown = _decimal(p, q, digits)
                yield f"{n}{sep}{p}/{q}{sep}{shown}" if q != 1 else f"{n}{sep}{p}{sep}{shown}"

    _write_lines(rows())
    if disagreement is not None:
        print(f"error: recursive and closed formulas disagree at n={disagreement}", file=sys.stderr)
        return 1
    return 0


def cmd_enumerate(args) -> int:
    if args.emit_newick:
        # A code is the shape's unlabeled Newick template, one "%s" per leaf.
        names = [f"t{i}" for i in range(1, args.n + 1)]
        _write_lines(filled_codes(args.n, names, _enum_bound(), ";"))
        return 0
    if args.n > COUNT_LEAF_CAP:
        raise ValueError(f"{args.n} leaves is over the bound of {COUNT_LEAF_CAP}")
    print(_exact_str(count_shapes(args.n)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treebalance",
        description="Exact stairs2 balance index computations on rooted binary trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="index of a Newick tree (file or '-' for stdin)")
    p.add_argument("input", nargs="?", default="-", help="Newick file path, or - for stdin")
    p.add_argument(
        "--method", choices=("direct", "recursive", "both"), default="direct",
        help="evaluation route; 'both' cross-checks and fails on mismatch",
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("generate", help="emit a named tree family as Newick")
    p.add_argument("--shape", choices=("echelon", "fb", "caterpillar"), required=True)
    p.add_argument("--n", type=int, help="leaf count (echelon, caterpillar)")
    p.add_argument("--h", type=int, help="height (fb)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("max-value", help="maximum index value for a leaf count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method", choices=("recursive", "closed", "even", "all"), default="recursive",
        help="'all' evaluates every applicable formula and fails on mismatch",
    )
    p.set_defaults(func=cmd_max_value)

    p = sub.add_parser("verify", help="brute-force extremal verification per leaf count")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="maximum-value table over a range of leaf counts")
    p.add_argument("--from", type=int, required=True, dest="from_n")
    p.add_argument("--to", type=int, required=True, dest="to_n")
    p.add_argument("--format", choices=("csv", "tsv", "plain"), default="csv")
    p.add_argument("--precision", type=int, default=10, help="significant decimal digits")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("enumerate", help="count or list all shapes for a leaf count")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count-only", action="store_true", help="print the shape count (default)")
    group.add_argument("--emit-newick", action="store_true", help="print one Newick line per shape")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # NewickError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Exit 1 means a failed verification; running out is a usage limit.
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
