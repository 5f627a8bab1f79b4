"""Command-line front end.

Subcommands: compute, generate, max-value, verify, table, enumerate.
Exit codes are a stable contract for CI use: 0 success/verified, 1
verification or internal consistency failure, 2 usage or parse errors
and running out of memory.
All output is deterministic for a given set of flags.
"""

import argparse
import io
import os
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from .extremal import (
    max_value_closed,
    max_value_even_recursion,
    max_value_recursive,
    verify_extremal,
)
from .families import caterpillar, echelon, fully_balanced
from .newick import NewickDocument, parse_newick, write_newick, write_shapes
from .shapes import DEFAULT_ENUM_BOUND, count_shapes, enumerate_shapes
from .stairs2 import stairs2_direct, stairs2_recursive

TABLE_RANGE_CAP = 10**6
#: Most significant digits ``table --precision`` renders; ``decimal`` refuses
#: more than ``decimal.MAX_PREC``, with a traceback past the C integer range.
TABLE_PRECISION_CAP = 10**4
#: Most leaves ``generate`` writes; the unfolded output costs memory per leaf.
GENERATE_LEAF_CAP = 2**22
#: Most leaves ``enumerate`` counts; the count costs about n**3.6 bit operations.
COUNT_LEAF_CAP = 2048


def decimal_string(value: Fraction, digits: int = 10) -> str:
    """Render an exact rational to ``digits`` significant decimal digits.

    Rounding is half-even; trailing zeros are kept so the width is stable
    (1 renders as "1.000000000" at the default ten digits).  Zero renders
    as plain "0".
    """
    if digits < 1:
        raise ValueError("need at least one significant digit")
    if value == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return str(d.quantize(Decimal((0, (1,), d.adjusted() - digits + 1))))


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
        return io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8").read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _print_agreeing(values: "dict[str, Fraction]", message: str) -> int:
    """Print every named value; exit code 1 with ``message`` unless all agree."""
    for name, value in values.items():
        print(f"{name}: {_fmt(value)}")
    if len(set(values.values())) != 1:
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


def cmd_compute(args) -> int:
    doc = parse_newick(_read_input(args.input))
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
    for n in range(2, args.max_n + 1):
        r = verify_extremal(n, bound=bound)
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
        for name, value in _formula_values(n).items():
            if value != r.max_value:
                print(
                    f"error: n={n}: the {name} formula gives {value}, "
                    f"enumeration gives {r.max_value}",
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
    if args.format != "plain":
        print(sep.join(("n", "st2_max_exact", "st2_max_decimal")))
    for n in range(lo, hi + 1):
        value = max_value_recursive(n)
        if value != max_value_closed(n):
            print(f"error: recursive and closed formulas disagree at n={n}", file=sys.stderr)
            return 1
        print(sep.join((str(n), str(value), decimal_string(value, args.precision))))
    return 0


def cmd_enumerate(args) -> int:
    if args.emit_newick:
        for line in write_shapes(enumerate_shapes(args.n, _enum_bound())):
            print(line)
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
