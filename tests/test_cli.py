import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from treebalance import cli, extremal
from treebalance.cli import decimal_string, main
from treebalance.extremal import max_value_recursive
from treebalance.families import caterpillar
from treebalance.newick import NewickDocument, NewickError, _parse_tokens, write_newick
from treebalance.shapes import count_shapes, enumerate_shapes
from treebalance.stairs2 import stairs2_direct
from treebalance.tree import canonical


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        # Like the real sys.stdin, a text stream over a byte buffer.
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8"))))
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _all_ones_maximum(m):
    """Maximum index on n = 2**m - 1 leaves (m >= 2), the closed form summed by hand.

    Every bit is set, so (n - 1) * value = (n - m) + sum_{i<m} (1 - 2**-i)
    = n - 2 + 2**(1 - m).
    """
    n = 2**m - 1
    return Fraction(((n - 2) << (m - 1)) + 1, (n - 1) << (m - 1))


def _reference_decimal(value, digits=10):
    """The Decimal-division rendering ``decimal_string`` replaced, kept as its reference."""
    if value == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return str(d.quantize(Decimal((0, (1,), d.adjusted() - digits + 1))))


class TestDecimalString:
    def test_default_ten_significant_digits(self):
        assert decimal_string(Fraction(1)) == "1.000000000"
        assert decimal_string(Fraction(3, 4)) == "0.7500000000"
        assert decimal_string(Fraction(13, 16)) == "0.8125000000"

    def test_zero(self):
        assert decimal_string(Fraction(0)) == "0"

    def test_rounding_is_half_even(self):
        assert decimal_string(Fraction(1, 8), 2) == "0.12"
        assert decimal_string(Fraction(3, 8), 2) == "0.38"
        assert decimal_string(Fraction(2, 3), 10) == "0.6666666667"

    def test_precision_must_be_positive(self):
        with pytest.raises(ValueError):
            decimal_string(Fraction(1, 2), 0)

    @pytest.mark.parametrize("digits", [1, 2, 10, 60, 10000])
    def test_random_fractions_of_both_signs_match_the_reference(self, digits):
        rng = random.Random(f"decimal:{digits}")
        for _ in range(300 if digits < 10000 else 30):
            num = rng.randrange(1, 2 ** rng.choice((1, 4, 20, 64, 300)))
            den = rng.choice((rng.randrange(1, 2 ** rng.choice((1, 4, 20, 64, 300))),
                              10 ** rng.randrange(40) << rng.randrange(4)))
            for value in (Fraction(num, den), Fraction(-num, den)):
                assert decimal_string(value, digits) == _reference_decimal(value, digits), value

    @pytest.mark.parametrize(
        "value,digits",
        [
            (Fraction(1, 8), 2),
            (Fraction(3, 8), 2),
            (Fraction(5, 2), 1),
            (Fraction(15, 2), 1),
            (Fraction(25, 2), 1),
            (Fraction(-25, 2), 1),
        ],
    )
    def test_ties_at_the_last_digit_match_the_reference(self, value, digits):
        assert decimal_string(value, digits) == _reference_decimal(value, digits)

    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (Fraction(99999999996, 10**11), 10, "1.000000000"),
            (Fraction(96, 100), 1, "1"),
            (Fraction(-96, 100), 1, "-1"),
            (Fraction(996), 2, "1.0E+3"),
            # Decimal's layout on either side of the next powers of ten:
            # plain down to 1E-6, scientific below it and past the digits.
            (Fraction(1, 10**6), 10, "0.000001000000000"),
            (Fraction(1, 10**7), 10, "1.000000000E-7"),
            (Fraction(-123456, 10**12), 10, "-1.234560000E-7"),
            (Fraction(12345), 3, "1.23E+4"),
        ],
    )
    def test_rounding_up_to_the_next_power_of_ten(self, value, digits, expected):
        assert decimal_string(value, digits) == _reference_decimal(value, digits) == expected

    @pytest.mark.parametrize("digits", [1, 2, 10, 60, 10000])
    def test_huge_exact_value_matches_the_reference(self, caterpillar_16000_index, digits):
        value = caterpillar_16000_index
        assert decimal_string(value, digits) == _reference_decimal(value, digits)


def _run_texts(pairs, digits):
    """The decimals of the values p/q, as the table's run renderer lays them out."""
    fmt, column = cli._decimals([p for p, _ in pairs], [q for _, q in pairs], digits)
    return [fmt % item for item in column]


class TestRunDecimals:
    """``cli._decimals``: a run's decimal column at once, held to ``_decimal``."""

    @given(
        st.lists(st.tuples(st.integers(1, 2**80), st.integers(1, 2**80)), min_size=1, max_size=6),
        st.integers(1, 700),
    )
    @example([(3, 4)], 1)
    @example([(7, 8), (191, 200)], 2)
    @example([(2017, 2048), (2033, 2048), (2, 3)], 10)
    @example([(2, 3), (19, 20), (1, 1), (1, 20), (5, 7)], 1)
    @example([(99999999996, 10**11), (3, 4)], 10)
    @example([(2, 3), (1, 11)], 1)
    @example([(3, 4), (1, 1)], 641)
    def test_equals_the_reference_renderer(self, pairs, digits):
        reduced = [(p // math.gcd(p, q), q // math.gcd(p, q)) for p, q in pairs]
        expected = [cli._decimal(p, q, digits) for p, q in reduced]
        assert _run_texts(reduced, digits) == expected
        assert _run_texts(pairs, digits) == expected

    @pytest.mark.parametrize(
        "p,q,digits,expected",
        [
            # Ties, rounded half-even: table rows 3, 7, 26, 97 and 241.
            (3, 4, 1, "0.8"),
            (7, 8, 2, "0.88"),
            (191, 200, 2, "0.96"),
            (2017, 2048, 10, "0.9848632812"),
            (2033, 2048, 10, "0.9926757812"),
            # Carries to 10**digits, a tie or not.
            (19, 20, 1, "1"),
            (39, 40, 1, "1"),
            (99999999996, 10**11, 10, "1.000000000"),
            # q == 1.
            (1, 1, 10, "1.000000000"),
            (5, 1, 1, "5"),
            # At most 0.1, also where c == 10**(digits - 1) without a tie.
            (1, 20, 1, "0.05"),
            (1, 11, 1, "0.09"),
            (96, 1000, 2, "0.096"),
            (1, 10, 3, "0.100"),
            (1, 11, 2, "0.091"),
        ],
    )
    def test_named_cases_alone_and_among_fast_rows(self, p, q, digits, expected):
        assert _run_texts([(p, q)], digits) == [expected]
        fast = [(2, 3), (5, 7)]  # in (0.1, 1) with no tie at any precision
        texts = _run_texts(fast + [(p, q)] + fast, digits)
        assert texts[2] == expected
        assert texts == [cli._decimal(a, b, digits) for a, b in fast + [(p, q)] + fast]

    @pytest.mark.parametrize("digits", [640, 641, 700])
    def test_past_the_smallest_int_to_str_limit(self, digits):
        # The fast layout converts up to 640 digits; past them every value
        # goes to _decimal, which lifts the limit for its conversion.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no int-to-str digit limit")
        pairs = [(3, 4), (2, 3), (1, 1), (2017, 2048), (1, 20), (5, 1)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            texts = _run_texts(pairs, digits)
            expected = [cli._decimal(p, q, digits) for p, q in pairs]
        finally:
            sys.set_int_max_str_digits(limit)
        assert texts == expected
        assert texts[:2] == ["0.75" + "0" * (digits - 2), "0." + "6" * (digits - 1) + "7"]


@pytest.fixture(scope="module")
def caterpillar_16000_index():
    return stairs2_direct(caterpillar(16000))


def test_exact_str_without_a_digit_limit(monkeypatch):
    # Python 3.10.0 to 3.10.6 have no int-to-str digit limit to lift.
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert cli._exact_str(Fraction(3, 4)) == "3/4"


class TestCompute:
    def test_cherry_from_stdin(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, ["compute", "-"], "(A,B);", monkeypatch)
        assert rc == 0
        assert out == "1 (1.000000000)\n"

    def test_stdin_stays_open_after_a_call(self, capsys, monkeypatch):
        # An in-process caller may run ``compute -`` again on the same stdin.
        buffer = io.BytesIO(b"(A,B);")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(buffer))
        for _ in range(2):
            buffer.seek(0)
            assert run(capsys, ["compute", "-"]) == (0, "1 (1.000000000)\n", "")
        assert not buffer.closed

    def test_three_leaves(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, ["compute", "-"], "((A,B),C);", monkeypatch)
        assert rc == 0
        assert out == "3/4 (0.7500000000)\n"

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "tree.nwk"
        path.write_text("((A,B),(C,D));\n", encoding="utf-8")
        rc, out, _ = run(capsys, ["compute", str(path)])
        assert rc == 0
        assert out == "1 (1.000000000)\n"

    def test_file_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "tree.nwk"
        path.write_bytes(b"\xef\xbb\xbf((A,B),C);\n")
        rc, out, _ = run(capsys, ["compute", str(path)])
        assert rc == 0
        assert out == "3/4 (0.7500000000)\n"

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, ["compute", "/no/such/file"])
        assert rc == 2
        assert "error" in err

    def test_both_methods_agree(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, ["compute", "-", "--method", "both"], "((A,B),C);", monkeypatch)
        assert rc == 0
        assert out == "direct: 3/4 (0.7500000000)\nrecursive: 3/4 (0.7500000000)\n"

    def test_disagreement_prints_both_and_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "stairs2_recursive", lambda t: Fraction(1, 2))
        rc, out, err = run(capsys, ["compute", "-", "--method", "both"], "((A,B),C);", monkeypatch)
        assert rc == 1
        assert out == "direct: 3/4 (0.7500000000)\nrecursive: 1/2 (0.5000000000)\n"
        assert err == "error: direct and recursive values disagree\n"

    def test_out_of_memory_is_one_line_and_exit_two(self, capsys, monkeypatch):
        def exhausted(t):
            raise MemoryError

        monkeypatch.setattr(cli, "stairs2_direct", exhausted)
        rc, out, err = run(capsys, ["compute", "-", "--method", "both"], "((A,B),C);", monkeypatch)
        assert rc == 2
        assert out == ""
        assert err == "error: out of memory\n"

    def test_recursive_method(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, ["compute", "-", "--method", "recursive"], "(A,B);", monkeypatch)
        assert rc == 0
        assert out == "1 (1.000000000)\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_exact_value_longer_than_the_int_str_limit(self, capsys, tmp_path):
        n = 12000
        path = tmp_path / "caterpillar.nwk"
        path.write_text(write_newick(NewickDocument(caterpillar(n))), encoding="utf-8")
        limit = sys.get_int_max_str_digits()
        rc, out, _ = run(capsys, ["compute", str(path)])
        assert rc == 0
        assert sys.get_int_max_str_digits() == limit
        # The index of a caterpillar is H(n-1) / (n-1).
        scale = math.lcm(*range(1, n))
        expected = Fraction(sum(scale // k for k in range(1, n)), scale * (n - 1))
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{expected} ({decimal_string(expected)})\n"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_late_error_in_a_large_file_is_one_line_with_its_offset(self, tmp_path):
        text = write_newick(NewickDocument(caterpillar(100000)))
        text = text.replace(",t99998)", ",t99998:1e)")  # a bad branch length near the end
        path = tmp_path / "caterpillar.nwk"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(NewickError) as exc:
            _parse_tokens(text)
        env = {**os.environ, "PYTHONPATH": SRC}
        result = subprocess.run(
            [sys.executable, "-m", "treebalance", "compute", str(path)], env=env, capture_output=True, text=True
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: {exc.value}\n"
        assert exc.value.offset > len(text) - 30

    def test_multifurcation_exits_two(self, capsys, monkeypatch):
        rc, _, err = run(capsys, ["compute", "-"], "(A,B,C);", monkeypatch)
        assert rc == 2
        assert "more than two children" in err

    @pytest.mark.parametrize(
        "data, expected_rc",
        [(b"(A\xff,B);", 2), (b"\xef\xbb\xbf(A,\r\n(B,C));\r\n", 0)],
        ids=["invalid-utf8", "bom-crlf"],
    )
    def test_stdin_decodes_as_a_file_does(self, tmp_path, data, expected_rc):
        # Under the C locale sys.stdin would map bad bytes to surrogates.
        path = tmp_path / "input.nwk"
        path.write_bytes(data)
        env = {**os.environ, "PYTHONPATH": SRC, "LC_ALL": "C"}
        env.pop("PYTHONIOENCODING", None)
        argv = [sys.executable, "-m", "treebalance", "compute"]
        piped = subprocess.run([*argv, "-"], input=data, env=env, capture_output=True)
        from_file = subprocess.run([*argv, str(path)], env=env, capture_output=True)
        assert (piped.returncode, piped.stdout, piped.stderr) == (
            from_file.returncode,
            from_file.stdout,
            from_file.stderr,
        )
        assert piped.returncode == expected_rc
        if expected_rc:
            assert piped.stdout == b"" and piped.stderr.count(b"\n") == 1
        else:
            assert piped.stdout == b"3/4 (0.7500000000)\n" and piped.stderr == b""


class TestGenerate:
    def test_fully_balanced(self, capsys):
        rc, out, _ = run(capsys, ["generate", "--shape", "fb", "--h", "2"])
        assert rc == 0
        assert out == "((t1,t2),(t3,t4));\n"

    def test_echelon_two(self, capsys):
        rc, out, _ = run(capsys, ["generate", "--shape", "echelon", "--n", "2"])
        assert rc == 0
        assert out == "(t1,t2);\n"

    def test_caterpillar_four(self, capsys):
        rc, out, _ = run(capsys, ["generate", "--shape", "caterpillar", "--n", "4"])
        assert rc == 0
        assert out == "(((t1,t2),t3),t4);\n"

    def test_zero_leaves_rejected(self, capsys):
        rc, _, err = run(capsys, ["generate", "--shape", "echelon", "--n", "0"])
        assert rc == 2
        assert "error" in err

    def test_fb_needs_height(self, capsys):
        rc, _, err = run(capsys, ["generate", "--shape", "fb", "--n", "4"])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--shape", "echelon", "--n", "5", "--h", "3"], "--h"),
            (["--shape", "caterpillar", "--h", "3", "--n", "5"], "--h"),
            (["--shape", "fb", "--h", "2", "--n", "9"], "--n"),
        ],
        ids=["echelon", "caterpillar", "fb"],
    )
    def test_flag_of_the_other_shapes_refused(self, capsys, argv, flag):
        rc, out, err = run(capsys, ["generate", *argv])
        assert rc == 2
        assert out == ""
        assert err == f"error: --shape {argv[1]} does not take {flag}\n"

    def test_fb_over_height_bound(self, capsys):
        rc, _, err = run(capsys, ["generate", "--shape", "fb", "--h", "31"])
        assert rc == 2
        assert "bound" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--shape", "fb", "--h", "23"],
            ["--shape", "caterpillar", "--n", str(2**22 + 1)],
            ["--shape", "echelon", "--n", str(10**30)],
        ],
    )
    def test_over_the_leaf_bound_refused_before_building(self, capsys, monkeypatch, argv):
        for builder in ("echelon", "caterpillar", "fully_balanced"):
            monkeypatch.setattr(cli, builder, None)
        rc, out, err = run(capsys, ["generate", *argv])
        assert rc == 2
        assert out == ""
        assert err.count("\n") == 1 and "bound" in err


class TestMaxValue:
    def test_all_methods_for_five(self, capsys):
        rc, out, _ = run(capsys, ["max-value", "--n", "5", "--method", "all"])
        assert rc == 0
        assert out == "recursive: 13/16 (0.8125000000)\nclosed: 13/16 (0.8125000000)\n"

    def test_all_methods_include_even_for_even_n(self, capsys):
        rc, out, _ = run(capsys, ["max-value", "--n", "6", "--method", "all"])
        assert rc == 0
        assert out.splitlines() == [
            "recursive: 9/10 (0.9000000000)",
            "closed: 9/10 (0.9000000000)",
            "even: 9/10 (0.9000000000)",
        ]

    def test_all_methods_for_many_set_bits(self, capsys):
        n = sum(1 << (2 * i) for i in range(1100))
        rc, out, _ = run(capsys, ["max-value", "--n", str(n), "--method", "all"])
        assert rc == 0
        recursive, closed = out.splitlines()
        assert recursive.startswith("recursive: ") and closed.startswith("closed: ")
        assert recursive.split(": ")[1] == closed.split(": ")[1]

    def test_all_methods_at_the_int_parse_ceiling(self, capsys):
        # 2**14280 - 1 has 4299 digits, about the longest --n Python parses.
        m = 14280
        rc, out, _ = run(capsys, ["max-value", "--n", str(2**m - 1), "--method", "all"])
        assert rc == 0
        recursive, closed = out.splitlines()
        assert recursive.startswith("recursive: ") and closed.startswith("closed: ")
        assert recursive.split(": ")[1] == closed.split(": ")[1]
        expected = _all_ones_maximum(m)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert closed == f"closed: {expected} ({decimal_string(expected)})"
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("m", [2, 3, 4, 10, 64, 500])
    def test_all_ones_maximum_is_the_closed_form_term_by_term(self, m):
        # n = 2**m - 1 has bits e_i = i - 1 for i = 1..m, so the prefix
        # below bit i is 2**i - 1.
        n = 2**m - 1
        total = sum(Fraction(2**i - 1) for i in range(m))
        total += sum(Fraction(2**i - 1, 2**i) for i in range(1, m))
        assert _all_ones_maximum(m) == total / (n - 1)

    def test_disagreement_prints_all_and_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "max_value_closed", lambda n: Fraction(1, 2))
        rc, out, err = run(capsys, ["max-value", "--n", "5", "--method", "all"])
        assert rc == 1
        assert out == "recursive: 13/16 (0.8125000000)\nclosed: 1/2 (0.5000000000)\n"
        assert err == "error: the formulas disagree\n"

    def test_default_method_is_recursive(self, capsys):
        rc, out, _ = run(capsys, ["max-value", "--n", "1024"])
        assert rc == 0
        assert out == "1 (1.000000000)\n"

    def test_even_method(self, capsys):
        rc, out, _ = run(capsys, ["max-value", "--n", "6", "--method", "even"])
        assert rc == 0
        assert out == "9/10 (0.9000000000)\n"

    def test_even_method_rejects_odd(self, capsys):
        rc, _, err = run(capsys, ["max-value", "--n", "5", "--method", "even"])
        assert rc == 2

    def test_zero_rejected(self, capsys):
        rc, _, _ = run(capsys, ["max-value", "--n", "0"])
        assert rc == 2


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--max-n", "8"])
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 8  # seven per-n lines plus the summary
        assert lines[6] == (
            "n=8 shapes=23 max=1 (1.000000000) "
            "echelon_max=ok caterpillar_min=ok subtree_max=ok"
        )
        assert lines[-1] == "verified: all checks passed for n=2..8"

    def test_formula_disagreement_fails(self, capsys, monkeypatch):
        _, good, _ = run(capsys, ["verify", "--max-n", "6"])
        real = cli.max_value_closed
        monkeypatch.setattr(cli, "max_value_closed", lambda n: real(n) + (n == 5))
        rc, out, err = run(capsys, ["verify", "--max-n", "6"])
        assert rc == 1
        assert "n=5" in err and "closed" in err
        assert out.splitlines() == good.splitlines()[:-1]

    def test_minimum_other_than_the_caterpillar_fails(self, capsys, monkeypatch):
        _, good, _ = run(capsys, ["verify", "--max-n", "6"])
        real = cli.verify_extremal

        def off_at_five(max_n, bound):
            for r in real(max_n, bound):
                yield r._replace(min_value=r.min_value + 1) if r.n == 5 else r

        monkeypatch.setattr(cli, "verify_extremal", off_at_five)
        rc, out, err = run(capsys, ["verify", "--max-n", "6"])
        assert rc == 1
        # H(4)/4 = 25/48 is the caterpillar's index on five leaves.
        assert err.splitlines()[0] == (
            "error: n=5: the caterpillar gives 25/48, enumeration gives 73/48 as the minimum"
        )
        assert out.splitlines() == good.splitlines()[:-1]

    def test_jobs_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "4", "--jobs", "1"])
        assert exc.value.code == 2

    def test_below_two_rejected(self, capsys):
        rc, _, _ = run(capsys, ["verify", "--max-n", "1"])
        assert rc == 2

    def test_over_bound_rejected(self, capsys):
        rc, _, err = run(capsys, ["verify", "--max-n", "25"])
        assert rc == 2
        assert "between 2 and 18" in err

    def test_env_var_lowers_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEBALANCE_MAX_ENUM", "6")
        rc, _, err = run(capsys, ["verify", "--max-n", "8"])
        assert rc == 2
        assert "between 2 and 6" in err

    def test_env_var_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEBALANCE_MAX_ENUM", "many")
        rc, _, err = run(capsys, ["verify", "--max-n", "4"])
        assert rc == 2
        assert "TREEBALANCE_MAX_ENUM" in err

    def test_past_the_scoring_bound_exits_two_before_any_report(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEBALANCE_MAX_ENUM", "44")
        rc, out, err = run(capsys, ["verify", "--max-n", "44"])
        assert rc == 2
        assert out == ""
        assert err == "error: max_n=44 exceeds the scoring bound 43\n"


class TestTable:
    def test_csv_with_header(self, capsys):
        rc, out, _ = run(capsys, ["table", "--from", "2", "--to", "6"])
        assert rc == 0
        assert out.splitlines() == [
            "n,st2_max_exact,st2_max_decimal",
            "2,1,1.000000000",
            "3,3/4,0.7500000000",
            "4,1,1.000000000",
            "5,13/16,0.8125000000",
            "6,9/10,0.9000000000",
        ]

    def test_single_row(self, capsys):
        rc, out, _ = run(capsys, ["table", "--from", "4", "--to", "4"])
        assert rc == 0
        assert out.splitlines()[1] == "4,1,1.000000000"

    def test_tsv(self, capsys):
        rc, out, _ = run(capsys, ["table", "--from", "2", "--to", "2", "--format", "tsv"])
        assert rc == 0
        assert out.splitlines() == ["n\tst2_max_exact\tst2_max_decimal", "2\t1\t1.000000000"]

    def test_plain_has_no_header(self, capsys):
        rc, out, _ = run(capsys, ["table", "--from", "5", "--to", "5", "--format", "plain"])
        assert rc == 0
        assert out == "5 13/16 0.8125000000\n"

    def test_precision_flag(self, capsys):
        rc, out, _ = run(capsys, ["table", "--from", "5", "--to", "5", "--precision", "4"])
        assert rc == 0
        assert out.splitlines()[1] == "5,13/16,0.8125"

    @pytest.mark.parametrize("precision", ["0", "-3"])
    def test_precision_below_one_prints_nothing(self, capsys, precision):
        rc, out, err = run(capsys, ["table", "--from", "1", "--to", "3", "--precision", precision])
        assert rc == 2
        assert out == ""
        assert "significant digit" in err

    @pytest.mark.parametrize("precision", [str(cli.TABLE_PRECISION_CAP + 1), str(10**21)])
    def test_precision_above_the_cap_prints_nothing(self, capsys, precision):
        rc, out, err = run(capsys, ["table", "--from", "3", "--to", "3", "--precision", precision])
        assert rc == 2
        assert out == ""
        assert err == f"error: need 1 to {cli.TABLE_PRECISION_CAP} significant digits\n"

    def test_precision_at_the_cap_accepted(self, capsys):
        cap = cli.TABLE_PRECISION_CAP
        rc, out, _ = run(capsys, ["table", "--from", "3", "--to", "3", "--precision", str(cap)])
        assert rc == 0
        assert out.splitlines()[1] == "3,3/4,0.75" + "0" * (cap - 2)

    @pytest.mark.parametrize("lo,hi", [(0, 2), (3, 2), (1, 10**6 + 1)])
    def test_bad_ranges_rejected(self, capsys, lo, hi):
        rc, _, _ = run(capsys, ["table", "--from", str(lo), "--to", str(hi)])
        assert rc == 2

    def test_formula_disagreement_exits_one(self, capsys, monkeypatch):
        # table compares the closed-form numerators with the recursive ones;
        # both are over the row's one denominator.
        closed = cli._closed_numerators

        def off_at_five(lo, hi):
            for (n, *_), numerators in zip(cli._runs(lo, hi), closed(lo, hi)):
                if n <= 5 < n + len(numerators):
                    numerators[5 - n] += 1
                yield numerators

        monkeypatch.setattr(cli, "_closed_numerators", off_at_five)
        rc, out, err = run(capsys, ["table", "--from", "2", "--to", "6"])
        assert rc == 1
        assert err == "error: recursive and closed formulas disagree at n=5\n"
        assert out.splitlines() == [
            "n,st2_max_exact,st2_max_decimal",
            "2,1,1.000000000",
            "3,3/4,0.7500000000",
            "4,1,1.000000000",
        ]

    def test_disagreement_on_the_first_row_of_a_chunk(self, capsys, monkeypatch):
        # The rows from 8000 are evaluated in runs 8000..8191, 8192, 8193,
        # 8194..8195 and so on, one per bit length of n - 8192; every row of
        # the third run is off by one.
        first = 8193
        argv = ["table", "--from", "8000", "--to", str(first + 5), "--format", "plain"]
        rc, whole, _ = run(capsys, argv)
        assert rc == 0
        packed = extremal._closed_packed
        runs = []

        def off_in_the_third(packed_rows, ones, top, bits):
            runs.append(top)
            return packed(packed_rows, ones, top, bits) + ones * (len(runs) == 3)

        monkeypatch.setattr(extremal, "_closed_packed", off_in_the_third)
        rc, out, err = run(capsys, argv)
        assert (rc, err) == (1, f"error: recursive and closed formulas disagree at n={first}\n")
        assert out.splitlines() == whole.splitlines()[: first - 8000]
        assert len(runs) == 3

    @pytest.mark.parametrize("fmt", ["csv", "tsv", "plain"])
    def test_disagreement_mid_run_prints_the_rows_before_it(self, capsys, monkeypatch, fmt):
        # Rows 90..130 are the runs 90..95, 96..127 and 128..130; only row 100
        # of the second is off, so its rows 96..99 are printed too.
        argv = ["table", "--from", "90", "--to", "130", "--format", fmt]
        rc, whole, _ = run(capsys, argv)
        assert rc == 0
        closed = cli._closed_numerators
        runs = []

        def off_at_100(lo, hi):
            for (n, end, *_), numerators in zip(cli._runs(lo, hi), closed(lo, hi)):
                runs.append((n, end))
                if n <= 100 <= end:
                    numerators[100 - n] += 1
                yield numerators

        monkeypatch.setattr(cli, "_closed_numerators", off_at_100)
        rc, out, err = run(capsys, argv)
        assert (rc, err) == (1, "error: recursive and closed formulas disagree at n=100\n")
        header = fmt != "plain"
        assert out.splitlines() == whole.splitlines()[: header + 10]
        assert out.splitlines()[-1].startswith("99")
        assert runs == [(90, 95), (96, 127)]

    def test_rows_rendered_before_running_out_of_memory_are_written(self, capsys, monkeypatch):
        # Row 97's value 2017/2048 is a tie at ten digits, which the run
        # 96..100 hands to _decimal; the run 90..95 before it is written.
        argv = ["table", "--from", "90", "--to", "100", "--format", "plain"]
        rc, whole, _ = run(capsys, argv)
        assert rc == 0
        decimal = cli._decimal

        def out_at_97(p, q, digits):
            if (p, q) == (2017, 2048):
                raise MemoryError
            return decimal(p, q, digits)

        monkeypatch.setattr(cli, "_decimal", out_at_97)
        rc, out, err = run(capsys, argv)
        assert (rc, err) == (2, "error: out of memory\n")
        assert out.splitlines() == whole.splitlines()[:6]
        assert out.startswith("90 ") and out.endswith("\n")

    @pytest.mark.parametrize("fmt,sep", [("csv", ","), ("tsv", "\t"), ("plain", " ")])
    @pytest.mark.parametrize(
        "precision,hi", [(1, 3000), (2, 3000), (10, 3000), (60, 3000), (641, 300), (10000, 50)]
    )
    def test_rows_equal_the_fraction_rendering(self, capsys, fmt, sep, precision, hi):
        rc, out, err = run(
            capsys,
            ["table", "--from", "1", "--to", str(hi), "--format", fmt, "--precision", str(precision)],
        )
        assert (rc, err) == (0, "")
        rows = out.splitlines()
        if fmt != "plain":
            assert rows.pop(0) == sep.join(("n", "st2_max_exact", "st2_max_decimal"))
        expected = []
        for n in range(1, hi + 1):
            value = max_value_recursive(n)
            expected.append(sep.join((str(n), str(value), _reference_decimal(value, precision))))
        assert rows == expected


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class _LineCounter:
    """A stdout that keeps only the number of lines written to it."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def _emit_peak(monkeypatch, n, lines):
    """The traced peak of ``enumerate --n n --emit-newick``, its lines counted."""
    sink = _LineCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        rc = main(["enumerate", "--n", str(n), "--emit-newick"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert sink.lines == lines
    return peak


@pytest.mark.parametrize(
    "argv", [["table", "--from", "1", "--to", "20000"], ["enumerate", "--n", "14", "--emit-newick"]]
)
def test_bulk_output_is_written_in_blocks(monkeypatch, argv):
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    text = out.getvalue()
    assert text.count("\n") > 2000
    # Every write but the last carries at least 16 KB.
    assert 1 <= out.writes <= len(text) // 2**14 + 1


class TestEnumerate:
    def test_count_only(self, capsys):
        rc, out, _ = run(capsys, ["enumerate", "--n", "4", "--count-only"])
        assert rc == 0
        assert out == "2\n"

    def test_count_is_default(self, capsys):
        rc, out, _ = run(capsys, ["enumerate", "--n", "12"])
        assert rc == 0
        assert out == "451\n"

    def test_count_allows_larger_n_than_enumeration(self, capsys):
        rc, out, _ = run(capsys, ["enumerate", "--n", "40", "--count-only"])
        assert rc == 0
        assert int(out) > 10**9

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_count_longer_than_the_int_str_limit(self, capsys):
        # 640 is the lowest limit Python accepts; the count at n = 1650 has 647 digits.
        n = 1650
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            rc, out, _ = run(capsys, ["enumerate", "--n", str(n)])
            assert rc == 0
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{count_shapes(n)}\n"
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("argv", [["--n", "2049"], ["--n", str(10**30), "--count-only"]])
    def test_count_over_the_leaf_bound_refused_before_counting(self, capsys, monkeypatch, argv):
        def fail(n):
            raise AssertionError("counted past the bound")

        monkeypatch.setattr(cli, "count_shapes", fail)
        rc, out, err = run(capsys, ["enumerate", *argv])
        assert rc == 2
        assert out == ""
        assert err == f"error: {argv[1]} leaves is over the bound of 2048\n"

    def test_count_at_the_leaf_bound_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_shapes", lambda n: n * 10)
        rc, out, _ = run(capsys, ["enumerate", "--n", str(cli.COUNT_LEAF_CAP)])
        assert rc == 0
        assert out == "20480\n"

    def test_emit_newick_three(self, capsys):
        rc, out, _ = run(capsys, ["enumerate", "--n", "3", "--emit-newick"])
        assert rc == 0
        assert out == "((t1,t2),t3);\n"

    def test_emit_newick_four_in_canonical_order(self, capsys):
        rc, out, _ = run(capsys, ["enumerate", "--n", "4", "--emit-newick"])
        assert rc == 0
        assert out.splitlines() == ["((t1,t2),(t3,t4));", "(((t1,t2),t3),t4);"]

    @pytest.mark.parametrize("n", range(1, 14))
    def test_emit_newick_equals_writing_the_sorted_shapes(self, capsys, n):
        shapes = sorted(enumerate_shapes(n), key=canonical)
        rc, out, _ = run(capsys, ["enumerate", "--n", str(n), "--emit-newick"])
        assert rc == 0
        assert out == "".join(write_newick(NewickDocument(s)) + "\n" for s in shapes)

    def test_emit_respects_bound(self, capsys):
        rc, out, err = run(capsys, ["enumerate", "--n", "19", "--emit-newick"])
        assert rc == 2
        assert out == ""
        assert err == "error: n=19 exceeds the enumeration bound 18\n"

    def test_emit_never_holds_the_top_level(self, monkeypatch):
        # At n = 16 the lines are streamed at a traced peak of about 0.52 MiB;
        # with the levels of 1..15 leaves held it was 1.4 MiB, and building
        # and sorting the 10905 top-level codes as well took 2.7 MiB.
        assert _emit_peak(monkeypatch, 16, 10905) < 2**20

    def test_emit_never_builds_the_two_levels_below_the_top(self, monkeypatch):
        # At n = 17 only the codes of 1..14 leaves are held: a traced peak of
        # about 0.62 MiB.  Holding those of 15 leaves as well takes about
        # 1.2 MiB, and those of 1..16 leaves 2.7 MiB.
        assert _emit_peak(monkeypatch, 17, 24631) < 2**20

    def test_zero_rejected(self, capsys):
        rc, _, _ = run(capsys, ["enumerate", "--n", "0"])
        assert rc == 2

    def test_flags_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "3", "--count-only", "--emit-newick"])
        assert exc.value.code == 2


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_imports_no_dataclasses_inspect_or_typing():
    # Every treebalance process pays for what the CLI imports; under -S no
    # site-packages module can pull these in either.
    code = "import sys, treebalance.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
