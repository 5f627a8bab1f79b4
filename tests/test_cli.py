import io
from fractions import Fraction

import pytest

from treebalance import cli
from treebalance.cli import decimal_string, main


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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


class TestCompute:
    def test_cherry_from_stdin(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, ["compute", "-"], "(A,B);", monkeypatch)
        assert rc == 0
        assert out == "1 (1.000000000)\n"

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

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, ["compute", "/no/such/file"])
        assert rc == 2
        assert "error" in err

    def test_both_methods_agree(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, ["compute", "-", "--method", "both"], "((A,B),C);", monkeypatch)
        assert rc == 0
        assert out == "direct: 3/4 (0.7500000000)\nrecursive: 3/4 (0.7500000000)\n"

    def test_recursive_method(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, ["compute", "-", "--method", "recursive"], "(A,B);", monkeypatch)
        assert rc == 0
        assert out == "1 (1.000000000)\n"

    def test_multifurcation_exits_two(self, capsys, monkeypatch):
        rc, _, err = run(capsys, ["compute", "-"], "(A,B,C);", monkeypatch)
        assert rc == 2
        assert "more than two children" in err


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

    def test_fb_over_height_bound(self, capsys):
        rc, _, err = run(capsys, ["generate", "--shape", "fb", "--h", "31"])
        assert rc == 2
        assert "bound" in err


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

    @pytest.mark.parametrize("lo,hi", [(0, 2), (3, 2), (1, 10**6 + 1)])
    def test_bad_ranges_rejected(self, capsys, lo, hi):
        rc, _, _ = run(capsys, ["table", "--from", str(lo), "--to", str(hi)])
        assert rc == 2


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

    def test_emit_newick_three(self, capsys):
        rc, out, _ = run(capsys, ["enumerate", "--n", "3", "--emit-newick"])
        assert rc == 0
        assert out == "((t1,t2),t3);\n"

    def test_emit_newick_four_in_canonical_order(self, capsys):
        rc, out, _ = run(capsys, ["enumerate", "--n", "4", "--emit-newick"])
        assert rc == 0
        assert out.splitlines() == ["((t1,t2),(t3,t4));", "(((t1,t2),t3),t4);"]

    def test_emit_respects_bound(self, capsys):
        rc, _, _ = run(capsys, ["enumerate", "--n", "19", "--emit-newick"])
        assert rc == 2

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
