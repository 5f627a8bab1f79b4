"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` from the root.

They check that the oracle rejects wrong output, that the generator is a
pure function of the seed, and, at small sizes, that the oracle agrees with
the package it is meant to be independent of.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import gen
import oracle
import run
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from treebalance import (  # noqa: E402
    NewickDocument,
    canonical,
    enumerate_shapes,
    max_value_closed,
    parse_newick,
    stairs2_direct,
    write_newick,
)
from treebalance.cli import decimal_string  # noqa: E402


def _corpus(seed, tmp_path, name):
    work = tmp_path / name
    work.mkdir()
    ops = gen.compute_newick(seed, str(work))
    return ops, {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def test_generator_is_byte_identical_for_the_same_seed(tmp_path):
    ops_a, files_a = _corpus(7, tmp_path, "a")
    ops_b, files_b = _corpus(7, tmp_path, "b")
    assert files_a == files_b
    assert [op.op_id for op in ops_a] == [op.op_id for op in ops_b]
    for make in (gen.extremal_enum, gen.maxvalue_table):
        assert [op.argv for op in make(7)] == [op.argv for op in make(7)]


def test_generator_inputs_change_with_the_seed(tmp_path):
    _, files_a = _corpus(7, tmp_path, "a")
    _, files_b = _corpus(8, tmp_path, "b")
    assert files_a.keys() == files_b.keys()
    assert all(files_a[k] != files_b[k] for k in files_a)
    assert [op.argv for op in gen.maxvalue_table(7)] != [op.argv for op in gen.maxvalue_table(8)]


def test_oracle_flags_a_wrong_value(tmp_path):
    ops, _ = _corpus(3, tmp_path, "c")
    op = next(o for o in ops if o.spec["tree"].family == "yule")
    exp = oracle.expect(op.spec)
    assert oracle.judge(exp, 0, exp.text, "") == "ok"
    value = oracle.tree_index(op.spec)
    off = value + Fraction(1, 10**40)
    assert oracle.judge(exp, 0, exp.text.replace(str(value), str(off)), "") == "wrong"


def test_oracle_flags_one_wrong_table_row():
    exp = oracle.expect({"kind": "table", "lo": 1, "hi": 50})
    lines = exp.text.splitlines(keepends=True)
    lines[17] = lines[17].replace("0.", "0.1", 1)
    assert oracle.judge(exp, 0, "".join(lines), "") == "wrong"


def test_known_defects_need_their_signature():
    n = gen.random_n(2400, 1100, 0, random.Random(1))
    exp = oracle.expect({"kind": "maxvalue", "n": n})
    assert exp.defect == "recursion"
    assert oracle.judge(exp, 1, "", "RecursionError: maximum recursion depth") == "defect"
    assert oracle.judge(exp, 1, "", "MemoryError") == "error"
    small = oracle.expect({"kind": "maxvalue", "n": 12345})
    assert small.defect is None
    assert oracle.judge(small, 1, "", "RecursionError") == "error"


@pytest.mark.parametrize("family,size", [("caterpillar", 300), ("balanced", 7),
                                         ("echelon", 1000), ("yule", 500), ("pda", 500)])
def test_tree_oracle_agrees_with_the_package(family, size):
    rng = random.Random(size)
    tree = gen._BUILDERS[family](size, rng)
    shape = parse_newick(gen.to_newick(tree, rng, branch_lengths=True)).shape
    assert shape.leaf_count == tree.leaves
    assert oracle.tree_index({"tree": tree}) == stairs2_direct(shape)
    assert oracle.index_from_splits(tree.split_sizes()) == stairs2_direct(shape)


def test_formula_and_rendering_oracles_agree_with_the_package():
    assert all(oracle.max_value(n) == max_value_closed(n) for n in range(1200))
    rng = random.Random(5)
    for _ in range(3000):
        v = Fraction(rng.randrange(1, 10 ** rng.randint(1, 25)), rng.randrange(1, 10 ** rng.randint(1, 25)))
        for digits in (1, 3, 10):
            assert oracle.decimal_string(v, digits) == decimal_string(v, digits)


def test_enumeration_oracle_agrees_with_the_package():
    for k in (6, 10):
        got = [write_newick(NewickDocument(s)) + "\n" for s in sorted(enumerate_shapes(k), key=canonical)]
        assert oracle.expect({"kind": "emit", "n": k}).text == "".join(got)
    assert oracle.shape_counts(18)[18] == 56011


def test_self_times_subtract_children():
    spans = [[0, None, "op", "op", 0.0, 10.0], [1, 0, "op", "a", 1.0, 4.0],
             [2, 1, "op", "b", 2.0, 3.0], [3, 0, "op", "c", 5.0, 9.0]]
    assert tracer.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "extremal-enum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(1, 21)]) == (50, 10.0)


def _trace(tmp_path, argv, mode="traced"):
    job = {"src": os.path.join(ROOT, "src"), "op_id": "t", "argv": argv, "mode": mode,
           "sink": str(tmp_path / "out.txt"), "out": str(tmp_path / "report.json")}
    (tmp_path / "job.json").write_text(json.dumps(job))
    subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"),
                    str(tmp_path / "job.json")], check=True, timeout=120)
    report = json.loads((tmp_path / "report.json").read_text())
    return report, (tmp_path / "out.txt").read_text()


def test_traced_run_drives_the_cli_and_spans_its_calls(tmp_path):
    rng = random.Random(4)
    tree = gen.yule(200, rng)
    path = tmp_path / "t.nwk"
    path.write_text(gen.to_newick(tree, rng, branch_lengths=True))
    spec = {"kind": "compute", "path": str(path), "method": "both", "tree": tree}
    report, out = _trace(tmp_path, ["compute", str(path), "--method", "both"])
    assert oracle.judge(oracle.expect(spec), report["rc"], out, report["stderr"]) == "ok"
    names = [s[3] for s in report["spans"]]
    assert {"cli.import", "cli.render", "newick.parse", "stairs2.direct",
            "stairs2.recursive"} <= set(names)
    command = next(s for s in report["spans"] if s[3] == "cli.render")
    assert command[1] is None
    assert all(s[1] == command[0] for s in report["spans"] if s[3].startswith("stairs2."))
    assert report["counters"]["newick.bytes_parsed"] == path.stat().st_size


def test_traced_verify_runs_serially_with_enumeration_apart(tmp_path):
    report, out = _trace(tmp_path, ["verify", "--max-n", "6"])
    assert report["rc"] == 0 and out.endswith("verified: all checks passed for n=2..6\n")
    by_id = {s[0]: s for s in report["spans"]}
    enum = [s for s in report["spans"] if s[3] == "shapes.enumerate"]
    assert len(enum) == 5 and all(by_id[s[1]][3] == "extremal.score" for s in enum)
    assert report["counters"]["shapes.enumerated"] == sum(oracle.shape_counts(6)[n] for n in range(2, 7))


def test_known_defect_surfaces_in_process_as_in_the_cli(tmp_path):
    n = gen.random_n(2400, 1100, 0, random.Random(1))
    report, _ = _trace(tmp_path, ["max-value", "--n", str(n), "--method", "all"], mode="plain")
    exp = oracle.expect({"kind": "maxvalue", "n": n})
    assert oracle.judge(exp, report["rc"], "", report["stderr"]) == "defect"


def test_peak_rss_leaves_out_the_client_memory(tmp_path):
    ballast = bytearray(80 * 2**20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    runner = run.Runner(ROOT, str(tmp_path))
    wall, rss_mb, rc, out, _ = runner.cli(run.SETUP_ARGV)
    runner.sampler.finish()
    assert (rc, out) == (0, "1\n") and wall > 0
    assert 5 < rss_mb < 60
