"""Every pinned output of the command line, as one table.

Each row runs ``python -m treebalance`` in a child process with the checkout's
``src`` as ``PYTHONPATH``, under an address-space cap and a timeout, and
compares its exit status, the sha256 of its stdout and the number of lines on
its stderr.  The cap is ``RLIMIT_AS`` set in the child alone, what ``ulimit -v``
sets, so a row that needs more memory than its cap, or more time than its
timeout, fails.

A new row's hash is computed at the parent commit and stated in CHANGES.md.
A hash that changes is a change of behaviour, not a pin to re-type.
"""

import hashlib
import os
import random
import resource
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@dataclass(frozen=True)
class Pin:
    """One pinned run: ``python -m treebalance *argv`` and what it must give.

    Its input is ``stdin``, or the bytes ``file`` returns, written to a file
    whose path ends the argv.  ``cap_mb`` is the child's address space in MiB;
    None leaves it unlimited.  ``then`` checks stdout further.
    """

    name: str
    argv: tuple[str, ...]
    sha256: str
    cap_mb: int | None = None
    timeout: float = 60
    env: dict[str, str] = field(default_factory=dict)
    stdin: bytes = b""
    file: Callable[[], bytes] | None = None
    status: int = 0
    stderr_lines: int = 0
    then: Callable[[bytes], None] | None = None


def _run(argv, *, env=None, stdin=b"", cap_mb=None, timeout=60):
    def cap():
        limit = cap_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # Unless a row sets them: a buffered stdout and the default enumeration ceiling.
    inherited = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "TREEBALANCE_MAX_ENUM")}
    return subprocess.run(
        [sys.executable, "-m", "treebalance", *argv],
        input=stdin,
        capture_output=True,
        env={**inherited, "PYTHONPATH": SRC, **(env or {})},
        preexec_fn=cap if cap_mb else None,
        timeout=timeout,
    )


def check(pin, tmp_path=None):
    """Run ``pin``; an AssertionError names the first expectation it misses."""
    argv = pin.argv
    if pin.file:
        path = tmp_path / f"{pin.name}.nwk"
        path.write_bytes(pin.file())
        argv = (*argv, str(path))
    try:
        result = _run(argv, env=pin.env, stdin=pin.stdin, cap_mb=pin.cap_mb, timeout=pin.timeout)
    except subprocess.TimeoutExpired:
        raise AssertionError(f"{pin.name}: no exit within {pin.timeout} s") from None
    stderr = result.stderr.decode(errors="replace")
    assert result.returncode == pin.status, f"{pin.name}: exit status {result.returncode}, not {pin.status}\n{stderr}"
    lines = result.stderr.count(b"\n")
    assert lines == pin.stderr_lines, f"{pin.name}: {lines} stderr lines, not {pin.stderr_lines}\n{stderr}"
    digest = hashlib.sha256(result.stdout).hexdigest()
    assert digest == pin.sha256, f"{pin.name}: stdout sha256 {digest}, not {pin.sha256}"
    if pin.then:
        pin.then(result.stdout)


def generate(*argv):
    """The input file of a row: the stdout of ``treebalance generate *argv``."""

    def write():
        result = _run(("generate", *argv))
        assert result.returncode == 0, result.stderr
        return result.stdout

    return write


def yule_5000():
    """A labelled 5000-leaf Yule tree, seeded: a label and a length on every edge."""
    rng = random.Random(2024)
    root = []
    tips = [root]
    for _ in range(4999):
        tip = tips.pop(rng.randrange(len(tips)))
        tip += [], []
        tips += tip
    out = []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        length = f":{rng.random():.4f}"
        if item:
            stack += length, ")", item[1], ",", item[0], "("
        else:
            out.append(f"T{rng.randrange(10**6)}{length}")
    return ("".join(out) + ";\n").encode()


def every_shape_once(n, last_sha256=None):
    """A further check of ``enumerate --n N --emit-newick``'s stdout.

    The lines are distinct and as many as ``enumerate --n N`` counts by the
    recurrence; with ``last_sha256``, the last line parses back through
    ``compute --method both -`` to that output.
    """

    def check_lines(out):
        lines = out.splitlines(keepends=True)
        counted = _run(("enumerate", "--n", n))
        assert counted.returncode == 0, counted.stderr
        assert len(set(lines)) == len(lines) == int(counted.stdout)
        if last_sha256:
            check(Pin(f"emit-{n}-last", ("compute", "--method", "both", "-"), last_sha256, stdin=lines[-1]))

    return check_lines


PINS = [
    Pin(
        "verify-18",
        ("verify", "--max-n", "18"),
        "4257b6584c9929b20c91b25bed127a818391f1cb23d1597169c231f1ef6392a9",
    ),
    # 1.56 M shapes at n = 22, held as 8-byte scores: it needs about 41 MB.
    Pin(
        "verify-22",
        ("verify", "--max-n", "22"),
        "d37f16999e6b8cce52ec0e1ef2b8390eeb30c1cb4ba8df0e3efdb0cb1bfdd7b4",
        cap_mb=64,
        env={"TREEBALANCE_MAX_ENUM": "22"},
    ),
    # 3.8 MB of kept rows and 8 KB runs of packed rows: it needs about 23 MB.
    # The full range pins the output at the row cap, --precision 10000 at the
    # precision cap.
    Pin(
        "table-full",
        ("table", "--from", "1", "--to", "1000000"),
        "d053aae8e316647804038075d881f0b0d10861ff88502ffc788457208f60e6db",
        cap_mb=32,
    ),
    # Unbuffered, each write is a system call: the rows go out in blocks.
    Pin(
        "table-full-unbuffered",
        ("table", "--from", "1", "--to", "1000000"),
        "d053aae8e316647804038075d881f0b0d10861ff88502ffc788457208f60e6db",
        cap_mb=32,
        env={"PYTHONUNBUFFERED": "1"},
    ),
    Pin(
        "table-precision-10000",
        ("table", "--from", "1", "--to", "1000", "--precision", "10000"),
        "231a81dad68c983236e1fac075311fab89db3491af03b6813c9743492afa30ef",
    ),
    # At one digit, 99981 rows round up to 1: the carry the run renderer writes without _decimal.
    Pin(
        "table-precision-1",
        ("table", "--from", "1", "--to", "100000", "--precision", "1", "--format", "plain"),
        "671ab0ef2bf88f1795135fb214467c413305aa107e07d32b6030fa9fd658691a",
        cap_mb=32,
    ),
    Pin(
        "table-precision-2",
        ("table", "--from", "1", "--to", "100000", "--precision", "2", "--format", "tsv"),
        "f1d31334c2e6266275a7b532047acda13a7b4481348556ed3bd12367a2e6a58d",
        cap_mb=32,
    ),
    # Every remainder n - 2**floor(log2 n) of these rows is below --from: the
    # recursive sweep first runs, unprinted, over rows 2..475712, the ones a
    # row up to 1000000 peels down to, and reads every remainder from them.
    # A narrow range at the row cap pays for that sweep: 3.8 MB of kept rows.
    Pin(
        "table-peeled-524200",
        ("table", "--from", "524200", "--to", "1000000", "--format", "tsv"),
        "8337a9151955c8ae5c65abdd01258431287352e657308cb33ce0fa9073fd377b",
        cap_mb=32,
    ),
    Pin(
        "table-peeled-999990",
        ("table", "--from", "999990", "--to", "1000000"),
        "29516734185f1bc1249b6d48e1e201348c72a258a357e9ad56b33489a67f7f45",
        cap_mb=32,
    ),
    # 1500 set bits: the closed form makes one step per set bit on n alone.
    Pin(
        "max-value-2999-bits",
        ("max-value", "--n", str((2**3000 - 1) // 3), "--method", "all"),
        "0c7aace3efdceb68cb9a7a06ef63ab1263fa5bda6ca32858dd2d2986c9de8eed",
    ),
    # The top level is streamed and only the codes of 1..15 leaves are held: it needs about 19 MB.
    Pin(
        "emit-18",
        ("enumerate", "--n", "18", "--emit-newick"),
        "274ce0eb67368380fabb4c5082017b9a02f8061b63c20f01f91786031820e363",
        cap_mb=24,
        then=every_shape_once("18", "a38ed6db15e5a5cedb2c586784a7971ceb45ad60765a79eb7142077be92a665e"),
    ),
    # 293547 lines, none held: it needs about 26 MB, the codes of 1..17 leaves.
    Pin(
        "emit-20",
        ("enumerate", "--n", "20", "--emit-newick"),
        "8e905145d5f46bb6c6205c93b3faca692e7441c8af588807b60d83cfc71e8b91",
        cap_mb=32,
        env={"TREEBALANCE_MAX_ENUM": "20"},
        then=every_shape_once("20"),
    ),
    # 676157 lines from the codes of 1..18 leaves: it needs about 37 MB.
    # Holding the codes of 1..20 leaves, as the first halves' levels, took about 110 MB.
    Pin(
        "emit-21",
        ("enumerate", "--n", "21", "--emit-newick"),
        "0879008b5d3bfe46be7c2b68e066a4a8f3b9f16928bc6834338b7d5a4e21c6ed",
        cap_mb=44,
        env={"TREEBALANCE_MAX_ENUM": "21"},
        then=every_shape_once("21"),
    ),
    Pin(
        "caterpillar-30000",
        ("compute", "--method", "both"),
        "26a38d564823d337008dcf1d7f0cf7b65db09ef31e9365b32187579c6bbb034c",
        cap_mb=40,
        file=generate("--shape", "caterpillar", "--n", "30000"),
    ),
    Pin(
        "echelon-1000",
        ("compute", "--method", "both"),
        "83148a6ea318a321f228efc7fc840e69fee2c07e9c2661b0802ca836c81bf093",
        file=generate("--shape", "echelon", "--n", "1000"),
    ),
    Pin(
        "yule-5000",
        ("compute", "--method", "both"),
        "25b5710d4f70eeb9f701017f5e079ef4f4c9739121eae2b3a67c036be7467b00",
        file=yule_5000,
    ),
    Pin(
        "caterpillar-200000",
        ("compute", "--method", "both"),
        "a64137054a34cd3a4064253e7c76867f8670c75e21254572cf8870aef6aa1185",
        cap_mb=100,
        timeout=40,
        file=generate("--shape", "caterpillar", "--n", "200000"),
    ),
    Pin(
        "balanced-1048576",
        ("compute", "--method", "both"),
        "633f57ec896b7887a2ac7d4c41a9506440528d0292f37d8b6c29c43d472455f3",
        cap_mb=72,
        timeout=10,
        file=generate("--shape", "fb", "--h", "20"),
    ),
]


@pytest.mark.parametrize("pin", PINS, ids=[pin.name for pin in PINS])
def test_pin(pin, tmp_path):
    check(pin, tmp_path)


def test_yule_input_is_the_seeded_tree():
    digest = hashlib.sha256(yule_5000()).hexdigest()
    assert digest == "2bd641428914ec000334889fbbae98c4289354d18cd529d95650e39d3609e2d1"


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"sha256": "0" * 64}, "stdout sha256"),
        ({"status": 1}, "exit status"),
        ({"cap_mb": 8}, "exit status"),  # too small for the interpreter to start
        ({"timeout": 0.001}, "no exit within"),
    ],
    ids=["wrong-sha256", "wrong-status", "cap-8mb", "short-timeout"],
)
def test_a_missed_expectation_fails(change, reason):
    pin = replace(next(pin for pin in PINS if pin.name == "verify-18"), **change)
    with pytest.raises(AssertionError, match=reason):
        check(pin)
