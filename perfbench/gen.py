"""Seeded inputs and operation lists for the three workloads.

Everything here is the benchmark's own code: it imports nothing from
``treebalance``.  Trees are built as parent-free child arrays and written
to Newick by a writer of our own, so the program under test sees only
files and command-line arguments.  The same seed always gives the same
bytes; sizes are fixed per slot so that the amount of work, and with it
every timing, does not depend on the seed.  The seed chooses the random
shapes, child order, labels, branch lengths, the table's starting row,
the bits of the ``max-value`` queries and the order of operations.
"""

import random
import string
from dataclasses import dataclass

_LABEL_CHARS = string.ascii_letters + string.digits


class GenTree:
    """A binary tree as two child arrays; ``left[i] == -1`` marks a leaf."""

    __slots__ = ("left", "right", "root", "family", "leaves")

    def __init__(self, family: str):
        self.left: list[int] = []
        self.right: list[int] = []
        self.root = -1
        self.family = family
        self.leaves = 0

    def leaf(self) -> int:
        self.left.append(-1)
        self.right.append(-1)
        self.leaves += 1
        return len(self.left) - 1

    def join(self, a: int, b: int, rng: random.Random) -> int:
        """New internal node over ``a`` and ``b``, in a seeded child order."""
        if rng.random() < 0.5:
            a, b = b, a
        self.left.append(a)
        self.right.append(b)
        return len(self.left) - 1

    def post_order(self) -> "list[int]":
        """Node indices, every child before its parent (iterative)."""
        order: list[int] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            if self.left[v] != -1:
                stack.append(self.left[v])
                stack.append(self.right[v])
        order.reverse()
        return order

    def split_sizes(self) -> "list[tuple[int, int]]":
        """(left leaves, right leaves) for every internal node."""
        sizes = [0] * len(self.left)
        splits = []
        for v in self.post_order():
            a, b = self.left[v], self.right[v]
            if a == -1:
                sizes[v] = 1
            else:
                sizes[v] = sizes[a] + sizes[b]
                splits.append((sizes[a], sizes[b]))
        return splits


def caterpillar(n: int, rng: random.Random) -> GenTree:
    t = GenTree("caterpillar")
    node = t.leaf()
    for _ in range(n - 1):
        node = t.join(node, t.leaf(), rng)
    t.root = node
    return t


def fully_balanced(h: int, rng: random.Random) -> GenTree:
    t = GenTree("balanced")
    level = [t.leaf() for _ in range(1 << h)]
    while len(level) > 1:
        level = [t.join(level[i], level[i + 1], rng) for i in range(0, len(level), 2)]
    t.root = level[0]
    return t


def echelon(n: int, rng: random.Random) -> GenTree:
    """Largest power-of-two block k with n/2 <= k < n, beside echelon(n - k)."""
    t = GenTree("echelon")
    blocks = []
    while n >= 2:
        k = 1 << (n.bit_length() - 1)
        if k == n:
            k //= 2
        blocks.append(k)
        n -= k
    node = t.leaf()
    for k in reversed(blocks):
        level = [t.leaf() for _ in range(k)]
        while len(level) > 1:
            level = [t.join(level[i], level[i + 1], rng) for i in range(0, len(level), 2)]
        node = t.join(level[0], node, rng)
    t.root = node
    return t


def yule(n: int, rng: random.Random) -> GenTree:
    """Yule model: each n-leaf clade splits into k and n - k, k uniform on 1..n-1."""
    t = GenTree("yule")
    # Post-order construction with an explicit stack of pending sizes.
    built: list[int] = []
    stack = [(n, False)]
    while stack:
        size, ready = stack.pop()
        if size == 1:
            built.append(t.leaf())
        elif ready:
            b = built.pop()
            a = built.pop()
            built.append(t.join(a, b, rng))
        else:
            k = rng.randint(1, size - 1)
            stack.append((size, True))
            stack.append((size - k, False))
            stack.append((k, False))
    t.root = built[0]
    return t


def pda(n: int, rng: random.Random) -> GenTree:
    """Uniform (PDA) model by Remy's algorithm: graft each new leaf onto a uniform edge."""
    t = GenTree("pda")
    parent = [-1]
    t.leaf()
    t.root = 0
    for _ in range(n - 1):
        e = rng.randrange(len(parent))
        q = t.leaf()
        parent.append(-1)
        if rng.random() < 0.5:
            t.left.append(e)
            t.right.append(q)
        else:
            t.left.append(q)
            t.right.append(e)
        p = len(t.left) - 1
        parent.append(parent[e])
        up = parent[e]
        if up == -1:
            t.root = p
        elif t.left[up] == e:
            t.left[up] = p
        else:
            t.right[up] = p
        parent[e] = p
        parent[q] = p
    return t


def to_newick(t: GenTree, rng: random.Random, branch_lengths: bool) -> str:
    """Write ``t`` with random alphanumeric leaf labels, one statement per file."""
    out: list[str] = []
    # Work items are node indices or literal tokens, popped in output order.
    stack: list = [t.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        length = f":{rng.random():.5f}" if branch_lengths else ""
        if t.left[item] == -1:
            out.append("".join(rng.choices(_LABEL_CHARS, k=rng.randint(2, 8))) + length)
        else:
            stack.extend((length, ")", t.right[item], ",", t.left[item], "("))
    return "".join(out) + ";\n"


@dataclass
class Op:
    """One CLI invocation of a workload: arguments after ``treebalance``.

    ``spec`` holds what the oracle and the traced run need to repeat it.
    """

    op_id: str
    argv: "list[str]"
    spec: dict


# (family, size, method) per compute-newick slot.  Sizes are fixed so the
# work does not depend on the seed; caterpillars above about 9900 leaves
# hit the int-to-str limit and stay in on purpose.  Balanced slots give h.
COMPUTE_SLOTS = (
    ("caterpillar", 1000, "direct"),
    ("caterpillar", 6000, "both"),
    ("caterpillar", 9000, "direct"),
    ("caterpillar", 12000, "both"),
    ("caterpillar", 16000, "direct"),
    ("balanced", 10, "both"),
    ("balanced", 13, "direct"),
    ("balanced", 16, "both"),
    ("echelon", 3000, "both"),
    ("echelon", 15000, "direct"),
    ("yule", 2000, "direct"),
    ("yule", 16000, "both"),
    ("pda", 4000, "both"),
    ("pda", 20000, "direct"),
)

_BUILDERS = {
    "caterpillar": caterpillar,
    "balanced": fully_balanced,
    "echelon": echelon,
    "yule": yule,
    "pda": pda,
}

# (bit length, set bits, parity) per max-value slot.  The last has so many
# set bits that the recursive formula overflows Python's recursion limit.
MAXVALUE_SLOTS = (
    (40, 20, 1),
    (200, 100, 0),
    (1000, 400, 1),
    (2500, 600, 0),
    (3000, 300, 1),
    (2400, 1100, 0),
)
TABLE_ROWS = 100_000
VERIFY_MAX_N = 17
EMIT_NS = (16, 17)


def random_n(bits: int, ones: int, parity: int, rng: random.Random) -> int:
    """An integer of exactly ``bits`` bits, ``ones`` of them set, with the given low bit."""
    middle = rng.sample(range(1, bits - 1), ones - 1 - parity)
    return (1 << (bits - 1)) | parity | sum(1 << b for b in middle)


def compute_newick(seed: int, workdir: str) -> "list[Op]":
    """Write the Newick corpus under ``workdir`` and return one op per file."""
    rng = random.Random(f"compute-newick:{seed}")
    ops = []
    for i, (family, size, method) in enumerate(COMPUTE_SLOTS):
        tree = _BUILDERS[family](size, rng)
        text = to_newick(tree, rng, branch_lengths=family in ("yule", "pda"))
        path = f"{workdir}/{i:02d}-{family}-{tree.leaves}.nwk"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["compute", path] + ([] if method == "direct" else ["--method", method])
        ops.append(Op(f"compute:{family}:{tree.leaves}:{method}", argv, {"kind": "compute", "path": path, "method": method, "tree": tree}))
    return ops


def extremal_enum(seed: int) -> "list[Op]":
    """verify near the enumeration ceiling plus two --emit-newick listings.

    No --jobs flag, so the CLI's default pool is what gets measured.  The
    inputs are fixed by definition; the seed only orders the operations.
    """
    rng = random.Random(f"extremal-enum:{seed}")
    ops = [Op(f"verify:{VERIFY_MAX_N}", ["verify", "--max-n", str(VERIFY_MAX_N)],
              {"kind": "verify", "max_n": VERIFY_MAX_N})]
    for k in EMIT_NS:
        ops.append(Op(f"emit:{k}", ["enumerate", "--n", str(k), "--emit-newick"],
                      {"kind": "emit", "n": k}))
    rng.shuffle(ops)
    return ops


def maxvalue_table(seed: int) -> "list[Op]":
    """One long table plus single max-value queries from tens to thousands of bits."""
    rng = random.Random(f"maxvalue-table:{seed}")
    lo = 1 + rng.randrange(1000)
    hi = lo + TABLE_ROWS - 1
    ops = [Op(f"table:{lo}-{hi}", ["table", "--from", str(lo), "--to", str(hi)],
              {"kind": "table", "lo": lo, "hi": hi})]
    for bits, ones, parity in MAXVALUE_SLOTS:
        n = random_n(bits, ones, parity, rng)
        ops.append(Op(f"max-value:{bits}b:{ones}ones", ["max-value", "--n", str(n), "--method", "all"],
                      {"kind": "maxvalue", "n": n}))
    rng.shuffle(ops)
    return ops
