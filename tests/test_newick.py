import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from treebalance import newick
from treebalance.families import caterpillar, echelon, fully_balanced
from treebalance.newick import (
    NewickArityError,
    NewickDocument,
    NewickError,
    _parse_tokens,
    parse_newick,
    write_newick,
)
from treebalance.shapes import _level, enumerate_shapes, filled_codes
from treebalance.tree import LimitError, Tree, _join, _postorder, canonical, is_isomorphic

trees = st.recursive(st.builds(Tree), lambda sub: st.builds(Tree, sub, sub), max_leaves=24)
# Mostly readable characters, so that many documents get past construction.
label_text = st.text(
    alphabet=st.one_of(st.sampled_from("Ab1_.-'[] \t\n\u00a0(),;:\ufeff"), st.characters()),
    max_size=4,
)


def ordered_form(t):
    """``t`` as its distinct nodes, children first, each with its children's
    numbers: equal forms mean the same child order and the same sharing."""
    number: dict = {}

    def num(v):
        return number.setdefault(id(v), len(number))

    return [(num(v.left), num(v.right), num(v)) for v in _postorder(t)] or [num(t)]


def outcome(parse, text):
    """What ``parse`` makes of ``text``: the error, or the ordered shape and labels."""
    try:
        doc = parse(text)
    except NewickError as exc:
        return type(exc), str(exc), exc.offset
    return ordered_form(doc.shape), doc.labels


def agrees_with_the_token_loop(text):
    """Assert that ``parse_newick`` reads ``text`` as the token loop does;
    return whether the text parsed."""
    got = outcome(parse_newick, text)
    assert got == outcome(_parse_tokens, text)
    accepted = len(got) == 2
    if accepted:
        assert outcome(lambda t: parse_newick(t, labels=False), text) == (got[0], None)
    return accepted


# Valid statements, each mutated by the seeded differential test below.
STATEMENTS = [
    ";",
    "A;",
    ":1;",
    "(,);",
    "(A,);",
    "(A,B);",
    "((A,B),C);",
    "((A:0.1,B:0.2):0.3,C);",
    "((A,B)anc:1.5,C);",
    "  ( A ,\n B ) ;\n",
    "(A:1.,B:.5e-3);",
    "\ufeff((A,B),(C,D));",
    "(((A,B),C),(C,(A,B)));",
    "((,),(,))x:-2;",
    "(A:+2,(B,C)1:1e4) ;",
]
MUTATION_ALPHABET = "();,:AB1.-e+ \n\t\r\xa0\u2028\ufeff\u0661"


class TestParse:
    def test_cherry_with_labels(self):
        doc = parse_newick("(A,B);")
        assert doc.shape.leaf_count == 2
        assert doc.labels == ("A", "B")

    def test_three_leaf_chain(self):
        doc = parse_newick("((A,B),C);")
        assert is_isomorphic(doc.shape, caterpillar(3))
        assert doc.labels == ("A", "B", "C")

    def test_balanced_four(self):
        doc = parse_newick("((A,B),(C,D));")
        assert is_isomorphic(doc.shape, fully_balanced(2))

    def test_branch_lengths_discarded(self):
        doc = parse_newick("((A:0.1,B:0.2):0.3,C);")
        assert is_isomorphic(doc.shape, caterpillar(3))
        assert doc.labels == ("A", "B", "C")

    def test_internal_labels_discarded(self):
        doc = parse_newick("((A,B)anc:1.5,C);")
        assert is_isomorphic(doc.shape, caterpillar(3))
        assert doc.labels == ("A", "B", "C")

    def test_whitespace_and_newlines_tolerated(self):
        doc = parse_newick("  ( A ,\n B ) ;\n")
        assert doc.labels == ("A", "B")

    def test_single_leaf_statements(self):
        assert parse_newick("A;").shape.is_leaf
        assert parse_newick(";").shape.is_leaf

    def test_unlabeled_input_gives_no_labels(self):
        assert parse_newick("(,);").labels is None

    def test_partially_labeled_input_pads_with_empty(self):
        assert parse_newick("(A,);").labels == ("A", "")

    def test_duplicate_labels_allowed(self):
        assert parse_newick("(A,A);").labels == ("A", "A")

    @pytest.mark.parametrize("length", ["1", "1.", ".5", "-0.5", "+2", "1e-3", "2.5E+10"])
    def test_decimal_branch_lengths_parse(self, length):
        assert parse_newick(f"(A:{length},B);").labels == ("A", "B")

    def test_shape_follows_parenthesization(self):
        doc = parse_newick("(((A,B),C),D);")
        assert is_isomorphic(doc.shape, caterpillar(4))

    @given(trees, st.booleans(), st.integers(0, 2**32))
    def test_spaced_written_trees_never_reach_the_token_loop(self, t, lengths, seed):
        rng = random.Random(seed)
        space = lambda: rng.choice(["", "", " ", "\n", "\t", "\xa0", "\r\n  "])
        # Labels alternate with delimiters.  Whitespace goes at the start,
        # after '(', ',' and ';', and before every delimiter.
        pieces = re.split(r"([(),;])", write_newick(NewickDocument(t)))
        text = space()
        for label, delimiter in zip(pieces[::2], pieces[1::2]):
            if lengths and delimiter != "(":
                label += ":" + rng.choice(["1", "0.5", "-2", ".5e-3"])
            text += label + space() + delimiter + ("" if delimiter == ")" else space())
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(newick, "_parse_tokens", lambda text: calls.append(text) or _parse_tokens(text))
            assert agrees_with_the_token_loop(text)
        assert calls == []

    @pytest.mark.parametrize("block", [1, 2, 7, 1 << 16])
    def test_the_skeleton_takes_its_text_a_block_at_a_time(self, monkeypatch, block):
        # About 150000 characters: several default blocks.  The two-byte and
        # three-byte labels put block edges inside labels and characters.
        shape = echelon(12345)
        labels = tuple(f"\xe9{i}\u65e5" for i in range(shape.leaf_count))
        written = " " + write_newick(NewickDocument(shape, labels)) + "\n"
        # A branch length on every edge, and cherries and leaves on either
        # side of a ',': block edges fall inside lengths and inside the
        # folded '(,)', '(,' and ',)'.
        yule = yule_newick(block, 3000)
        delimiters = re.sub(r"[^(),]", "", yule)
        assert "(,)" in delimiters and "(,(" in delimiters and "),)" in delimiters
        calls = []
        monkeypatch.setattr(newick, "_BLOCK", block)
        monkeypatch.setattr(newick, "_parse_tokens", lambda text: calls.append(text) or _parse_tokens(text))
        for text in (written, yule):
            assert agrees_with_the_token_loop(text)
        assert calls == []

    @pytest.mark.parametrize(
        "text,valid",
        [
            ("((A,B),(C,(D,E)));", True),
            ("((A,B)(C,),D);", False),
            ("((A,B)(C,D),E);", False),
            ("(A,B,(C,D));", False),
            ("((A,B),C,D);", False),
            ("(A,B));", False),
        ],
    )
    def test_folded_delimiters_read_alike_at_every_block_edge(self, monkeypatch, text, valid):
        # An edge can split '(,)' into '(,' and ')', or into '(' and ',)'.
        for block in range(1, len(text) + 1):
            monkeypatch.setattr(newick, "_BLOCK", block)
            assert agrees_with_the_token_loop(text) == valid

    def test_parsing_holds_little_beyond_the_tree_it_builds(self):
        # A caterpillar has a distinct node per leaf, each interned once.
        n = 50000
        text = write_newick(NewickDocument(caterpillar(n)))
        tracemalloc.start()
        try:
            doc = parse_newick(text, labels=False)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert doc.shape.leaf_count == n
        # 105 B per node measured: a dict slot and one int key each.  A key
        # that was a tuple of two ids took 174.
        assert peak - held < 125 * n


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("(A,B,C);", 0),
            ("((A,B,C),D);", 1),
            ("(A);", 0),
            ("()", 0),
        ],
    )
    def test_arity_errors_point_at_the_open_paren(self, text, offset):
        with pytest.raises(NewickArityError) as exc:
            parse_newick(text)
        assert exc.value.offset == offset

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),
            ("   ", 0),
            ("(A,B)", 5),
            ("((A,B);", 6),
            ("(A,B));", 5),
            ("(A,B); x", 7),
            ("(A,B);(C,D);", 6),
            ("(A:x,B);", 3),
            ("(A:nan,B);", 3),
            ("(A:inf,B);", 3),
            ("(A:1_0,B);", 3),
            ("(A:\u0661,B);", 3),
            ("\ufeff(A,B)", 6),
            ("\ufeff\ufeff(A,B);", 1),
            ("A,B;", 1),
            ("(A B,C);", 3),
            ("A(B,C);", 1),
            ("(A,B", 4),
            ("(A:1:2,B);", 4),
            ("(A,B)x:1);", 8),
            ("(A,B) x;", 6),
            ("(A :1,B);", 3),
            ("((A,B) :1,C);", 7),
        ],
    )
    def test_parse_errors_carry_offsets(self, text, offset):
        with pytest.raises(NewickError) as exc:
            parse_newick(text)
        assert exc.value.offset == offset
        assert str(exc.value.offset) in str(exc.value)

    @given(st.text(alphabet=MUTATION_ALPHABET, max_size=50))
    def test_never_crashes_on_arbitrary_input(self, text):
        # Same acceptance, ordered shape and labels as the token loop, and
        # every error is the token loop's, message and offset included.
        if not agrees_with_the_token_loop(text):
            with pytest.raises(NewickError) as exc:
                parse_newick(text)
            assert 0 <= exc.value.offset <= len(text)
            assert f"(offset {exc.value.offset})" in str(exc.value)

    def test_mutated_statements_read_as_the_token_loop_reads_them(self):
        rng = random.Random(19)
        accepted = 0
        for _ in range(20000):
            text = rng.choice(STATEMENTS)
            for _ in range(rng.randrange(1, 4)):
                op = rng.randrange(3)  # insert, replace or delete one character
                at = rng.randrange(len(text) + 1)
                char = rng.choice(MUTATION_ALPHABET) if op < 2 else ""
                text = text[:at] + char + text[at + (op > 0) :]
            accepted += agrees_with_the_token_loop(text)
        assert 3000 < accepted < 17000

    @pytest.mark.parametrize(
        "text", ["A;:1", ":1(A,B);", "(A,B);:1", "(A:1:2,B);", "(A,B)x(C,D);", "(A,B)(C,D);", ";;"]
    )
    def test_well_formed_pieces_in_the_wrong_place_are_rejected(self, text):
        assert not agrees_with_the_token_loop(text)

    @pytest.mark.parametrize(
        "text",
        [
            "(A" + " " * 10**6 + "B,C);",  # a space run inside a label
            "(A:" + "1" * 10**6 + "x,B);",  # digits before a bad character
            ":" * 10**6,
            "(" * 10**6,
        ],
        ids=["space-run", "digit-run", "colons", "nested"],
    )
    def test_long_inputs_fail_in_linear_time(self, text):
        start = time.perf_counter()
        with pytest.raises(NewickError):
            parse_newick(text)
        # A quadratic pass would take hours at this size; the token loop's 10**6 steps take seconds.
        assert time.perf_counter() - start < 20

    def test_unclosed_parentheses_cost_a_few_bytes_each(self):
        text = "(" * 10**5
        tracemalloc.start()
        try:
            with pytest.raises(NewickError, match=r"^unexpected end of input \(offset 100000\)$"):
                parse_newick(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.6 MB measured: an offset and a list slot per '('.  A list and a
        # tuple per '(' peaked at 14.6 MB.
        assert peak < 3 * 2**20


class TestWrite:
    def test_unlabeled_cherry(self):
        assert write_newick(NewickDocument(Tree(Tree(), Tree()))) == "(t1,t2);"

    def test_three_leaf_echelon_puts_cherry_first(self):
        assert write_newick(NewickDocument(echelon(3))) == "((t1,t2),t3);"

    def test_fully_balanced_two(self):
        assert write_newick(NewickDocument(fully_balanced(2))) == "((t1,t2),(t3,t4));"

    def test_canonical_reordering_carries_labels_along(self):
        assert write_newick(parse_newick("(C,(A,B));")) == "((A,B),C);"

    def test_labels_on_shared_subtree_objects(self):
        doc = NewickDocument(fully_balanced(2), ("a", "b", "c", "d"))
        assert write_newick(doc) == "((a,b),(c,d));"

    def test_label_list_coerced_to_tuple(self):
        doc = NewickDocument(Tree(Tree(), Tree()), ["x", "y"])
        assert doc.labels == ("x", "y")

    @pytest.mark.parametrize(
        "label", ["a b", "a\tb", "x\u00a0", "a,b", "(", ")", ";", "a:1", "\ufeffa", 3, None]
    )
    def test_unreadable_label_rejected(self, label):
        with pytest.raises(ValueError):
            NewickDocument(Tree(Tree(), Tree()), (label, "c"))

    def test_all_empty_labels_mean_no_labels(self):
        doc = NewickDocument(Tree(Tree(), Tree()), ("", ""))
        assert doc.labels is None
        assert write_newick(doc) == "(t1,t2);"

    def test_replace_checks_labels(self):
        doc = NewickDocument(Tree(Tree(), Tree()), ("a", "c"))
        with pytest.raises(ValueError):
            doc._replace(labels=("a b", "c"))
        assert doc._replace(labels=("", "")).labels is None

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            NewickDocument(Tree(Tree(), Tree()), ("only-one",))

    def test_deep_tree_no_recursion_limit(self):
        text = write_newick(NewickDocument(caterpillar(4000)))
        assert is_isomorphic(parse_newick(text).shape, caterpillar(4000))


class TestRoundTrip:
    @given(trees)
    def test_random_shapes(self, t):
        doc = NewickDocument(t)
        assert is_isomorphic(parse_newick(write_newick(doc)).shape, t)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_shapes(self, n):
        for shape in enumerate_shapes(n):
            parsed = parse_newick(write_newick(NewickDocument(shape)))
            assert is_isomorphic(parsed.shape, shape)

    @given(trees, st.lists(label_text, min_size=1, max_size=24))
    def test_written_labels_read_back(self, t, pool):
        labels = [pool[i % len(pool)] for i in range(t.leaf_count)]
        try:
            doc = NewickDocument(t, labels)
        except ValueError:
            return
        w = write_newick(doc)
        again = parse_newick(w)
        assert is_isomorphic(again.shape, t)
        assert write_newick(again) == w

    def test_labels_survive(self):
        doc = parse_newick("((alpha,beta),gamma);")
        again = parse_newick(write_newick(doc))
        assert again.labels == ("alpha", "beta", "gamma")


def reference_code(t):
    """An order key independent of ``canonical``: "0" per leaf, "1" plus the
    children's codes, by leaf count descending, then code."""
    if t.is_leaf:
        return "0"
    children = sorted((-c.leaf_count, reference_code(c)) for c in (t.left, t.right))
    return "1" + "".join(code for _, code in children)


def written_in_code_order(shapes):
    """The reference for ``enumerate --emit-newick``: sort by the reference code, write each."""
    return [write_newick(NewickDocument(s)) for s in sorted(shapes, key=reference_code)]


def mixed_leaf_counts():
    shapes = [s for n in range(1, 8) for s in enumerate_shapes(n)]
    shapes += [Tree(), echelon(5)]
    random.Random(0).shuffle(shapes)
    return shapes


def swapped_copy(t, rng):
    """A copy of ``t`` built from new nodes, children swapped at random."""
    if t.is_leaf:
        return Tree()
    a, b = swapped_copy(t.left, rng), swapped_copy(t.right, rng)
    return Tree(b, a) if rng.random() < 0.5 else Tree(a, b)


def bare_codes(n):
    """Every n-leaf canonical code, as ``filled_codes`` yields them unfilled."""
    return list(filled_codes(n, ("%s",) * n))


@pytest.fixture(scope="module")
def sorted_levels():
    """The sorted codes of 1..18 leaves, every level built whole and sorted."""
    codes = [[], ["%s"]]
    for m in range(2, 19):
        codes.append(sorted(_level(m, codes, _join)))
    return codes


class TestWriteShapes:
    """Every shape of a leaf count written from its template, as
    ``enumerate --emit-newick`` does: ``shapes.filled_codes``."""

    @pytest.mark.parametrize("n", range(1, 15))
    def test_codes_are_the_shapes_in_reference_order(self, n):
        by_reference = sorted(enumerate_shapes(n), key=reference_code)
        assert bare_codes(n) == [canonical(s) for s in by_reference]

    @pytest.mark.parametrize("n", range(2, 19))
    def test_streamed_codes_are_the_sorted_level(self, sorted_levels, n):
        # Neither the top level nor the two below it are built as lists; the
        # lines must come out in the order of the whole level, sorted.  Even
        # n puts equal halves at the top, and small n first halves whose own
        # halves have one size.
        level = sorted_levels[n]
        assert bare_codes(n) == level
        names = tuple(f"t{i}" for i in range(1, n + 1))
        assert list(filled_codes(n, names, end=";")) == [code % names + ";" for code in level]

    @pytest.mark.parametrize(
        "n,bound,error", [(19, 18, LimitError), (6, 5, LimitError), (0, 18, ValueError), (-3, 18, ValueError)]
    )
    def test_bounds_are_checked_when_called(self, n, bound, error):
        # Raised by the call itself, before anything is drawn from it.
        with pytest.raises(error):
            filled_codes(n, (), bound)

    @pytest.mark.parametrize("n,count", [(1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (4, 5), (17, 16), (18, 19)])
    def test_names_are_checked_when_called(self, n, count):
        # Exactly n names, else ValueError from the call itself, not a
        # formatting error halfway through the lines or extra names ignored.
        with pytest.raises(ValueError, match="names") as raised:
            filled_codes(n, tuple(f"t{i}" for i in range(count)))
        assert type(raised.value) is ValueError

    @pytest.mark.parametrize("n", range(1, 11))
    def test_child_swapped_copies_in_shuffled_order(self, n):
        # New nodes in another order: neither the enumeration's child order
        # nor its shape order can carry the result.
        rng = random.Random(n)
        copies = [swapped_copy(s, rng) for s in enumerate_shapes(n)]
        rng.shuffle(copies)
        names = tuple(f"t{i}" for i in range(1, n + 1))
        assert list(filled_codes(n, names, end=";")) == written_in_code_order(copies)

    def test_codes_cached_on_subtrees_only(self, no_tree):
        # No tree, so no cached code either: the codes are joined as strings.
        assert len(bare_codes(12)) == 451

    def test_mixed_leaf_counts_sort_as_their_codes(self):
        # Codes are prefix-free, so sorted together the levels keep the
        # reference order across leaf counts too.
        every_shape = [s for n in range(1, 8) for s in enumerate_shapes(n)]
        random.Random(0).shuffle(every_shape)
        codes = sorted(code for n in range(1, 8) for code in bare_codes(n))
        assert codes == [canonical(s) for s in sorted(every_shape, key=reference_code)]

    def test_canonical_sorts_as_the_reference_code(self):
        every_shape = [s for n in range(1, 15) for s in enumerate_shapes(n)]
        for shapes in (every_shape, mixed_leaf_counts()):
            by_canonical = sorted(shapes, key=canonical)
            assert list(map(id, by_canonical)) == list(map(id, sorted(shapes, key=reference_code)))


def yule_newick(seed, leaves):
    """Labelled Newick text with branch lengths of a seeded Yule tree: split
    a uniformly drawn tip until there are ``leaves``; labels repeat."""
    rng = random.Random(seed)
    root: list = []
    tips = [root]
    for _ in range(leaves - 1):
        tip = tips.pop(rng.randrange(len(tips)))
        tip.extend(([], []))
        tips.extend(tip)

    def text(node):
        inner = f"L{rng.randrange(12)}" if not node else f"({text(node[0])},{text(node[1])})"
        return f"{inner}:0.{rng.randrange(1, 10)}"

    return text(root) + ";"


# write_newick(parse_newick(yule_newick(2024, 48))) before the parser shared subtrees.
YULE_2024_48_WRITTEN = (
    "(((((((((((((L9,L5),(L10,L5)),L4),L9),L2),L5),(((L9,L5),L7),L5)),L1),L4),((L5,L6),L0)),"
    "((((((((L8,L7),L9),(L2,L3)),L4),L6),((L3,L8),L10)),((L9,L7),(L10,L3))),L7)),"
    "((((((L2,L9),(L9,L8)),(L0,L4)),L1),(((((L5,L11),L11),L9),L9),(L10,L7))),L6)),L7);"
)


def balanced_newick(h):
    """Newick text of a fully balanced tree with 2**h leaves labelled x0, x1, ..."""
    items = [f"x{i}" for i in range(2**h)]
    while len(items) > 1:
        items = [f"({a},{b})" for a, b in zip(items[::2], items[1::2])]
    return items[0] + ";"


def distinct_nodes(t):
    """The distinct internal node objects of ``t`` and the ids of its leaf objects."""
    internal = _postorder(t)
    leaves = {id(c) for v in internal for c in (v.left, v.right) if c.is_leaf}
    return internal, leaves


class TestSharing:
    def test_balanced_tree_has_one_node_per_level(self):
        doc = parse_newick(balanced_newick(16))
        internal, leaves = distinct_nodes(doc.shape)
        assert len(internal) == 16
        assert len(leaves) == 1
        assert doc.shape.leaf_count == 2**16
        assert doc.labels == tuple(f"x{i}" for i in range(2**16))

    @pytest.mark.parametrize("text", [
        write_newick(NewickDocument(caterpillar(500))),
        "(a," * 499 + "b" + ")" * 499 + ";",
    ], ids=["written", "right-leaning"])
    def test_caterpillar_shares_only_its_leaves(self, text):
        internal, leaves = distinct_nodes(parse_newick(text).shape)
        assert len(internal) == 499
        assert len(leaves) == 1

    def test_mirrored_pairs_keep_their_labels(self):
        doc = parse_newick("((A,B),(B,A));")
        assert doc.shape.left is doc.shape.right
        assert doc.labels == ("A", "B", "B", "A")
        assert write_newick(doc) == "((A,B),(B,A));"

    def test_sharing_keys_on_child_order(self):
        doc = parse_newick("(((A,B),C),(C,(A,B)));")
        left, right = doc.shape.left, doc.shape.right
        assert left is not right
        assert left.left is right.right
        assert doc.labels == ("A", "B", "C", "C", "A", "B")
        assert write_newick(doc) == "(((A,B),C),((A,B),C));"

    def test_written_text_is_unchanged_by_sharing(self):
        text = yule_newick(2024, 48)
        doc = parse_newick(text)
        assert len(distinct_nodes(doc.shape)[0]) < 47
        assert write_newick(doc) == YULE_2024_48_WRITTEN
