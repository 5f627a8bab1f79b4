import random

import pytest
from hypothesis import given, strategies as st

from treebalance.families import caterpillar, echelon, fully_balanced
from treebalance.newick import (
    NewickArityError,
    NewickDocument,
    NewickError,
    parse_newick,
    write_newick,
    write_shapes,
)
from treebalance.shapes import enumerate_shapes
from treebalance.tree import Tree, _postorder, canonical, is_isomorphic

trees = st.recursive(st.builds(Tree), lambda sub: st.builds(Tree, sub, sub), max_leaves=24)
# Mostly readable characters, so that many documents get past construction.
label_text = st.text(
    alphabet=st.one_of(st.sampled_from("Ab1_.-'[] \t\n\u00a0(),;:\ufeff"), st.characters()),
    max_size=4,
)


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

    @given(st.text(alphabet="();,:AB1.-e+ \n\t\r\xa0\u2028\ufeff\u0661", max_size=50))
    def test_never_crashes_on_arbitrary_input(self, text):
        try:
            parse_newick(text)
        except NewickError as exc:
            assert 0 <= exc.offset <= len(text)
            assert f"(offset {exc.offset})" in str(exc)


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


def written_in_code_order(shapes):
    """The reference for ``write_shapes``: sort by canonical code, write each."""
    return [write_newick(NewickDocument(s)) for s in sorted(shapes, key=canonical)]


def swapped_copy(t, rng):
    """A copy of ``t`` built from new nodes, children swapped at random."""
    if t.is_leaf:
        return Tree()
    a, b = swapped_copy(t.left, rng), swapped_copy(t.right, rng)
    return Tree(b, a) if rng.random() < 0.5 else Tree(a, b)


class TestWriteShapes:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_child_swapped_copies_in_shuffled_order(self, n):
        # New nodes in another order: neither the cache's child order nor its
        # shape order can carry the result.
        rng = random.Random(n)
        copies = [swapped_copy(s, rng) for s in enumerate_shapes(n)]
        rng.shuffle(copies)
        assert list(write_shapes(copies)) == written_in_code_order(enumerate_shapes(n))

    def test_mixed_leaf_counts_sort_as_their_codes(self):
        shapes = [s for n in range(1, 8) for s in enumerate_shapes(n)]
        shapes += [Tree(), echelon(5)]
        random.Random(0).shuffle(shapes)
        assert list(write_shapes(iter(shapes))) == written_in_code_order(shapes)


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
