"""Newick reading and writing for strictly binary trees.

Grammar, where whitespace (newlines included) may surround ``(``, ``,``,
``)``, ``;`` and a leaf's label, an internal label follows its ``)``
directly, and ``name:length`` has no space inside it:

    tree    := subtree ';'
    subtree := leaf | '(' subtree ',' subtree ')' label?
    leaf    := label?
    label   := unquoted-name (':' branch-length)?

An unquoted name is any run of characters other than whitespace,
``(),;:`` and U+FEFF.  A branch length is an ASCII decimal number such as
``1``, ``-0.5``, ``.5`` or ``1e-3``; ``nan``, ``inf``, ``1_0`` and
non-ASCII digits are rejected.  Branch lengths and internal labels are
parsed and discarded.  Quoted labels and comments are not supported.  One
leading byte-order mark (U+FEFF) is skipped; error offsets still index the
original text.  A node with one child or three or more children raises
:class:`NewickArityError` at the offset of its opening parenthesis;
malformed input raises :class:`NewickError` with the offending offset.
Exactly one statement per input: anything other than whitespace after the
';' is an error.

The parser and writer are both iterative, so arbitrarily deep trees are
handled without recursion limits.  The parser shares equal ordered
subtrees (hash-consing): all leaves of one parse are one object, and an
internal node whose two children, in that order, are the same objects as
another's is that other node.  A shape then holds one node per distinct
ordered subtree, which the identity-keyed walks of ``tree`` and
``stairs2`` visit once each; leaf order, and with it the labels, is
unchanged.  The writer emits only what the parser reads back:
``NewickDocument`` rejects any label that is not an unquoted name.
"""

import re
from dataclasses import dataclass

from .tree import Tree, decompose

# An unquoted name, shared by the parser's scanner and the label check;
# ``\s`` matches exactly the characters for which ``str.isspace`` is true.
_NAME = re.compile(r"[^\s();,:\ufeff]*")
_BRANCH_LENGTH = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")
# One token: leading space, a label, an optional branch length, and the
# next character (a delimiter, an offending character, or '' at the end).
_TOKEN = re.compile(rf"(\s*)({_NAME.pattern})(?::({_NAME.pattern}))?\s*(.?)", re.S)


class NewickError(ValueError):
    """Malformed Newick input; ``offset`` points at the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class NewickArityError(NewickError):
    """A node in the input is not strictly binary."""


@dataclass(frozen=True)
class NewickDocument:
    """A binary tree shape plus optional leaf labels.

    ``labels``, when present, gives one label per leaf in the shape's
    left-to-right leaf order; labels need not be unique and may be empty
    strings, but each must be an unquoted name (see the module docstring),
    so that the written document parses back.  ``labels is None`` means the
    document carries no labels at all (the writer then synthesizes t1, t2,
    ...); a tuple of empty labels is stored as None.
    """

    shape: Tree
    labels: "tuple[str, ...] | None" = None

    def __post_init__(self):
        if self.labels is None:
            return
        labels = tuple(self.labels)
        if len(labels) != self.shape.leaf_count:
            raise ValueError("need exactly one label per leaf")
        for label in labels:
            if not isinstance(label, str) or not _NAME.fullmatch(label):
                raise ValueError(f"label {label!r} is not an unquoted Newick name")
        object.__setattr__(self, "labels", labels if any(labels) else None)


def parse_newick(text: str) -> NewickDocument:
    """Parse one Newick statement into a :class:`NewickDocument`.

    The resulting shape mirrors the parenthesization exactly, with equal
    ordered subtrees shared as one object.  If no leaf carries a label the
    document's ``labels`` is None; otherwise unlabeled leaves get the empty
    string.
    """
    begin = 1 if text.startswith("\ufeff") else 0
    # Open internal nodes: (collected children, offset of their '(').
    stack: "list[tuple[list[Tree], int]]" = []
    labels: list[str] = []
    leaf = Tree()
    # Hash-consing: one node per ordered child pair.  Keyed on identities,
    # which the table keeps alive; ``Tree.__hash__`` would build codes.
    interned: "dict[tuple[int, int], Tree]" = {}
    node = None  # the completed subtree awaiting its delimiter, if any
    tokens = _TOKEN.finditer(text, begin)
    for m in tokens:
        space, label, length, ch = m.groups()
        if node is None:
            if ch == "(" and not label and length is None:
                stack.append(([], m.end() - 1))
                continue
            labels.append(label)
            node = leaf
        elif space and (label or length is not None):
            at = m.end(1)  # an internal label follows its ')' directly
            break
        if length is not None and not _BRANCH_LENGTH.fullmatch(length):
            raise NewickError("invalid branch length", m.start(3))
        if stack:
            children, open_at = stack[-1]
            children.append(node)
            if ch == ",":
                if len(children) > 1:
                    raise NewickArityError("node has more than two children", open_at)
                node = None
                continue
            if ch == ")":
                if len(children) != 2:
                    raise NewickArityError("node has fewer than two children", open_at)
                stack.pop()
                key = (id(children[0]), id(children[1]))
                node = interned.get(key)
                if node is None:
                    node = interned[key] = Tree(*children)
                continue
        elif ch == ";":
            at = next(tokens).end(1)
            if at < len(text):
                raise NewickError("unexpected content after ';'", at)
            return NewickDocument(node, tuple(labels))
        at = m.end() - len(ch)
        break
    # ``at`` is the offending character, or the end of the text.
    found = text[at : at + 1]
    if stack:
        message = f"expected ',' or ')', found {found!r}" if found else "unexpected end of input"
    elif m.start() == begin and m.end(1) == len(text):
        raise NewickError("empty input", 0)
    else:
        message = "unbalanced parentheses: ')' without '('" if found == ")" else "expected ';'"
    raise NewickError(message, at)


def write_newick(doc: NewickDocument) -> str:
    """Serialize a document to a single Newick statement.

    Children are emitted in canonical order (larger subtree first, code as
    tie-break), so unlabeled output is deterministic per shape; labels
    follow their leaves through the reordering.  Missing labels come out
    as t1, t2, ... numbered in output order.  No branch lengths.
    """
    shape, labels = doc.shape, doc.labels
    out: list[str] = []
    next_auto = 1
    # Work items are literal tokens or (node, stored-order leaf offset).
    stack: list = [(shape, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, offset = item
        if node.left is None:
            if labels is None:
                out.append(f"t{next_auto}")
                next_auto += 1
            else:
                out.append(labels[offset])
            continue
        first, second = decompose(node)
        if first is node.left:
            first_off, second_off = offset, offset + first.leaf_count
        else:
            first_off, second_off = offset + second.leaf_count, offset
        stack.append(")")
        stack.append((second, second_off))
        stack.append(",")
        stack.append((first, first_off))
        stack.append("(")
    return "".join(out) + ";"
