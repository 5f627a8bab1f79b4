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

Parsing takes one of two paths, chosen by the input alone.  A valid
statement is read from its skeleton: whitespace at its ends is stripped,
and whitespace inside, only if ``split`` finds any, goes by one regex
pass where the grammar allows it; one search rejects any ``:`` that does
not start a well-formed branch length, another a label before ``(``, and
the labels and lengths are dropped, so that one Python loop runs over the
delimiters ``(),`` only, taking the text a block at a time, with
``(,)``, ``(,`` and ``,)`` each folded into one symbol first; the leaf
labels, when wanted, come from one ``findall``.
Any text that path rejects goes to a loop with one regex match per
token, which finds the first error and its offset.  Every pass is linear
in the text.
"""

import re
from array import array
from collections import namedtuple

from .tree import Tree, decompose

# Every pattern is a string, compiled on first use through ``re``'s cache,
# so that commands which parse nothing do not pay for them at start-up.
# An unquoted name, shared by the parser's scanner and the label check;
# ``\s`` matches exactly the characters for which ``str.isspace`` is true.
_NAME = r"[^\s();,:\ufeff]*"
_MANTISSA = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_EXPONENT = r"[eE][+-]?[0-9]+"
_BRANCH_LENGTH = rf"{_MANTISSA}(?:{_EXPONENT})?"
# One token: leading space, a label, an optional branch length, and the
# next character (a delimiter, an offending character, or '' at the end);
# compiled with re.S.
_TOKEN = rf"(\s*)({_NAME})(?::({_NAME}))?\s*(.?)"
# The skeleton path's patterns.  Each pass is linear in the text and scans
# for its first character in C.
# Whitespace the grammar allows inside a stripped statement: a run after '('
# or ',', or a run that ends at a delimiter; the lookbehinds try a run only
# at its first character.
_SPACE = r"\s(?:(?<=[(,]\s)\s*|(?<!\s\s)\s*(?=[(),;]))"
# A ':' that does not start a well-formed length ending at ')', ',' or ';'.
# The exponent is an alternative to the delimiter, not an optional group,
# which makes the common length without one cheaper.  A length at the end,
# or a ':' after ';', needs no check: the statement must end at its one ';'.
_BAD_COLON = rf":(?!{_MANTISSA}(?:[),;]|{_EXPONENT}[),;]))"
# A '(' after a label or a length; the loop rejects one after ')'.
_LABEL_BEFORE_OPEN = r"\((?<![(),;]\()(?<!^\()"
# A leaf's label follows '(' or ',', ends at its length if any, and precedes no '('.
_LEAF_LABEL = r"[(,]([^(),;:]*)(?::[^(),;]*)?(?!\()"
_NOT_NODE_BYTES = bytes(set(range(256)).difference(b"(),"))
_OPEN, _CLOSE, _COMMA = b"(),"
# The skeleton loop's folded symbols, written into each block in this order:
# a cherry '(,)', an open node whose first child is a leaf '(,', and a close
# whose second child is a leaf ',)'.
_CHERRY, _OPEN_LEAF, _CLOSE_LEAF = b"^[]"
#: Characters the skeleton loop encodes and strips at a time.
_BLOCK = 1 << 16


class NewickError(ValueError):
    """Malformed Newick input; ``offset`` points at the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class NewickArityError(NewickError):
    """A node in the input is not strictly binary."""


class NewickDocument(namedtuple("NewickDocument", "shape labels")):
    """A binary tree shape plus optional leaf labels.

    ``labels``, when present, gives one label per leaf in the shape's
    left-to-right leaf order; labels need not be unique and may be empty
    strings, but each must be an unquoted name (see the module docstring),
    so that the written document parses back.  ``labels is None`` means the
    document carries no labels at all (the writer then synthesizes t1, t2,
    ...); a tuple of empty labels is stored as None.  A document is an
    immutable named pair; ``_replace`` checks its labels as the
    constructor does.
    """

    __slots__ = ()

    def __new__(cls, shape: Tree, labels: "tuple[str, ...] | None" = None):
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != shape.leaf_count:
                raise ValueError("need exactly one label per leaf")
            is_name = re.compile(_NAME).fullmatch
            for label in labels:
                if not isinstance(label, str) or not is_name(label):
                    raise ValueError(f"label {label!r} is not an unquoted Newick name")
            labels = labels if any(labels) else None
        return super().__new__(cls, shape, labels)

    # ``_replace`` builds its result with ``_make``; send that through the checks too.
    _make = classmethod(lambda cls, it: cls(*it))


def parse_newick(text: str, labels: bool = True) -> NewickDocument:
    """Parse one Newick statement into a :class:`NewickDocument`.

    The resulting shape mirrors the parenthesization exactly, with equal
    ordered subtrees shared as one object.  If no leaf carries a label the
    document's ``labels`` is None; otherwise unlabeled leaves get the empty
    string.  With ``labels=False`` the labels are not collected and
    ``labels`` is None.
    """
    return _parse_skeleton(text, labels) or _parse_tokens(text)


def _parse_skeleton(text: str, labels: bool) -> "NewickDocument | None":
    """The document of a valid statement, or None for the token loop to explain."""
    if text.startswith("\ufeff"):
        text = text[1:]
    # Whitespace at the ends goes by a strip, and ``split`` finds whitespace
    # inside far faster than a regex; only then does the regex pass run, and
    # any whitespace it leaves is an error.
    text = text.strip()
    if len(text.split(None, 1)) > 1:
        text = re.sub(_SPACE, "", text)
        if len(text.split(None, 1)) > 1:
            return None
    if ":" in text and re.search(_BAD_COLON, text):
        return None
    if "\ufeff" in text or re.search(_LABEL_BEFORE_OPEN, text):
        return None
    if not text.endswith(";") or text.find(";") < len(text) - 1:
        return None
    leaf = Tree()
    leaf_id = id(leaf)
    cherry = Tree(leaf, leaf)
    interned: "dict[int, Tree]" = {leaf_id << 64 | leaf_id: cherry}
    # First children of the open nodes; None until the node's ',' is read.
    stack: "list[Tree | None]" = []
    node = None  # the completed internal node awaiting its delimiter, if any
    # The delimiters are ASCII, so every label's bytes, every length and the
    # final ';' go at once; a block at a time, so that no copy of the whole
    # text is made.  A folded symbol does what its delimiters would do.
    for start in range(0, len(text), _BLOCK):
        block = text[start : start + _BLOCK].encode("utf-8", "surrogatepass")
        skeleton = block.translate(None, _NOT_NODE_BYTES)
        for ch in skeleton.replace(b"(,)", b"^").replace(b"(,", b"[").replace(b",)", b"]"):
            if ch == _OPEN:
                if node is not None:
                    return None
                stack.append(None)
            elif ch == _CLOSE:
                first = stack.pop() if stack else None
                if first is None:
                    return None
                second = node or leaf
                key = id(first) << 64 | id(second)
                node = interned.get(key)
                if node is None:
                    node = interned[key] = Tree(first, second)
            elif ch == _CHERRY:
                if node is not None:
                    return None
                node = cherry
            elif ch == _COMMA:
                if not stack or stack[-1] is not None:
                    return None
                stack[-1] = node or leaf
                node = None
            elif ch == _OPEN_LEAF:
                if node is not None:
                    return None
                stack.append(leaf)
            else:  # _CLOSE_LEAF
                if not stack or stack.pop() is not None:
                    return None
                first = node or leaf
                key = id(first) << 64 | leaf_id
                node = interned.get(key)
                if node is None:
                    node = interned[key] = Tree(first, leaf)
    if stack:
        return None
    if not labels:
        return NewickDocument(node or leaf)
    # A lone leaf follows no '(' or ','; its label is all that precedes its
    # length or the ';'.
    found = tuple(re.findall(_LEAF_LABEL, text)) if node else (text[:-1].partition(":")[0],)
    # The passes above have checked every label, so skip the constructor's checks.
    return tuple.__new__(NewickDocument, (node or leaf, found if any(found) else None))


def _parse_tokens(text: str) -> NewickDocument:
    """One regex match and one step per token; reports the first error's offset."""
    begin = 1 if text.startswith("\ufeff") else 0
    # Open internal nodes: the offset of each one's '(', and its first child,
    # None until its ',' is read.  Eight bytes and a list slot per '('.
    opens = array("q")
    stack: "list[Tree | None]" = []
    labels: list[str] = []
    leaf = Tree()
    # Hash-consing: one node per ordered child pair, keyed by one int made
    # of the two identities (each below 2**64), which the table keeps alive;
    # ``Tree.__hash__`` would build codes.
    interned: "dict[int, Tree]" = {}
    node = None  # the completed subtree awaiting its delimiter, if any
    is_length = re.compile(_BRANCH_LENGTH).fullmatch
    tokens = re.compile(_TOKEN, re.S).finditer(text, begin)
    for m in tokens:
        space, label, length, ch = m.groups()
        if node is None:
            if ch == "(" and not label and length is None:
                opens.append(m.end() - 1)
                stack.append(None)
                continue
            labels.append(label)
            node = leaf
        elif space and (label or length is not None):
            at = m.end(1)  # an internal label follows its ')' directly
            break
        if length is not None and not is_length(length):
            raise NewickError("invalid branch length", m.start(3))
        if stack:
            first = stack[-1]
            if ch == ",":
                if first is not None:
                    raise NewickArityError("node has more than two children", opens[-1])
                stack[-1] = node
                node = None
                continue
            if ch == ")":
                if first is None:
                    raise NewickArityError("node has fewer than two children", opens[-1])
                stack.pop()
                opens.pop()
                second = node
                key = id(first) << 64 | id(second)
                node = interned.get(key)
                if node is None:
                    node = interned[key] = Tree(first, second)
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

