"""Parsers and report serialization.

Two input grammars are supported: a Newick subset (absent branch lengths
default to 1, lengths must be positive) and a tab-separated edge list with
an optional ``# root <id>`` header.  Reports are JSON in the layout of
``json.dumps(indent=2)``, in insertion key order, with floats in their
shortest round-trip form, so identical inputs produce byte-identical
documents.  :func:`emit_report` writes each as one list of tokens joined
once, strings escaped by ``json.encoder.encode_basestring``.
"""

from __future__ import annotations

import math
import re
from itertools import islice, repeat
from json.encoder import encode_basestring as _escape
from typing import Dict, List, Optional, Tuple

from .errors import (
    DuplicateVertex,
    EmptyTree,
    NewickSyntaxError,
    NonPositiveBranchLength,
    ParseError,
    check_finite,
)
from .tree import MetricTree, build_tree

__all__ = [
    "parse_newick",
    "parse_edge_list",
    "parse_eta_list",
    "emit_newick",
    "emit_report",
]

# A Newick label: a nonempty run of characters the grammar does not reserve.
_LABEL = re.compile(r"[^\s();,:]+")
# One Newick token: punctuation, ':' and a branch length (spacing allowed
# between them), or a label.  The tokens tile the text but for its spacing.
_TOKEN = re.compile(rf"[(),;]|:\s*[\d+\-.eE]*|{_LABEL.pattern}")
# The same tokens, but a label that spacing parts from a ')' or a length
# (or a label, which is an error either way) keeps that spacing.
_SPACED_TOKEN = re.compile(rf"(?<=[)\d+\-.eE])\s+{_LABEL.pattern}|{_TOKEN.pattern}")
# The first characters of the tokens that are not labels.  " " starts a
# label kept apart by spacing, and the token that ends every token list.
_NOT_LABEL = "(),;: "
# Edge-list and eta texts whose rows are not comments and hold no spacing
# but one tab between fields and a newline after: they split in one call.
_EDGE_ROWS = re.compile(r"(?:[^\s#]\S*\t\S+\t\S+(?:\n|\Z))+")
_ETA_ROWS = re.compile(r"(?:[^\s#]\S*\t\S+(?:\n|\Z))+")
# The key types emit_report prints as they are, and the value types of a
# dict it writes in one join.
_STR = {str}
_FLOAT = {float}


def parse_newick(text: str) -> MetricTree:
    """Parse a single Newick statement into a metric tree.

    Unlabeled internal nodes are named ``_1``, ``_2``, ... in the order
    their groups close, skipping every explicit label of the statement.
    The parsed tree is re-rooted at its lexicographically smallest leaf, so
    the Newick root plays no special role afterwards.
    """
    if "_" in text or len(text.split(None, 1)) > 1:
        # A label kept with its spacing becomes " label", which reads as no
        # label: it neither names the group nor continues the length.  A
        # length drops its spacing, which float() does not always strip.
        tokens = [
            ":" + t[1:].lstrip() if t[0] == ":" else " " + t.lstrip() if t[0].isspace() else t
            for t in _SPACED_TOKEN.findall(text)
        ]
    else:
        # Text without spacing between tokens splits into _TOKEN's tokens at
        # its punctuation, but where a length runs into a label (1x, 1²).
        # float() rejects such a token, and the text is read again by _TOKEN;
        # it would read 1_0 whole, so text with a '_' takes the branch above.
        tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ")
        tokens = tokens.replace(";", " ; ").replace(":", " :").split()
        tree = _read_newick(text, tokens, exact=False)
        if tree is not None:
            return tree
        tokens = _TOKEN.findall(text)
    return _read_newick(text, tokens, exact=True)


def _read_newick(text: str, tokens: List[str], exact: bool) -> Optional[MetricTree]:
    """The tree of ``text`` from its tokens; None at a bad length unless ``exact``."""
    tokens.append(" ")
    if tokens[0] == " " or tokens[0] == ";":
        raise EmptyTree("the Newick statement has no vertices")
    # Only outside ASCII can a length run on through a digit that is not
    # decimal (``²``) into the next token.
    odd_digits = not text.isascii()
    seen: set = set()
    edges: list = []
    # The innermost open group: the token index of its '(', and its
    # children's labels and lengths (None outside every group); the groups
    # around it in ``outer``.  An unlabeled group is an int until its name
    # is known.
    open_at, kids, lengths = 0, None, None
    outer: List[tuple] = []
    unnamed = 0
    k = 0
    while True:
        label = tokens[k]
        k += 1
        if label == "(":
            outer.append((open_at, kids, lengths))
            open_at, kids, lengths = k - 1, [], []
            continue
        if label[0] in _NOT_LABEL:
            _fail(text, "expected a label or '('", k - 1)
        if label in seen:
            raise DuplicateVertex(f"label {label!r} appears more than once")
        seen.add(label)
        # ``label`` names a finished subtree: read its length, attach it to
        # the innermost group, and close every group it completes.  A ','
        # starts the next sibling; running out of groups ends the statement.
        while True:
            punct = tokens[k]
            weight = 1.0
            if punct[0] == ":":
                try:
                    weight = float(punct[1:])
                except ValueError:
                    weight = math.nan
                punct = tokens[k + 1]
                if not 0.0 < weight < math.inf or (odd_digits and punct[0].isdigit()):
                    if not exact:
                        return None
                    _bad_length(text, k)
                k += 1
            if kids is None:
                break
            kids.append(label)
            lengths.append(weight)
            k += 1
            if punct == ",":
                break
            if punct != ")":
                if punct == ";" or punct == " ":
                    _fail(text, "unclosed group", open_at)
                _fail(text, "expected ',' or ')'", k - 1)
            label = tokens[k]
            if label[0] in _NOT_LABEL:
                label = unnamed
                unnamed += 1
            else:
                if label in seen:
                    raise DuplicateVertex(f"label {label!r} appears more than once")
                seen.add(label)
                k += 1
            edges.extend(zip(kids, repeat(label), lengths))
            open_at, kids, lengths = outer.pop()
        if kids is None:
            break
    if punct != ";":
        _fail(text, "expected ';'", k)
    if tokens[k + 1] != " ":
        _fail(text, "unexpected text after ';'", k + 1)

    if unnamed:
        names: Dict[object, str] = {}
        count = 0
        for group in range(unnamed):
            count += 1
            while f"_{count}" in seen:
                count += 1
            names[group] = f"_{count}"
        seen.update(names.values())
        edges = [(names.get(u, u), names.get(v, v), w) for u, v, w in edges]
    return build_tree(seen, edges, root=None)


def _token_at(text: str, k: int) -> Optional[re.Match]:
    """The ``k``-th token of ``text``, or None past the last."""
    return next(islice(_TOKEN.finditer(text), k, None), None)


def _fail(text: str, message: str, k: int) -> None:
    """Raise ``message`` at the ``k``-th token of ``text``, or at its end."""
    match = _token_at(text, k)
    raise NewickSyntaxError(message, match.start() if match else len(text))


def _bad_length(text: str, k: int) -> None:
    """Raise the error of the branch length in the ``k``-th token of ``text``.

    Read again as a run of digits and ``+-.eE``, the length runs on through
    the digits the token stops at, those that are not decimal.  An empty
    run is named by the text up to the next delimiter: ``'inf'``, ``'x'``.
    """
    match = _token_at(text, k)
    start = end = match.end() - len(match.group()[1:].lstrip())
    while end < len(text) and (text[end].isdigit() or text[end] in "+-.eE"):
        end += 1
    try:
        value = float(text[start:end])
    except ValueError:
        label = _LABEL.match(text, start)
        if start == end and label:
            end = label.end()
        raise NewickSyntaxError(f"malformed branch length {text[start:end]!r}", start) from None
    check_finite(value, f"branch length at position {start}", NonPositiveBranchLength, positive=True)


def parse_edge_list(text: str) -> MetricTree:
    """Parse tab-separated ``left<TAB>right<TAB>weight`` lines.

    ``#`` starts a comment line; a ``# root <id>`` header fixes the root.
    """
    if _EDGE_ROWS.fullmatch(text):
        fields = text.split()
        try:
            weights = list(map(float, fields[2::3]))
        except ValueError:
            pass  # read row by row, which names the line
        else:
            lefts, rights = fields[0::3], fields[1::3]
            return build_tree({*lefts, *rights}, zip(lefts, rights, weights))
    root: Optional[str] = None
    edges: List[list] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) >= 1 and fields[0] == "root":
                if len(fields) != 2:
                    raise ParseError("root header needs exactly one vertex id", lineno)
                if root is not None:
                    raise ParseError("duplicate root header", lineno)
                root = fields[1]
            continue
        edges.append(_fields(raw, lineno, ("left", "right", "weight")))
    if not edges:
        raise EmptyTree("the edge list has no vertices")
    lefts, rights, _ = zip(*edges)
    return build_tree({*lefts, *rights}, edges, root=root)


def parse_eta_list(text: str) -> List[Tuple[str, float]]:
    """Parse ``vertex<TAB>signed-weight`` lines for inequality checks."""
    if _ETA_ROWS.fullmatch(text):
        fields = text.split()
        try:
            return list(zip(fields[0::2], map(float, fields[1::2])))
        except ValueError:
            pass  # read row by row, which names the line
    rows: List[Tuple[str, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        vertex, value = _fields(raw, lineno, ("vertex", "weight"))
        rows.append((vertex, value))
    return rows


def _fields(raw: str, lineno: int, layout: Tuple[str, ...]) -> list:
    """The nonblank tab-separated fields of one row, the last as a float."""
    fields = list(filter(None, map(str.strip, raw.split("\t"))))
    if len(fields) != len(layout):
        raise ParseError(
            f"expected {'<TAB>'.join(layout)!r}, got {len(fields)} fields", lineno
        )
    try:
        fields[-1] = float(fields[-1])
    except ValueError:
        raise ParseError(f"malformed weight {fields[-1]!r}", lineno) from None
    return fields


def emit_newick(tree: MetricTree) -> Optional[str]:
    """Serialize a tree to Newick in one preorder pass.

    The tree hangs from the root leaf's neighbor, the hub, with the root
    leaf as the hub's first child; after it, children follow in preorder,
    which is label order.  Returns None when a label contains a character
    the grammar reserves, since such a tree cannot round-trip through
    :func:`parse_newick`.
    """
    labels = list(map(str, tree.preorder))
    if not (all(labels) and _LABEL.fullmatch("".join(labels))):
        return None
    n = len(labels)
    if n == 1:
        return f"{tree.root};"

    weights = list(map(repr, tree.up_weight))
    weights[0] = weights[1]
    pieces = list(map(":".join, zip(labels, weights)))
    parent = tree.parent_position
    end = list(tree.subtree_end)
    end[1] = 0  # the hub's group closes after the loop
    out = ["(", pieces[0]]
    for i in range(2, n):
        # A first child opens its parent's group; the hub's is open already.
        out.append("(" if parent[i] == i - 1 > 1 else ",")
        if end[i] == i + 1:
            # A leaf: write it, then close every group that it ends.
            out.append(pieces[i])
            j = parent[i]
            while end[j] == i + 1:
                out.append(")" + pieces[j])
                j = parent[j]
    out.append(f"){labels[1]};")
    return "".join(out)


def emit_report(report: Dict) -> str:
    """Serialize a report to JSON with stable key order and float format.

    The layout is that of ``json.dumps(indent=2, ensure_ascii=False)``.
    Keys print as ``str(key)``.  Floats, numpy scalars included, print as
    ``float.__repr__``; NaN prints as ``null`` and infinities as the strings
    ``"Infinity"`` and ``"-Infinity"``.
    """
    out: List[str] = []
    _write(report, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj, out: List[str], indent: str) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``indent`` starts its closing line."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        keys = list(obj)
        values = list(obj.values())
        if set(map(type, keys)) != _STR:
            keys = list(map(str, keys))
            if len(set(keys)) < len(keys):
                # Two keys print alike: the last value wins, at the first one's place.
                merged = dict(zip(keys, values))
                keys, values = list(merged), list(merged.values())
        inner = indent + "  "
        keys = list(map(_escape, keys))
        if set(map(type, values)) == _FLOAT and all(map(math.isfinite, values)):
            out += "{", inner, ("," + inner).join(
                map(": ".join, zip(keys, map(float.__repr__, values)))
            ), indent, "}"
            return
        sep = "{" + inner
        for key, value in zip(keys, values):
            out += sep, key, ": "
            sep = "," + inner
            if isinstance(value, (dict, list, tuple)):
                _write(value, out, inner)
            else:
                out.append(_scalar(value))
        out += indent, "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            sep = "," + inner
            if isinstance(value, (dict, list, tuple)):
                _write(value, out, inner)
            else:
                out.append(_scalar(value))
        out += indent, "]"
    else:
        out.append(_scalar(obj))


def _scalar(obj) -> str:
    """The JSON text of a value that is not a dict, list or tuple."""
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if not isinstance(obj, float):
        obj = float(obj)  # numpy scalars
    if obj != obj:
        return "null"
    if obj == math.inf:
        return '"Infinity"'
    if obj == -math.inf:
        return '"-Infinity"'
    return float.__repr__(obj)
