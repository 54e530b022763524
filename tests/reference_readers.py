"""The tree readers as the row-by-row and five-group-token readers had them.

The differential tests in ``test_io.py`` hold ``treegap.treeio`` to these:
the same tree, or the same exception type, message and line or position,
on any text.  The one change on purpose is the Newick message for a token
other than ',' or ')' after a group member (see ``NEWICK_MEMBER_ERROR``).
"""

from __future__ import annotations

import math
import re
from itertools import islice, repeat
from typing import Dict, List, Optional, Tuple

from treegap.errors import (
    DuplicateVertex,
    EmptyTree,
    NewickSyntaxError,
    NonPositiveBranchLength,
    ParseError,
    check_finite,
)
from treegap.tree import MetricTree, build_tree

# A Newick label: a nonempty run of characters the grammar does not reserve.
_LABEL = re.compile(r"[^\s();,:]+")
# One Newick token after its spacing: punctuation, ':' and a branch length
# (spacing allowed between them), or a label.  The tokens tile the text up
# to its trailing spacing; ``_END`` stands for the end of the text.
_TOKEN = re.compile(rf"(\s*)(?:([(),;])|(:\s*)([\d+\-.eE]*)|({_LABEL.pattern}))")
_END = ("", "", "", "", "")


def parse_newick(text: str) -> MetricTree:
    """Parse a single Newick statement into a metric tree.

    Unlabeled internal nodes are named ``_1``, ``_2``, ... in the order
    their groups close, skipping every explicit label of the statement.
    The parsed tree is re-rooted at its lexicographically smallest leaf, so
    the Newick root plays no special role afterwards.
    """
    tokens = _TOKEN.findall(text) + [_END]
    if tokens[0] is _END or tokens[0][1] == ";":
        raise EmptyTree("the Newick statement has no vertices")
    # Only outside ASCII can a length run on through a digit that is not
    # decimal (``²``) into the next token.
    odd_digits = not text.isascii()
    seen: set = set()
    edges: list = []
    # Open groups, innermost last: the token index of each '(', and its
    # children's labels and lengths.  An unlabeled group is an int until its
    # name is known.
    groups: List[Tuple[int, list, list]] = []
    unnamed = 0
    k = 0
    while True:
        _, punct, _, _, label = tokens[k]
        k += 1
        if punct == "(":
            groups.append((k - 1, [], []))
            continue
        if not label:
            _fail(text, "expected a label or '('", k - 1)
        if label in seen:
            raise DuplicateVertex(f"label {label!r} appears more than once")
        seen.add(label)
        # ``label`` names a finished subtree: read its length, attach it to
        # the innermost group, and close every group it completes.  A ','
        # starts the next sibling; running out of groups ends the statement.
        while True:
            _, punct, colon, length, _ = tokens[k]
            weight = 1.0
            if colon:
                try:
                    weight = float(length)
                except ValueError:
                    weight = math.nan
                nxt = tokens[k + 1]
                if not 0.0 < weight < math.inf or (
                    odd_digits and not nxt[0] and nxt[4][:1].isdigit()
                ):
                    _bad_length(text, k)
                k += 1
                punct = nxt[1]
            if not groups:
                break
            open_at, kids, lengths = groups[-1]
            kids.append(label)
            lengths.append(weight)
            k += 1
            if punct == ",":
                break
            if punct != ")":
                _fail(text, "unclosed group", open_at)
            groups.pop()
            space, _, _, _, label = tokens[k]
            if label and not space:
                if label in seen:
                    raise DuplicateVertex(f"label {label!r} appears more than once")
                seen.add(label)
                k += 1
            else:
                label = unnamed
                unnamed += 1
            edges.extend(zip(kids, repeat(label), lengths))
        if not groups:
            break
    if punct != ";":
        _fail(text, "expected ';'", k)
    if tokens[k + 1] is not _END:
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


def _fail(text: str, message: str, k: int) -> None:
    """Raise ``message`` at the ``k``-th token of ``text``, past its spacing."""
    raise NewickSyntaxError(message, _end_of(text, k, 1))


def _bad_length(text: str, k: int) -> None:
    """Raise the error of the branch length in the ``k``-th token of ``text``.

    Read again as a run of digits and ``+-.eE``, the length runs on through
    the digits the token stops at, those that are not decimal.
    """
    start = end = _end_of(text, k, 3)
    while end < len(text) and (text[end].isdigit() or text[end] in "+-.eE"):
        end += 1
    try:
        value = float(text[start:end])
    except ValueError:
        raise NewickSyntaxError(f"malformed branch length {text[start:end]!r}", start) from None
    check_finite(value, f"branch length at position {start}", NonPositiveBranchLength, positive=True)


def _end_of(text: str, k: int, group: int) -> int:
    """Where ``group`` of the ``k``-th token of ``text`` ends; past the last, the text's end."""
    match = next(islice(_TOKEN.finditer(text), k, None), None)
    return match.end(group) if match else len(text)


def parse_edge_list(text: str) -> MetricTree:
    """Parse tab-separated ``left<TAB>right<TAB>weight`` lines.

    ``#`` starts a comment line; a ``# root <id>`` header fixes the root.
    """
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
