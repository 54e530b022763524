"""Parsers and report serialization.

Two input grammars are supported: a Newick subset (absent branch lengths
default to 1, lengths must be positive) and a tab-separated edge list with
an optional ``# root <id>`` header.  Reports are written by the standard
``json`` module in insertion key order, with floats in their shortest
round-trip form, so identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
import re
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


def parse_newick(text: str) -> MetricTree:
    """Parse a single Newick statement into a metric tree.

    Unlabeled internal nodes receive synthetic labels ``_1``, ``_2``, ... in
    the order their groups close.  The parsed tree is re-rooted at its
    lexicographically smallest leaf, so the Newick root plays no special
    role afterwards.
    """
    pos = 0
    n = len(text)
    seen: set = set()
    edges: List[Tuple[str, str, float]] = []
    synth_counter = 0

    def fail(message: str, at: Optional[int] = None) -> None:
        raise NewickSyntaxError(message, pos if at is None else at)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_label() -> str:
        nonlocal pos
        match = _LABEL.match(text, pos)
        if match is None:
            return ""
        pos = match.end()
        return match.group()

    def read_length() -> float:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and (text[pos].isdigit() or text[pos] in "+-.eE"):
            pos += 1
        token = text[start:pos]
        try:
            value = float(token)
        except ValueError:
            fail(f"malformed branch length {token!r}", start)
        return check_finite(
            value, f"branch length at position {start}", NonPositiveBranchLength, positive=True
        )

    def register(label: str) -> None:
        if label in seen:
            raise DuplicateVertex(f"label {label!r} appears more than once")
        seen.add(label)

    skip_ws()
    if pos >= n or text[pos] == ";":
        raise EmptyTree("the Newick statement has no vertices")
    # Open groups, innermost last: where each '(' stands, and its children.
    groups: List[Tuple[int, List[Tuple[str, float]]]] = []
    while True:
        skip_ws()
        if pos < n and text[pos] == "(":
            groups.append((pos, []))
            pos += 1
            continue
        label = read_label()
        if not label:
            fail("expected a label or '('")
        register(label)
        # ``label`` names a finished subtree: attach it to the innermost
        # group, and close every group it completes.  A ',' starts the
        # next sibling; running out of groups ends the whole statement.
        while groups:
            skip_ws()
            weight = 1.0
            if pos < n and text[pos] == ":":
                pos += 1
                weight = read_length()
            open_at, kids = groups[-1]
            kids.append((label, weight))
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
                break
            if pos >= n or text[pos] != ")":
                fail("unclosed group", open_at)
            pos += 1
            groups.pop()
            label = read_label()
            if not label:
                synth_counter += 1
                while f"_{synth_counter}" in seen:
                    synth_counter += 1
                label = f"_{synth_counter}"
            register(label)
            edges.extend((kid, label, w) for kid, w in kids)
        else:
            break
    skip_ws()
    if pos < n and text[pos] == ":":
        pos += 1
        read_length()  # a dangling root length is validated, then discarded
        skip_ws()
    if pos >= n or text[pos] != ";":
        fail("expected ';'")
    pos += 1
    skip_ws()
    if pos < n:
        fail("unexpected text after ';'")

    return build_tree(seen, edges, root=None)


def parse_edge_list(text: str) -> MetricTree:
    """Parse tab-separated ``left<TAB>right<TAB>weight`` lines.

    ``#`` starts a comment line; a ``# root <id>`` header fixes the root.
    """
    root: Optional[str] = None
    edges: List[Tuple[str, str, float]] = []
    vertices: set = set()
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
        left, right, weight = _fields(raw, lineno, ("left", "right", "weight"))
        vertices.add(left)
        vertices.add(right)
        edges.append((left, right, weight))
    if not vertices:
        raise EmptyTree("the edge list has no vertices")
    return build_tree(vertices, edges, root=root)


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
    fields = [f.strip() for f in raw.split("\t") if f.strip()]
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
    """Serialize a tree to Newick, hanging it from the root leaf's neighbor.

    Returns None when a label contains a character the grammar reserves,
    since such a tree cannot round-trip through :func:`parse_newick`.
    """
    if not all(_LABEL.fullmatch(str(v)) for v in tree.vertices):
        return None

    if len(tree.vertices) == 1:
        return f"{tree.root};"

    # Children before parents: reversed preorder hands each rendered
    # subtree to its parent.  The root leaf hangs from the hub (position 1)
    # like a child, so the hub is rendered last.
    weight = tree.up_weight
    parts: List[Optional[List[str]]] = [[] for _ in tree.preorder]
    parts[1].append(f"{tree.root}:{weight[1]!r}")
    text = ""
    for i in range(len(tree) - 1, 0, -1):
        label = str(tree.preorder[i])
        # Dropping the children's strings once they are copied keeps one
        # copy of each rendered subtree alive, not every prefix of it.
        children, parts[i] = parts[i], None
        text = "(" + ",".join(sorted(children)) + ")" + label if children else label
        parts[tree.parent_position[i]].append(text + ":" + repr(weight[i]))
    return text + ";"


def _json_safe(obj):
    """``obj`` with NaN as None and infinities as strings, which JSON can carry."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    # Comparisons, not isinstance, so numpy scalars are caught too.
    if obj != obj:
        return None
    if obj == math.inf:
        return "Infinity"
    if obj == -math.inf:
        return "-Infinity"
    return obj


def emit_report(report: Dict) -> str:
    """Serialize a report to JSON with stable key order and float format.

    Floats, numpy scalars included, print as ``float.__repr__``.
    """
    return json.dumps(_json_safe(report), indent=2, ensure_ascii=False, default=float) + "\n"
