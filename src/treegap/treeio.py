"""Parsers and report serialization.

Two input grammars are supported: a Newick subset (absent branch lengths
default to 1, lengths must be positive) and a tab-separated edge list with
an optional ``# root <id>`` header.  Reports are emitted as JSON with a
fixed key order and floats at 17 significant digits, so identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

import math
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

_RESERVED = "();,:"


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
        start = pos
        while pos < n and not text[pos].isspace() and text[pos] not in _RESERVED:
            pos += 1
        return text[start:pos]

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
        fields = raw.rstrip("\n").split("\t")
        fields = [f.strip() for f in fields if f.strip() != ""]
        if len(fields) != 3:
            raise ParseError(
                f"expected 'left<TAB>right<TAB>weight', got {len(fields)} fields", lineno
            )
        left, right, weight_text = fields
        try:
            weight = float(weight_text)
        except ValueError:
            raise ParseError(f"malformed weight {weight_text!r}", lineno) from None
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
        fields = [f.strip() for f in raw.split("\t") if f.strip() != ""]
        if len(fields) != 2:
            raise ParseError(
                f"expected 'vertex<TAB>weight', got {len(fields)} fields", lineno
            )
        try:
            value = float(fields[1])
        except ValueError:
            raise ParseError(f"malformed weight {fields[1]!r}", lineno) from None
        rows.append((fields[0], value))
    return rows


def emit_newick(tree: MetricTree) -> Optional[str]:
    """Serialize a tree to Newick, hanging it from the root leaf's neighbor.

    Returns None when a label contains a character the grammar reserves,
    since such a tree cannot round-trip through :func:`parse_newick`.
    """
    for v in tree.vertices:
        s = str(v)
        if any(c in _RESERVED or c.isspace() for c in s) or not s:
            return None

    if len(tree.vertices) == 1:
        return f"{tree.root};"

    # Children before parents: reversed preorder hands each rendered
    # subtree to its parent.  The root leaf hangs from the hub (position 1)
    # like a child, so the hub is rendered last.
    weight = tree.up_weight
    parts: List[List[str]] = [[] for _ in tree.preorder]
    parts[1].append(f"{tree.root}:{weight[1]!r}")
    text = ""
    for i in range(len(tree) - 1, 0, -1):
        label = str(tree.preorder[i])
        text = "(" + ",".join(sorted(parts[i])) + ")" + label if parts[i] else label
        parts[tree.parent_position[i]].append(text + ":" + repr(weight[i]))
    return text + ";"


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    out = f"{x:.17g}"
    return out


# JSON string escapes: the two that need a backslash, three control
# characters by name, and every other control character as \u00XX.
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_ESCAPES.update(str.maketrans({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}))


def _escape(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def _to_json(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{_escape(str(k))}: {_to_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    # numpy scalars and anything float-like fall through here
    try:
        return _format_float(float(obj))
    except (TypeError, ValueError):
        return _escape(str(obj))


def emit_report(report: Dict) -> str:
    """Serialize a report to JSON with stable key order and float format."""
    return _to_json(report, 0) + "\n"
