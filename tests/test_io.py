import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_readers
from treegap import (
    DuplicateVertex,
    EmptyTree,
    NewickSyntaxError,
    NonPositiveBranchLength,
    ParseError,
    TreeGapError,
    build_tree,
    emit_newick,
    emit_report,
    parse_edge_list,
    parse_eta_list,
    parse_newick,
)

from conftest import random_tree, same_metric

# Label pieces that stress label order and the readers: characters on both
# sides of '(' and ':', and labels that run on from others ("v1", "v10").
LABEL_PIECES = ["!", "#", "&", "'", "0", "1", "9", "a", "B", "v1", "v10", "v2", "_", "~", "\u00e9"]


@st.composite
def labelled_trees(draw, max_size=40):
    """Random attachment trees of 1 to ``max_size`` vertices with unique labels."""
    n = draw(st.integers(1, max_size))
    labels = draw(
        st.lists(
            st.lists(st.sampled_from(LABEL_PIECES), min_size=1, max_size=3).map("".join),
            min_size=n, max_size=n, unique=True,
        )
    )
    edges = [
        (labels[draw(st.integers(0, i - 1))], labels[i], draw(st.sampled_from([1.0, 0.5, 2.25, 1e-3])))
        for i in range(1, n)
    ]
    return build_tree(labels, edges)


def _emit_in_preorder(tree):
    """The reference writer: each subtree recursively, children in label
    order, hung from the root leaf's neighbor with the root leaf first."""
    if len(tree.vertices) == 1:
        return f"{tree.root};"

    def subtree(v):
        kids = sorted(tree.children(v), key=str)
        group = "(" + ",".join(map(subtree, kids)) + ")" if kids else ""
        return f"{group}{v}:{tree.edge_above(v).weight!r}"

    (hub,) = tree.neighbors(tree.root)
    first = f"{tree.root}:{tree.edge_above(hub).weight!r}"
    return "(" + ",".join([first, *map(subtree, sorted(tree.children(hub), key=str))]) + f"){hub};"


def _undirected(tree):
    return {(frozenset((e.left, e.right)), e.weight) for e in tree.edges}


class TestParseNewick:
    def test_unit_cherry(self):
        t = parse_newick("(a:1,b:1)r;")
        assert set(t.vertices) == {"a", "b", "r"}
        assert t.distance("a", "b") == 2.0
        assert t.distance("a", "r") == 1.0

    def test_nested_branch_lengths(self):
        t = parse_newick("(a:1,(b:2,c:3)m:4)r;")
        assert len(t.vertices) == 5
        assert t.distance("a", "b") == 7.0
        assert t.distance("b", "c") == 5.0

    def test_missing_length_defaults_to_one(self):
        t = parse_newick("(a,b)r;")
        assert t.distance("a", "b") == 2.0

    def test_unlabeled_internal_nodes_get_synthetic_ids(self):
        t = parse_newick("((a:1,b:1):1,c:1);")
        assert {"_1", "_2"} <= set(t.vertices)

    @pytest.mark.parametrize(
        "text, edges",
        [
            # the group (a,b) closes before the root's label _1 is read
            ("((a,b),c)_1;", {("a", "_2"), ("b", "_2"), ("_2", "_1"), ("c", "_1")}),
            ("(((a,b),c),d)_2;",
             {("a", "_1"), ("b", "_1"), ("_1", "_3"), ("c", "_3"), ("_3", "_2"), ("d", "_2")}),
        ],
    )
    def test_synthetic_ids_skip_later_explicit_labels(self, text, edges):
        t = parse_newick(text)
        assert {frozenset((e.left, e.right)) for e in t.edges} == set(map(frozenset, edges))

    def test_reroots_at_smallest_leaf(self):
        t = parse_newick("(b:1,(c:1,a:1)x:1)y;")
        assert t.root == "a"

    def test_single_label_statement(self):
        t = parse_newick("x;")
        assert t.vertices == ("x",)

    def test_syntax_errors(self):
        for text in ["(a:1,b:1", "(a:1,b:1)r", "", ";", "(a:1,b:1)r; junk", "(a:1,b:1)r;;"]:
            with pytest.raises((NewickSyntaxError, EmptyTree)):
                parse_newick(text)

    def test_zero_branch_length_rejected(self):
        with pytest.raises(NonPositiveBranchLength):
            parse_newick("(a:0,b:1)r;")

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateVertex):
            parse_newick("(a:1,a:2)r;")
        # A group's label is checked where the group closes.
        with pytest.raises(DuplicateVertex, match="label 'a' appears more than once"):
            parse_newick("(a,b)a;")

    def test_malformed_length(self):
        with pytest.raises(NewickSyntaxError):
            parse_newick("(a:xyz,b:1)r;")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            # a group member followed by a token other than ',' or ')'
            ("(a b,c)d;", "expected ',' or ')'", 3),
            ("(a:1x,b)c;", "expected ',' or ')'", 4),
            ("((a,b)c d,e)f;", "expected ',' or ')'", 8),
            ("((a,b) c,d)e;", "expected ',' or ')'", 7),
            ("(a:1_0,b)c;", "expected ',' or ')'", 4),
            # the statement ends inside the group
            ("(a,b", "unclosed group", 0),
            ("(a,b;", "unclosed group", 0),
            ("((a,b)c;", "unclosed group", 0),
            # at the top level
            ("(a:1,b:2)c:3 d;", "expected ';'", 13),
            ("(a,b) c;", "expected ';'", 6),
            # a branch length that is no number at all, named up to the next delimiter
            ("(a:1,b:inf)m;", "malformed branch length 'inf'", 7),
            ("(a:1,b:nan)m;", "malformed branch length 'nan'", 7),
            ("(a:1,b:x)m;", "malformed branch length 'x'", 7),
            ("(a:1,b: inf)m;", "malformed branch length 'inf'", 8),
            ("(a:1,b:)m;", "malformed branch length ''", 7),
        ],
    )
    def test_syntax_error_names_the_token(self, text, message, position):
        with pytest.raises(NewickSyntaxError) as info:
            parse_newick(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position


class TestParseEdgeList:
    def test_single_edge(self):
        t = parse_edge_list("a\tb\t1.0")
        assert t.distance("a", "b") == 1.0

    def test_weighted_path_with_comment_and_blank(self):
        text = "# a comment\n\na\tm\t1\nm\tb\t2\n"
        t = parse_edge_list(text)
        assert t.distance("a", "b") == 3.0

    def test_root_header(self):
        t = parse_edge_list("# root b\na\tm\t1\nm\tb\t2\n")
        assert t.root == "b"

    def test_field_count_error(self):
        with pytest.raises(ParseError, match="got 2 fields") as info:
            parse_edge_list("# root a\na\tb\t1\n\nb\tc\n")
        assert info.value.line == 4

    def test_malformed_weight(self):
        with pytest.raises(ParseError, match="malformed weight 'heavy'") as info:
            parse_edge_list("a\tb\t1\nb\tc\theavy\n")
        assert info.value.line == 2

    def test_duplicate_root_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("# root a\n# root b\na\tb\t1\n")

    def test_root_header_with_two_ids(self):
        message = r"^root header needs exactly one vertex id \(line 1\)$"
        with pytest.raises(ParseError, match=message):
            parse_edge_list("# root a b\na\tb\t1\n")

    def test_empty_input(self):
        with pytest.raises(EmptyTree):
            parse_edge_list("# nothing here\n")


class TestParseEtaList:
    def test_basic(self):
        rows = parse_eta_list("# witness\na\t0.5\nm\t-1\nb\t0.5\n")
        assert rows == [("a", 0.5), ("m", -1.0), ("b", 0.5)]

    def test_malformed(self):
        with pytest.raises(ParseError, match="malformed weight 'not-a-number'") as info:
            parse_eta_list("# witness\na\t1\nb\tnot-a-number\n")
        assert info.value.line == 3
        with pytest.raises(ParseError, match="got 1 fields") as info:
            parse_eta_list("a\t0.5\n\nb 0.5\n")
        assert info.value.line == 3


# Weight spellings that float() reads, each with its value: edge-list
# weights and eta values are whatever float() accepts.
FLOAT_SPELLINGS = [
    ("1_0", 10.0),
    (" 1 ", 1.0),
    ("+1", 1.0),
    (".5", 0.5),
    ("1e5", 1e5),
    ("\u0661", 1.0),
]


@pytest.mark.parametrize("spelling, value", FLOAT_SPELLINGS)
def test_weight_spellings_read_by_float(spelling, value):
    tree = parse_edge_list(f"a\tb\t{spelling}\nb\tc\t2\n")
    assert tree.distance("a", "b") == value
    assert parse_eta_list(f"a\t{spelling}\nb\t-1\n") == [("a", value), ("b", -1.0)]


# Pieces of reader input: every spacing and line break the readers treat
# apart, comment and header words, number characters and punctuation.
READER_PIECES = [
    "\t", " ", "#", "root", "\r", "\n", "\x0b", "\x1c", "\x85", "\xa0", "\u2028",
    "0", "1", "2", "5", "9", "\u0661", "\u00b2", "_", "e", "+", "-", ".",
    "(", ")", ",", ":", ";", "a", "b", "v1", "x", "nan", "inf",
]


def _outcome(reader, text):
    """What ``reader`` makes of ``text``: its tree's arrays, its rows, or its error."""
    try:
        result = reader(text)
    except TreeGapError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "position", None)
    if isinstance(result, list):
        return repr(result)
    return (result.vertices, result.preorder, result.parent_position, result.up_weight,
            result.hop, result.subtree_end)


def _same_outcome(reader, reference, text):
    new, old = _outcome(reader, text), _outcome(reference, text)
    if new != old and reader is parse_newick and old[0] is NewickSyntaxError:
        position = new[3]
        if old[1].startswith("unclosed group"):
            # A group member followed by a token other than ',' or ')' is
            # named at that token, not at the '('.
            assert new[1].startswith("expected ',' or ')'")
            assert position > old[3] and text[position] not in ",);" and not text[position].isspace()
            return
        # A branch length that is no number at all is named by the token
        # after the ':', up to the next delimiter, not as ''.
        token = re.match(r"[^\s();,:]+", text[position:]).group()
        assert old[1] == f"malformed branch length '' (at position {position})"
        assert new == (NewickSyntaxError, f"malformed branch length {token!r} (at position {position})",
                       None, position)
        assert text[:position].rstrip().endswith(":")
        return
    assert new == old


def _tree_texts(tree):
    """The tree as an edge list, with its root header, as eta rows and as Newick."""
    rows = "".join(f"{e.left}\t{e.right}\t{e.weight!r}\n" for e in tree.edges)
    eta = "".join(f"{v}\t{w!r}\n" for v, w in zip(tree.preorder, tree.up_weight))
    return [rows, f"# root {tree.root}\n" + rows, eta, emit_newick(tree) or ";"]


@st.composite
def reader_texts(draw):
    """Texts of pieces, alone or spliced into one of a tree's texts."""
    pieces = st.lists(st.sampled_from(READER_PIECES), max_size=12).map("".join)
    if draw(st.booleans()):
        return draw(pieces)
    text = draw(st.sampled_from(_tree_texts(draw(labelled_trees(max_size=8)))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(pieces) + text[at + cut:]
    return text


@settings(max_examples=600, deadline=None)
@given(reader_texts())
@example("(!!!:\x1c1.0)#;")  # spacing after ':' that float() does not strip
@example("(a:1 \u00b2,b)c;")
@example("(a:1\u00b2,b)c;")
@example("((a,b) c,d)e;")
@example("(a:nan,b)c;")
@example("( a : 1 , b:2 )c ;")
@example("#a\tb\t1\nb\tc\t2\n")
@example("# root a\r\na\tb\t1_0\r\n")
@example("a\tb\t1\n\nb\tc\tx\n")
@example("a\t1 2\t3\n")  # split at every space, it would read as a-1 of weight 2
def test_readers_match_the_reference_readers(text):
    _same_outcome(parse_newick, reference_readers.parse_newick, text)
    _same_outcome(parse_edge_list, reference_readers.parse_edge_list, text)
    _same_outcome(parse_eta_list, reference_readers.parse_eta_list, text)


class TestEmitNewick:
    def test_round_trip_preserves_distances(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            t = random_tree(rng, int(rng.integers(2, 13)))
            text = emit_newick(t)
            assert text is not None
            back = parse_newick(text)
            assert same_metric(t, back, tol=0.0)

    @pytest.mark.parametrize(
        "label",
        ["b(c", "", "a b", "a\u00a0b", "x:y"],
        ids=["paren", "empty", "space", "no-break-space", "colon"],
    )
    def test_reserved_label_yields_none(self, label):
        t = build_tree(["a", label], [("a", label, 1.0)])
        assert emit_newick(t) is None

    def test_single_vertex(self):
        assert emit_newick(build_tree(["x"], [])) == "x;"

    def test_deep_nesting_round_trips(self):
        depth = 100_000
        text = "(" * depth + "x0" + "".join(f":{1 + i % 7})x{i}" for i in range(1, depth + 1)) + ";"
        t = parse_newick(text)
        assert len(t) == depth + 1
        emitted = emit_newick(t)
        back = parse_newick(emitted)
        assert _undirected(back) == _undirected(t)
        assert emit_newick(back) == emitted

    def test_long_path_keeps_one_copy_of_each_subtree(self):
        # Every prefix of a 10^4-vertex path's string kept alive is about
        # 550 MB; the string itself is about 110 kB.
        n = 10_000
        edges = [(f"v{i}", f"v{i + 1}", 1.0) for i in range(n - 1)]
        t = build_tree([f"v{i}" for i in range(n)], edges)
        tracemalloc.start()
        try:
            emitted = emit_newick(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(emitted) > 100_000
        assert peak < 10_000_000

    @settings(max_examples=200, deadline=None)
    @given(labelled_trees())
    def test_matches_a_recursive_preorder_writer(self, tree):
        assert emit_newick(tree) == _emit_in_preorder(tree)
        back = parse_newick(emit_newick(tree))
        assert set(back.vertices) == set(tree.vertices)
        assert _undirected(back) == _undirected(tree)

    def test_edge_list_and_newick_agree(self):
        t1 = parse_newick("(a:1,(b:2,c:3)m:4)r;")
        t2 = parse_edge_list("a\tr\t1\nm\tr\t4\nb\tm\t2\nc\tm\t3\n")
        assert same_metric(t1, t2, tol=0.0)


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


def _stdlib_report(doc) -> str:
    """``doc`` written by the standard library's indent encoder, the reference layout."""
    return json.dumps(_json_safe(doc), indent=2, ensure_ascii=False, default=float) + "\n"


# Strings that need escaping or hold text beyond ASCII.
_ODD_TEXT = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x08", "\x1f", "\n", "\x7f", "\u2028", "\u00e9",
                     "\u03b3", "\U0001d53c", "a", "0"]),
    max_size=6,
)
_ODD_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308,
                               -1.7976931348623157e308, math.nan, math.inf, -math.inf])
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | _ODD_FLOATS
    | st.text(max_size=6)
    | _ODD_TEXT
    | st.floats().map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
# Keys of every kind emit_report prints with str(), drawn from small pools
# so that two of them often print alike ("1" and 1, "True" and True).
_KEYS = (
    st.sampled_from(["", "0", "1", "1.0", "True", "None", "nan", "k"])
    | st.integers(0, 2)
    | st.sampled_from([1.0, 0.5, math.nan, -0.0])
    | st.booleans()
    | st.none()
    | _ODD_TEXT
)


@st.composite
def _float_dicts(draw):
    """Dicts of finite Python floats, which emit_report writes in one join,
    some with one NaN, infinity or np.float64 that keeps them out of it."""
    doc = draw(st.dictionaries(_KEYS, st.floats(allow_nan=False, allow_infinity=False),
                               max_size=8))
    odd = draw(st.sampled_from([None, math.nan, math.inf, -math.inf, np.float64(0.1)]))
    if odd is not None:
        doc[draw(_KEYS)] = odd
    return doc


_DOCUMENTS = st.recursive(
    _SCALARS | _float_dicts(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24,
)


class TestEmitReport:
    @settings(max_examples=600, deadline=None)
    @given(_DOCUMENTS)
    def test_prints_what_the_stdlib_indent_encoder_printed(self, doc):
        assert emit_report(doc) == _stdlib_report(doc)
        assert emit_report({"doc": doc}) == _stdlib_report({"doc": doc})

    def test_trivial_tree_report(self):
        text = emit_report({"gamma": 1.0, "checks": []})
        assert '"gamma": 1' in text
        assert '"checks": []' in text

    def test_float_round_trip_is_lossless(self):
        import json

        values = [1 / 3, 0.1 + 0.2, 2.0 / 7.0, 1e-17, 123456.789, 2.0, 0.0, -0.0, 1e16,
                  1e300, 5e-324, -1.7976931348623157e308, np.float64(0.1), np.float64(3.0)]
        text = emit_report({"vals": values})
        back = json.loads(text)["vals"]
        # Integral floats stay floats, and every value parses to the same bits.
        assert all(type(x) is float for x in back)
        assert np.array(back).tobytes() == np.array(values, dtype=float).tobytes()
        assert "np.float64" not in text

    def test_non_finite_floats(self):
        doc = json.loads(emit_report({"vals": [math.nan, math.inf, -math.inf]}))
        assert doc["vals"] == [None, "Infinity", "-Infinity"]

    def test_key_order_is_insertion_order(self):
        text = emit_report({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')

    def test_nested_and_scalar_kinds(self):
        import json

        doc = {"s": "x", "none": None, "flag": True, "items": [1, {"k": 0.5}]}
        assert json.loads(emit_report(doc)) == doc

    @pytest.mark.parametrize(
        "text, escaped",
        [
            ('"', '\\"'),
            ("\\", "\\\\"),
            ("\n", "\\n"),
            ("\t", "\\t"),
            ("\r", "\\r"),
            ("\x08", "\\b"),
            ("\x0c", "\\f"),
            ("\x01", "\\u0001"),
            ("\x1f", "\\u001f"),
            ("caf\u00e9 \u03b3 \U0001d53c \x7f", "caf\u00e9 \u03b3 \U0001d53c \x7f"),
        ],
        ids=["quote", "backslash", "newline", "tab", "return", "backspace", "form-feed", "x01",
             "x1f", "non-ascii"],
    )
    def test_string_escapes_are_exact(self, text, escaped):
        assert emit_report({"s": text}) == '{\n  "s": "' + escaped + '"\n}\n'

    @pytest.mark.parametrize(
        "value, printed",
        [
            (np.int64(3), "3.0"),
            (np.bool_(True), "1.0"),
            (np.float32(0.5), "0.5"),
            (np.float32("nan"), "null"),
            (np.float32("inf"), '"Infinity"'),
            (np.float32("-inf"), '"-Infinity"'),
        ],
        ids=["int64", "bool", "float32", "float32-nan", "float32-inf", "float32-minus-inf"],
    )
    def test_numpy_scalars_print_as_floats(self, value, printed):
        assert emit_report({"x": value}) == '{\n  "x": ' + printed + "\n}\n"

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_any_string_round_trips(self, text):
        assert json.loads(emit_report({"s": text}))["s"] == text

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=4), inner, max_size=4),
            max_leaves=20,
        )
    )
    def test_nested_documents_round_trip_to_their_json_image(self, doc):
        # NaN reads back as None and infinities as strings, never as bare tokens.
        assert json.loads(emit_report({"doc": doc})) == {"doc": _json_safe(doc)}
