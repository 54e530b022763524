import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegap import (
    DuplicateVertex,
    EmptyTree,
    NewickSyntaxError,
    NonPositiveBranchLength,
    ParseError,
    build_tree,
    emit_newick,
    emit_report,
    parse_edge_list,
    parse_eta_list,
    parse_newick,
)

from conftest import random_tree, same_metric


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

    def test_malformed_length(self):
        with pytest.raises(NewickSyntaxError):
            parse_newick("(a:xyz,b:1)r;")


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
        with pytest.raises(ParseError):
            parse_edge_list("a\tb\n")

    def test_malformed_weight(self):
        with pytest.raises(ParseError):
            parse_edge_list("a\tb\theavy\n")

    def test_duplicate_root_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("# root a\n# root b\na\tb\t1\n")

    def test_empty_input(self):
        with pytest.raises(EmptyTree):
            parse_edge_list("# nothing here\n")


class TestParseEtaList:
    def test_basic(self):
        rows = parse_eta_list("# witness\na\t0.5\nm\t-1\nb\t0.5\n")
        assert rows == [("a", 0.5), ("m", -1.0), ("b", 0.5)]

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_eta_list("a\tnot-a-number\n")
        with pytest.raises(ParseError):
            parse_eta_list("a 0.5\n")


class TestEmitNewick:
    def test_round_trip_preserves_distances(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            t = random_tree(rng, int(rng.integers(2, 13)))
            text = emit_newick(t)
            assert text is not None
            back = parse_newick(text)
            assert same_metric(t, back, tol=0.0)

    def test_reserved_label_yields_none(self):
        t = build_tree(["a", "b(c"], [("a", "b(c", 1.0)])
        assert emit_newick(t) is None

    def test_single_vertex(self):
        assert emit_newick(build_tree(["x"], [])) == "x;"

    def test_deep_nesting_round_trips(self):
        depth = 10_000
        text = "(" * depth + "x0" + "".join(f":{1 + i % 7})x{i}" for i in range(1, depth + 1)) + ";"
        t = parse_newick(text)
        assert len(t) == depth + 1
        emitted = emit_newick(t)
        back = parse_newick(emitted)

        def undirected(tree):
            return {(frozenset((e.left, e.right)), e.weight) for e in tree.edges}

        assert undirected(back) == undirected(t)
        assert emit_newick(back) == emitted

    def test_edge_list_and_newick_agree(self):
        t1 = parse_newick("(a:1,(b:2,c:3)m:4)r;")
        t2 = parse_edge_list("a\tr\t1\nm\tr\t4\nb\tm\t2\nc\tm\t3\n")
        assert same_metric(t1, t2, tol=0.0)


class TestEmitReport:
    def test_trivial_tree_report(self):
        text = emit_report({"gamma": 1.0, "checks": []})
        assert '"gamma": 1' in text
        assert '"checks": []' in text

    def test_float_round_trip_is_lossless(self):
        import json

        values = [1 / 3, 0.1 + 0.2, 2.0 / 7.0, 1e-17, 123456.789]
        text = emit_report({"vals": values})
        assert json.loads(text)["vals"] == values

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
            ("\x01", "\\u0001"),
            ("\x1f", "\\u001f"),
            ("caf\u00e9 \u03b3 \U0001d53c \x7f", "caf\u00e9 \u03b3 \U0001d53c \x7f"),
        ],
        ids=["quote", "backslash", "newline", "tab", "return", "x01", "x1f", "non-ascii"],
    )
    def test_string_escapes_are_exact(self, text, escaped):
        assert emit_report({"s": text}) == '{\n  "s": "' + escaped + '"\n}\n'

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_any_string_round_trips(self, text):
        assert json.loads(emit_report({"s": text}))["s"] == text
