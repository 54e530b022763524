import math

import numpy as np
import pytest

from treegap import (
    CycleDetected,
    Disconnected,
    EmptyVertexSet,
    NonPositiveWeight,
    OrientedEdge,
    RootNotLeaf,
    UnknownEdge,
    UnknownVertex,
    build_tree,
    label_key,
    left_right_sets,
    level_assignment,
    minimal_subtree,
)

from conftest import random_tree, same_metric


def unit_star3():
    return build_tree(
        ["r", "l1", "l2", "l3"],
        [("r", "l1", 1.0), ("r", "l2", 1.0), ("r", "l3", 1.0)],
        root="l1",
    )


def unit_path3(root="b"):
    return build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 1.0)], root=root)


class TestBuildTree:
    def test_single_edge(self):
        t = build_tree(["a", "b"], [("a", "b", 1.0)])
        assert t.distance("a", "b") == 1.0
        assert t.root == "a"  # smallest leaf by default
        assert t.edges == (OrientedEdge("b", "a", 1.0),)

    def test_star_oriented_toward_root_leaf(self):
        t = unit_star3()
        assert t.edges == (
            OrientedEdge("l2", "r", 1.0),
            OrientedEdge("l3", "r", 1.0),
            OrientedEdge("r", "l1", 1.0),
        )
        assert t.distance("l1", "l2") == 2.0
        assert t.distance("l1", "r") == 1.0

    def test_single_vertex_is_its_own_root(self):
        t = build_tree(["x"], [])
        assert t.root == "x"
        assert t.leaves() == ("x",)
        assert len(t) == 1

    def test_degree_two_vertices_allowed(self):
        t = unit_path3()
        assert t.degree("m") == 2
        assert not t.is_leaf("m")
        assert set(t.leaves()) == {"a", "b"}

    def test_rejects_extra_edge(self):
        with pytest.raises(CycleDetected):
            build_tree(
                ["a", "b", "c"],
                [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)],
            )

    def test_rejects_duplicate_edge(self):
        with pytest.raises(CycleDetected, match=r"edge \('b', 'a'\) appears more than once"):
            build_tree(["a", "b", "c"], [("a", "b", 1.0), ("b", "a", 2.0)])

    def test_rejects_a_cycle_without_a_leaf(self):
        # Three edges on four vertices pass the edge count; no vertex has degree 1.
        with pytest.raises(CycleDetected, match="no leaf exists"):
            build_tree(["a", "b", "c", "d"], [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])

    def test_rejects_a_cycle_met_from_a_leaf(self):
        # A triangle with a pendant leaf d, and a separate edge e-f: the
        # search from d meets the triangle's third edge.
        edges = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0), ("c", "d", 1.0),
                 ("e", "f", 1.0)]
        with pytest.raises(CycleDetected, match="cycle through"):
            build_tree("abcdef", edges)

    def test_rejects_self_loop(self):
        with pytest.raises(CycleDetected):
            build_tree(["a", "b"], [("a", "a", 1.0), ("a", "b", 1.0)])

    def test_rejects_disconnected(self):
        with pytest.raises(Disconnected):
            build_tree(["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(NonPositiveWeight):
            build_tree(["a", "b"], [("a", "b", 0.0)])
        with pytest.raises(NonPositiveWeight):
            build_tree(["a", "b"], [("a", "b", -2.0)])

    def test_rejects_internal_root(self):
        with pytest.raises(RootNotLeaf):
            unit_path3(root="m")

    def test_rejects_unknown_endpoint_and_root(self):
        with pytest.raises(UnknownVertex):
            build_tree(["a"], [("a", "zz", 1.0)])
        with pytest.raises(UnknownVertex, match="edge endpoint 'zz'"):
            build_tree(["a"], [("zz", "a", 1.0)])
        with pytest.raises(UnknownVertex):
            build_tree(["a", "b"], [("a", "b", 1.0)], root="zz")

    def test_rejects_empty(self):
        with pytest.raises(EmptyVertexSet):
            build_tree([], [])

    def test_membership_and_repr(self):
        t = unit_path3()
        assert "a" in t and "zz" not in t
        assert repr(t) == "MetricTree(3 vertices, 2 edges, root='b')"


class TestGeometry:
    def test_path_vertices(self):
        t = unit_star3()
        assert t.path_vertices("l2", "l3") == ("l2", "r", "l3")
        assert t.path_vertices("l2", "l2") == ("l2",)

    def test_edge_above_root_fails(self):
        t = unit_path3()
        with pytest.raises(UnknownEdge):
            t.edge_above("b")

    def test_total_weight(self):
        t = build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 2.0)])
        assert t.total_weight() == 3.0

    def test_rerooting_leaves_distances_alone(self):
        rng = np.random.default_rng(7)
        t = random_tree(rng, 9)
        for leaf in t.leaves():
            rerooted = build_tree(
                t.vertices,
                [(e.left, e.right, e.weight) for e in t.edges],
                root=leaf,
            )
            assert same_metric(t, rerooted, tol=1e-12)

    def test_geodesic_additivity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            t = random_tree(rng, int(rng.integers(2, 12)))
            vs = list(t.vertices)
            u, v = rng.choice(vs, size=2, replace=False)
            for w in t.path_vertices(u, v):
                assert math.isclose(
                    t.distance(u, v),
                    t.distance(u, w) + t.distance(w, v),
                    rel_tol=1e-12,
                    abs_tol=1e-12,
                )


class TestMinimalSubtree:
    def test_rejects_empty_subset(self):
        with pytest.raises(EmptyVertexSet):
            minimal_subtree(unit_path3(), [])

    def test_path_endpoints_pull_in_midpoint(self):
        t = unit_path3()
        sub = minimal_subtree(t, ["a", "b"])
        assert set(sub.vertices) == {"a", "m", "b"}

    def test_star_two_leaves(self):
        sub = minimal_subtree(unit_star3(), ["l1", "l2"])
        assert set(sub.vertices) == {"l1", "r", "l2"}
        assert len(sub.edges) == 2

    def test_all_leaves_span_everything(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            t = random_tree(rng, int(rng.integers(2, 12)))
            sub = minimal_subtree(t, t.leaves())
            assert set(sub.vertices) == set(t.vertices)

    def test_subtree_keeps_distances(self):
        rng = np.random.default_rng(10)
        t = random_tree(rng, 10)
        vs = list(t.vertices)
        picked = list(rng.choice(vs, size=4, replace=False))
        sub = minimal_subtree(t, picked)
        for i, u in enumerate(picked):
            for v in picked[i + 1 :]:
                assert math.isclose(sub.distance(u, v), t.distance(u, v), rel_tol=1e-12)


class TestLevels:
    def test_single_edge(self):
        t = build_tree(["a", "b"], [("a", "b", 1.0)], root="b")
        la = level_assignment(t)
        assert la.k0 == 1
        assert la.level == {"a": 0, "b": 1}

    def test_path(self):
        la = level_assignment(unit_path3())
        assert la.k0 == 2
        assert la.level == {"a": 0, "m": 1, "b": 2}

    def test_star_rooted_at_leaf(self):
        la = level_assignment(unit_star3())
        assert la.k0 == 2
        assert la.level["r"] == 1
        assert la.level["l2"] == la.level["l3"] == 0
        assert la.level["l1"] == 2

    def test_levels_alternate_parity_across_edges(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            t = random_tree(rng, int(rng.integers(2, 13)))
            la = level_assignment(t)
            for e in t.edges:
                assert abs(la.level[e.left] - la.level[e.right]) == 1


class TestLeftRightSets:
    def test_path_split(self):
        t = unit_path3()
        e = t.edge_above("m")  # (m -> b)
        left, right, left_strict, right_strict = left_right_sets(t, e)
        assert left == {"a", "m"}
        assert right == {"b"}
        assert left_strict == {"a"}
        assert right_strict == frozenset()

    def test_star_split(self):
        t = unit_star3()
        e = t.edge_above("r")
        left, right, _, _ = left_right_sets(t, e)
        assert left == {"r", "l2", "l3"}
        assert right == {"l1"}

    def test_partition_covers_all_vertices(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            t = random_tree(rng, int(rng.integers(2, 13)))
            for e in t.edges:
                left, right, _, _ = left_right_sets(t, e)
                assert left | right == set(t.vertices)
                assert not (left & right)

    def test_rejects_foreign_edge(self):
        t = unit_path3()
        with pytest.raises(UnknownEdge):
            left_right_sets(t, OrientedEdge("b", "m", 1.0))


def test_label_key_orders_mixed_labels():
    assert sorted([10, "b", 2], key=label_key) == [10, 2, "b"]
