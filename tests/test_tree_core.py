"""Property tests for the preorder-array tree core.

Trees are paths, stars or random attachment trees with 1-60 vertices and
weights in [0.1, 10].  Every query the arrays answer is compared with
networkx on the same edge list, and each quantity built from subtree sums
with the pairwise path walks it replaces.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegap import (
    LoadVector,
    NormalizedLoadVector,
    OrientedEdge,
    build_tree,
    extended_gap,
    gamma_T,
    generic_algorithm,
    generic_delta,
    gap_by_edges,
    gap_direct,
    make_simplex,
    metric_from_tree,
    minimal_subtree,
)

from conftest import tree_edges, trees

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def trees_with_subsets(draw):
    tree = draw(trees())
    order = draw(st.permutations(tree.vertices))
    return tree, order[: draw(st.integers(1, len(order)))]


@st.composite
def loaded_simplexes(draw):
    tree = draw(trees(min_size=2))
    order = draw(st.permutations(tree.vertices))
    k = draw(st.integers(2, len(order)))
    q = draw(st.integers(1, k - 1))
    loads = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    return make_simplex(tree, order[:q], order[q:k]), np.array(loads[:q]), np.array(loads[q:])


@PROPERTY
@given(tree_edges())
def test_queries_match_networkx(graph):
    vertices, edges = graph
    tree = build_tree(vertices, edges)
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_weighted_edges_from(edges)
    leaves = sorted((v for v in g if g.degree(v) == 1), key=str)
    root = leaves[0] if leaves else vertices[0]
    assert tree.root == root
    assert tree.leaves() == (tuple(leaves) if leaves else (root,))
    hops = nx.single_source_shortest_path_length(g, root)
    parent = dict(nx.bfs_predecessors(g, root))
    for v in vertices:
        assert tree.hop_depth(v) == hops[v]
        assert tree.degree(v) == g.degree(v)
        assert tree.neighbors(v) == tuple(sorted(g[v], key=str))
        assert tree.children(v) == tuple(sorted((u for u in g[v] if u != parent.get(v)), key=str))
        if v != root:
            assert tree.edge_above(v) == (v, parent[v], g[v][parent[v]]["weight"])
    assert tree.edges == tuple(tree.edge_above(v) for v in sorted(parent, key=str))
    lengths = dict(nx.all_pairs_dijkstra_path_length(g))
    paths = dict(nx.all_pairs_shortest_path(g))
    for u in vertices:
        for v in vertices:
            assert tree.distance(u, v) == pytest.approx(lengths[u][v], rel=1e-12, abs=1e-12)
            assert tree.path_vertices(u, v) == tuple(paths[u][v])


def _generic_weights_by_edges(tree, delta):
    """generic_algorithm as a loop over the oriented edges, the reference."""
    weights = dict.fromkeys(tree.vertices, 0.0)
    for e in tree.edges:
        weights[e.left] += delta / e.weight
        weights[e.right] += delta / e.weight
    rest = sum(1.0 / e.weight for e in tree.edges if e.right != tree.root)
    weights[tree.root] = 1.0 - delta * rest
    return weights


@PROPERTY
@given(tree_edges(min_size=2), st.floats(0.01, 1.0))
def test_edge_view_and_generic_weighting_match_edge_loops(graph, fraction):
    vertices, edges = graph
    tree = build_tree(vertices, edges)
    g = nx.Graph()
    g.add_weighted_edges_from(edges)
    hops = nx.single_source_shortest_path_length(g, tree.root)
    oriented = [(u, v, w) if hops[u] > hops[v] else (v, u, w) for u, v, w in edges]
    expected = tuple(OrientedEdge(*e) for e in sorted(oriented, key=lambda e: str(e[0])))
    assert tree.edges == expected
    assert all(type(e) is OrientedEdge for e in tree.edges)
    # The sums run in another order; each adds at most len(tree) terms,
    # and at delta <= gamma the root's subtracted product is at most 1.
    delta = fraction * generic_delta(tree)
    got, want = generic_algorithm(tree, delta), _generic_weights_by_edges(tree, delta)
    assert list(got) == list(want)
    tol = len(tree) * np.finfo(float).eps
    for v in tree.vertices:
        if v == tree.root:
            assert abs(got[v] - want[v]) <= tol
        else:
            assert abs(got[v] - want[v]) <= tol * want[v]


@PROPERTY
@given(trees())
def test_metric_matches_path_walks(tree):
    d = metric_from_tree(tree).matrix
    walks = np.array([[tree.distance(u, v) for v in tree.vertices] for u in tree.vertices])
    assert np.allclose(d, walks, rtol=1e-12, atol=1e-12 * max(walks.max(), 1.0))


@PROPERTY
@given(trees())
def test_path_sums_of_up_weights_are_root_distances(tree):
    depth = tree.path_sums(tree.up_weight)
    for v in tree.vertices:
        assert depth[tree.position[v]] == pytest.approx(tree.distance(tree.root, v), rel=1e-12)


@PROPERTY
@given(st.data())
def test_path_sums_match_a_parent_walk(data):
    tree = data.draw(trees())
    values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(tree), max_size=len(tree)))
    sums = tree.path_sums(values)
    for i in range(len(tree)):
        walk, j = 0.0, i
        while j >= 0:
            walk += values[j]
            j = tree.parent_position[j]
        assert sums[i] == pytest.approx(walk, rel=1e-12, abs=1e-12 * len(tree))


@PROPERTY
@given(trees_with_subsets())
def test_metric_of_subset_is_the_submatrix(case):
    tree, subset = case
    sub = metric_from_tree(tree, subset)
    full = metric_from_tree(tree)
    idx = [full.index(v) for v in sub.labels]
    scale = max(full.matrix.max(), 1.0)
    assert np.allclose(sub.matrix, full.matrix[np.ix_(idx, idx)], rtol=1e-12, atol=1e-12 * scale)


@PROPERTY
@given(trees_with_subsets())
def test_minimal_subtree_is_the_union_of_paths(case):
    tree, subset = case
    keep = set()
    for v in subset:
        keep.update(tree.path_vertices(v, subset[0]))
    expected = build_tree(
        keep,
        [(e.left, e.right, e.weight) for e in tree.edges if e.left in keep and e.right in keep],
        root=tree.root if tree.root in keep else None,
    )
    sub = minimal_subtree(tree, subset)
    assert sub.vertices == expected.vertices
    assert sub.edges == expected.edges
    assert sub.root == expected.root


@PROPERTY
@given(loaded_simplexes())
def test_edge_functionals_equal_the_direct_gap(case):
    simplex, m, n = case
    load = NormalizedLoadVector(m / m.sum(), n / n.sum())
    direct = gap_direct(simplex, load, 1.0)
    scale = max(abs(direct), simplex.subtree.total_weight())
    assert abs(gap_by_edges(simplex, load) - direct) <= 1e-12 * scale
    assert abs(extended_gap(simplex, load) - direct) <= 1e-12 * scale


@PROPERTY
@given(loaded_simplexes())
def test_extended_gap_is_the_distance_quadratic(case):
    simplex, m, n = case
    u = np.concatenate([m, -n])
    quadratic = simplex.subtree.total_weight() - simplex.point_distances
    value = extended_gap(simplex, LoadVector(m, n))
    scale = simplex.subtree.total_weight() * float(np.abs(u).sum()) ** 2
    assert abs(0.5 * u @ quadratic @ u - value) <= 1e-12 * scale


def test_long_weighted_path_witness():
    n = 20_000
    rng = np.random.default_rng(2024)
    weights = rng.uniform(0.1, 10.0, size=n - 1)
    tree = build_tree(
        [f"v{i}" for i in range(n)],
        [(f"v{i}", f"v{i + 1}", float(w)) for i, w in enumerate(weights)],
    )
    report = gamma_T(tree)
    assert report.gamma == pytest.approx(1.0 / np.sum(1.0 / weights), rel=1e-12)
    assert abs(report.witness_gap - report.gamma) <= 1e-10 * report.gamma
