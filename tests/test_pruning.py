import math
from collections import Counter

import numpy as np
import pytest

from treegap import (
    EdgeNotInMinimalSubtree,
    NormalizedLoadVector,
    NotPrunable,
    OrientedEdge,
    PartitionSums,
    PruneStep,
    build_tree,
    edge_contribution,
    gamma_T,
    gap_by_edges,
    generic_labeling,
    label_key,
    make_simplex,
    partition_sums,
    prunable_edges,
    prune,
    prune_to_generic,
)

from conftest import random_normalized_load, random_simplex, random_tree


def unit_path3():
    return build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 1.0)], root="b")


def endpoints_only():
    t = unit_path3()
    return t, make_simplex(t, ["a"], ["b"]), NormalizedLoadVector([1.0], [1.0])


class TestPrunableEdges:
    def test_off_team_interior_vertex(self):
        t, d, _ = endpoints_only()
        edges = prunable_edges(d)
        assert set(edges) == {t.edge_above("a"), t.edge_above("m")}

    def test_same_parity_neighbors(self):
        t = unit_path3()
        d = make_simplex(t, ["a", "m"], ["b"])
        assert prunable_edges(d) == (t.edge_above("a"),)

    def test_generic_labeling_has_none(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            tree = random_tree(rng, int(rng.integers(2, 12)))
            assert prunable_edges(generic_labeling(tree)) == ()


class TestPrune:
    def test_contract_lower_edge(self):
        t, d, load = endpoints_only()
        new_d, new_load, step = prune(d, load, t.edge_above("a"))
        assert step.gap_decrease == pytest.approx(1.0, rel=1e-12)
        assert step.merged_vertex == "m"
        assert gap_by_edges(new_d, new_load) == pytest.approx(1.0, rel=1e-12)
        assert set(new_d.points) == {"m", "b"}
        assert len(new_d.host.vertices) == 2

    def test_contract_upper_edge_same_drop(self):
        t, d, load = endpoints_only()
        _, new_load, step = prune(d, load, t.edge_above("m"))
        assert step.gap_decrease == pytest.approx(1.0, rel=1e-12)
        assert new_load.m.tolist() == [1.0]

    def test_gap_goes_from_two_to_one(self):
        t, d, load = endpoints_only()
        assert gap_by_edges(d, load) == pytest.approx(2.0, rel=1e-12)
        new_d, new_load, _ = prune(d, load, t.edge_above("a"))
        assert gap_by_edges(new_d, new_load) == pytest.approx(1.0, rel=1e-12)

    def test_same_parity_merge_adds_weights(self):
        t = unit_path3()
        d = make_simplex(t, ["a", "m"], ["b"])
        load = NormalizedLoadVector([0.25, 0.75], [1.0])
        new_d, new_load, step = prune(d, load, t.edge_above("a"))
        assert new_d.a_team == ("m",)
        assert new_load.m.tolist() == [1.0]
        # contribution of the contracted edge: (0.25 - 0)^2 * 1
        assert step.gap_decrease == pytest.approx(0.0625, rel=1e-12)

    def test_zero_decrease_is_allowed(self):
        t = build_tree(
            ["a", "u", "v", "b"],
            [("a", "u", 1.0), ("u", "v", 1.0), ("v", "b", 1.0)],
            root="a",
        )
        d = make_simplex(t, ["a", "b"], ["u", "v"])
        load = NormalizedLoadVector([0.5, 0.5], [0.5, 0.5])
        middle = t.edge_above("v")  # joins the two b-team vertices
        s = partition_sums(d, load, middle)
        assert s.alpha_l == s.beta_l
        _, _, step = prune(d, load, middle)
        assert step.gap_decrease == 0.0

    def test_opposite_team_edge_refuses(self):
        t = unit_path3()
        d = make_simplex(t, ["a", "b"], ["m"])
        load = NormalizedLoadVector([0.5, 0.5], [1.0])
        with pytest.raises(NotPrunable):
            prune(d, load, t.edge_above("a"))

    def test_edge_with_another_weight_is_rejected(self):
        _, d, load = endpoints_only()
        with pytest.raises(EdgeNotInMinimalSubtree):
            prune(d, load, OrientedEdge("a", "m", 999.0))

    def test_step_identity_on_random_instances(self):
        rng = np.random.default_rng(52)
        done = 0
        while done < 60:
            tree = random_tree(rng, int(rng.integers(3, 11)))
            d = random_simplex(rng, tree)
            candidates = prunable_edges(d)
            if not candidates:
                continue
            load = random_normalized_load(rng, d.q, d.t)
            edge = candidates[int(rng.integers(0, len(candidates)))]
            before = gap_by_edges(d, load)
            new_d, new_load, step = prune(d, load, edge)
            after = gap_by_edges(new_d, new_load)
            assert abs(after - (before - step.gap_decrease)) <= 1e-10 * before
            assert step.gap_decrease >= 0.0
            done += 1

    def test_surviving_partition_sums_are_preserved(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 40:
            tree = random_tree(rng, int(rng.integers(3, 11)))
            d = random_simplex(rng, tree)
            candidates = prunable_edges(d)
            if not candidates:
                continue
            load = random_normalized_load(rng, d.q, d.t)
            edge = candidates[int(rng.integers(0, len(candidates)))]
            before = {
                e: partition_sums(d, load, e) for e in d.subtree.edges if e != edge
            }
            new_d, new_load, _ = prune(d, load, edge)
            x, y = edge.left, edge.right
            for e, old in before.items():
                left = y if e.left == x else e.left
                right = y if e.right == x else e.right
                # rebuilding may flip an edge's orientation; sides swap along
                renamed = flipped = None
                for f in new_d.subtree.edges:
                    if (f.left, f.right) == (left, right):
                        renamed, flipped = f, False
                    elif (f.left, f.right) == (right, left):
                        renamed, flipped = f, True
                assert renamed is not None
                new = partition_sums(new_d, new_load, renamed)
                want_alpha = old.alpha_r if flipped else old.alpha_l
                want_beta = old.beta_r if flipped else old.beta_l
                assert math.isclose(new.alpha_l, want_alpha, abs_tol=1e-12)
                assert math.isclose(new.beta_l, want_beta, abs_tol=1e-12)
            done += 1


class TestPruneToGeneric:
    def test_endpoints_only_path(self):
        _, d, load = endpoints_only()
        final_d, final_load, steps = prune_to_generic(d, load)
        assert len(steps) == 1
        assert len(final_d.host.vertices) == 2
        final_gap = gap_by_edges(final_d, final_load)
        assert final_gap == pytest.approx(1.0, rel=1e-12)
        # the pruned host's own gap is attained; the original tree's is smaller
        assert final_gap >= gamma_T(final_d.host).gamma
        assert final_gap > gamma_T(unit_path3()).gamma

    def test_already_generic_is_a_fixed_point(self):
        rng = np.random.default_rng(54)
        tree = random_tree(rng, 7)
        d = generic_labeling(tree)
        load = random_normalized_load(rng, d.q, d.t)
        final_d, final_load, steps = prune_to_generic(d, load)
        assert steps == ()
        assert final_d is d
        assert final_load is load

    def test_total_decrease_accounts_for_gap_drop(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            tree = random_tree(rng, int(rng.integers(3, 11)))
            d = random_simplex(rng, tree)
            load = random_normalized_load(rng, d.q, d.t)
            start = gap_by_edges(d, load)
            final_d, final_load, steps = prune_to_generic(d, load)
            end = gap_by_edges(final_d, final_load)
            drop = sum(s.gap_decrease for s in steps)
            assert abs(start - drop - end) <= 1e-9 * max(start, 1.0)
            assert prunable_edges(final_d) == ()
            assert end <= start + 1e-12


# The team bookkeeping of prune and partition_sums written as a case
# analysis over parallel team and load lists: the parity tests below hold
# both functions to it bit for bit.


def _case_analysis_prune(simplex, load, edge):
    sub = simplex.subtree
    x, y = edge.left, edge.right
    px, py = simplex.parity(x), simplex.parity(y)
    decrease = edge_contribution(simplex, load, edge)
    new_vertices = [v for v in sub.vertices if v != x]
    new_edges = []
    for e in sub.edges:
        if e != edge:
            new_edges.append((y if e.left == x else e.left, y if e.right == x else e.right, e.weight))
    root = sub.root if sub.root != x else None
    if root is not None and len(new_vertices) > 1:
        if sum(1 for l, r, _w in new_edges if root in (l, r)) != 1:
            root = None
    new_tree = build_tree(new_vertices, new_edges, root=root)
    a_team, b_team = list(simplex.a_team), list(simplex.b_team)
    m, n = list(load.m), list(load.n)
    if px == "a":
        i = a_team.index(x)
        if py == "a":
            m[a_team.index(y)] += m[i]
            del a_team[i], m[i]
        else:
            a_team[i] = y
    elif px == "b":
        i = b_team.index(x)
        if py == "b":
            n[b_team.index(y)] += n[i]
            del b_team[i], n[i]
        else:
            b_team[i] = y
    step = PruneStep(contracted_edge=edge, gap_decrease=decrease, merged_vertex=y)
    return make_simplex(new_tree, a_team, b_team), NormalizedLoadVector(m, n), step


def _case_analysis_prune_to_generic(simplex, load):
    steps = []
    while True:
        candidates = prunable_edges(simplex)
        if not candidates:
            return simplex, load, tuple(steps)
        sub = simplex.subtree
        chosen = min(
            candidates,
            key=lambda e: (-sub.hop_depth(e.left), label_key(e.left), label_key(e.right)),
        )
        simplex, load, step = _case_analysis_prune(simplex, load, chosen)
        steps.append(step)


def _case_analysis_partition_sums(simplex, load, edge):
    # The four sides come from partition_sums itself; the case analysis
    # is in the four endpoint-free sums.
    s = partition_sums(simplex, load, edge)
    index_a = {v: i for i, v in enumerate(simplex.a_team)}
    index_b = {v: i for i, v in enumerate(simplex.b_team)}
    x, y = edge.left, edge.right
    als, bls, ars, brs = s.alpha_l, s.beta_l, s.alpha_r, s.beta_r
    if x in index_a:
        als -= float(load.m[index_a[x]])
    if x in index_b:
        bls -= float(load.n[index_b[x]])
    if y in index_a:
        ars -= float(load.m[index_a[y]])
    if y in index_b:
        brs -= float(load.n[index_b[y]])
    return PartitionSums(s.alpha_l, s.alpha_r, s.beta_l, s.beta_r, als, ars, bls, brs)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _assert_same_loaded_simplex(got, want):
    (got_d, got_load), (want_d, want_load) = got, want
    assert got_d.a_team == want_d.a_team and got_d.b_team == want_d.b_team
    assert _bits(got_load.m) == _bits(want_load.m) and _bits(got_load.n) == _bits(want_load.n)
    assert got_d.host.vertices == want_d.host.vertices
    assert got_d.host.preorder == want_d.host.preorder
    assert _bits(got_d.host.up_weight) == _bits(want_d.host.up_weight)


def _assert_same_step(got, want):
    assert got.contracted_edge == want.contracted_edge
    assert got.merged_vertex == want.merged_vertex
    assert _bits(got.gap_decrease) == _bits(want.gap_decrease)


class TestTeamBookkeepingParity:
    """400 seeded simplexes on 2-13 vertices reach all seven prunable team pairs."""

    @staticmethod
    def loaded_simplexes():
        rng = np.random.default_rng(11)
        for _ in range(400):
            d = random_simplex(rng, random_tree(rng, int(rng.integers(2, 14))))
            yield d, random_normalized_load(rng, d.q, d.t)

    def test_prune_matches_the_case_analysis(self):
        pairs = Counter()
        for d, load in self.loaded_simplexes():
            for edge in prunable_edges(d):
                pairs[d.parity(edge.left), d.parity(edge.right)] += 1
                new_d, new_load, step = prune(d, load, edge)
                want_d, want_load, want_step = _case_analysis_prune(d, load, edge)
                _assert_same_loaded_simplex((new_d, new_load), (want_d, want_load))
                _assert_same_step(step, want_step)
        assert set(pairs) == {
            ("a", "a"), ("b", "b"), ("a", None), ("b", None),
            (None, "a"), (None, "b"), (None, None),
        }

    def test_prune_to_generic_matches_the_case_analysis(self):
        for d, load in self.loaded_simplexes():
            got_d, got_load, steps = prune_to_generic(d, load)
            want_d, want_load, want_steps = _case_analysis_prune_to_generic(d, load)
            _assert_same_loaded_simplex((got_d, got_load), (want_d, want_load))
            assert len(steps) == len(want_steps)
            for step, want_step in zip(steps, want_steps):
                _assert_same_step(step, want_step)

    def test_partition_sums_match_the_case_analysis(self):
        for d, load in self.loaded_simplexes():
            for edge in d.subtree.edges:
                got = partition_sums(d, load, edge)
                assert _bits(got) == _bits(_case_analysis_partition_sums(d, load, edge))
