import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegap import (
    DuplicateVertex,
    EdgeNotInMinimalSubtree,
    EmptyTeam,
    LoadVector,
    NonPositiveLoad,
    NonZeroSum,
    NormalizedLoadVector,
    NotATreeHost,
    NotNormalized,
    OrientedEdge,
    UnknownVertex,
    ZeroVector,
    build_tree,
    edge_contribution,
    eta_to_simplex,
    extended_gap,
    gap_by_edges,
    gap_direct,
    make_simplex,
    metric_from_tree,
    partition_sums,
    simplex_to_eta,
)

from conftest import random_normalized_load, random_simplex, random_tree


def unit_path3():
    return build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 1.0)], root="b")


def path_loaded(p1=1.0, p2=1.0):
    """D=[a,b;m] on the path a-m-b with weights p1, p2, loads (1/2,1/2;1)."""
    t = build_tree(["a", "m", "b"], [("a", "m", p1), ("m", "b", p2)], root="b")
    d = make_simplex(t, ["a", "b"], ["m"])
    return t, d, NormalizedLoadVector([0.5, 0.5], [1.0])


class TestLoadVectors:
    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveLoad):
            LoadVector([1.0, 0.0], [1.0])
        with pytest.raises(NonPositiveLoad):
            LoadVector([1.0], [-0.5])
        with pytest.raises(NonPositiveLoad):
            LoadVector([math.inf], [1.0])

    def test_rejects_empty_team(self):
        with pytest.raises(EmptyTeam):
            LoadVector([], [1.0])

    def test_normalization_tolerance_is_tight(self):
        NormalizedLoadVector([0.5, 0.5], [1.0])
        with pytest.raises(NotNormalized):
            NormalizedLoadVector([0.5, 0.5 + 3e-12], [1.0])

    def test_plain_load_need_not_sum_to_one(self):
        lv = LoadVector([2.0], [2.0])
        assert lv.m.tolist() == [2.0]

    def test_repr(self):
        assert repr(LoadVector([2.0], [1.0, 3.0])) == "LoadVector(m=[2.0], n=[1.0, 3.0])"


class TestSimplexConstruction:
    def test_teams_must_be_disjoint_and_nonempty(self):
        t = unit_path3()
        with pytest.raises(DuplicateVertex):
            make_simplex(t, ["a"], ["a"])
        with pytest.raises(EmptyTeam):
            make_simplex(t, [], ["a"])
        with pytest.raises(UnknownVertex):
            make_simplex(t, ["a"], ["zz"])

    def test_shapes(self):
        t = unit_path3()
        d = make_simplex(t, ["a", "b"], ["m"])
        assert (d.q, d.t) == (2, 1)
        assert d.points == ("a", "b", "m")
        assert repr(d) == "Simplex(a=['a', 'b'], b=['m'])"

    def test_gap_direct_rejects_loads_of_other_team_sizes(self):
        d = make_simplex(unit_path3(), ["a"], ["b"])
        with pytest.raises(NonPositiveLoad, match=r"sizes \(2, 1\) do not match teams \(1, 1\)"):
            gap_direct(d, NormalizedLoadVector([0.5, 0.5], [1.0]))

    def test_metric_host_allowed_but_not_for_edges(self):
        metric = metric_from_tree(unit_path3())
        d = make_simplex(metric, ["a"], ["b"])
        load = NormalizedLoadVector([1.0], [1.0])
        assert gap_direct(d, load) == 2.0
        with pytest.raises(NotATreeHost):
            gap_by_edges(d, load)


class TestPartitionSums:
    def test_left_sums_on_unit_path(self):
        t, d, load = path_loaded()
        s = partition_sums(d, load, t.edge_above("a"))
        assert (s.alpha_l, s.beta_l) == (0.5, 0.0)
        assert (s.alpha_r, s.beta_r) == (0.5, 1.0)
        s = partition_sums(d, load, t.edge_above("m"))
        assert (s.alpha_l, s.beta_l) == (0.5, 1.0)

    def test_single_edge(self):
        t = build_tree(["a", "b"], [("a", "b", 1.0)], root="b")
        d = make_simplex(t, ["a"], ["b"])
        s = partition_sums(d, NormalizedLoadVector([1.0], [1.0]), t.edge_above("a"))
        assert (s.alpha_l, s.beta_l, s.alpha_r, s.beta_r) == (1.0, 0.0, 0.0, 1.0)
        # strict variants drop the endpoints themselves
        assert (s.alpha_l_strict, s.beta_r_strict) == (0.0, 0.0)

    def test_edge_with_another_weight_is_rejected(self):
        _, d, load = path_loaded()
        heavy = OrientedEdge("a", "m", 999.0)
        with pytest.raises(EdgeNotInMinimalSubtree):
            partition_sums(d, load, heavy)
        with pytest.raises(EdgeNotInMinimalSubtree):
            edge_contribution(d, load, heavy)

    def test_partition_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            tree = random_tree(rng, int(rng.integers(3, 11)))
            d = random_simplex(rng, tree)
            load = random_normalized_load(rng, d.q, d.t)
            for e in d.subtree.edges:
                s = partition_sums(d, load, e)
                assert math.isclose(s.alpha_l + s.alpha_r, 1.0, abs_tol=1e-12)
                assert math.isclose(s.beta_l + s.beta_r, 1.0, abs_tol=1e-12)


class TestGapValues:
    def test_unit_path_p1(self):
        _, d, load = path_loaded()
        assert math.isclose(gap_direct(d, load, 1.0), 0.5, rel_tol=1e-15)

    def test_unit_path_p0(self):
        # off-diagonal distances all collapse to 1
        _, d, load = path_loaded()
        assert math.isclose(gap_direct(d, load, 0.0), 0.75, rel_tol=1e-15)

    def test_weighted_path_by_edges(self):
        _, d, load = path_loaded(1.0, 2.0)
        assert math.isclose(gap_by_edges(d, load), 0.75, rel_tol=1e-15)
        assert math.isclose(gap_direct(d, load), 0.75, rel_tol=1e-15)

    def test_edge_contributions_on_unit_path(self):
        t, d, load = path_loaded()
        assert math.isclose(edge_contribution(d, load, t.edge_above("a")), 0.25)
        assert math.isclose(edge_contribution(d, load, t.edge_above("m")), 0.25)

    def test_edge_contribution_single_edge(self):
        t = build_tree(["a", "b"], [("a", "b", 1.0)], root="b")
        d = make_simplex(t, ["a"], ["b"])
        load = NormalizedLoadVector([1.0], [1.0])
        assert edge_contribution(d, load, t.edge_above("a")) == 1.0
        assert gap_by_edges(d, load) == 1.0

    def test_direct_equals_edges(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            tree = random_tree(rng, int(rng.integers(2, 11)))
            d = random_simplex(rng, tree)
            load = random_normalized_load(rng, d.q, d.t)
            direct = gap_direct(d, load, 1.0)
            edges = gap_by_edges(d, load)
            assert abs(direct - edges) <= 1e-10 * max(1.0, direct)

    def test_left_right_symmetry(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            tree = random_tree(rng, int(rng.integers(2, 10)))
            d = random_simplex(rng, tree)
            load = random_normalized_load(rng, d.q, d.t)
            for e in d.subtree.edges:
                s = partition_sums(d, load, e)
                left = (s.alpha_l - s.beta_l) ** 2 * e.weight
                right = (s.alpha_r - s.beta_r) ** 2 * e.weight
                assert abs(left - right) <= 1e-12 * max(1.0, left)

    def test_gap_positive_on_trees(self):
        rng = np.random.default_rng(34)
        for _ in range(60):
            tree = random_tree(rng, int(rng.integers(2, 11)))
            d = random_simplex(rng, tree)
            load = random_normalized_load(rng, d.q, d.t)
            assert gap_by_edges(d, load) > 0.0


class TestExtendedGap:
    def test_unnormalized_single_edge(self):
        t = build_tree(["a", "b"], [("a", "b", 1.0)], root="b")
        d = make_simplex(t, ["a"], ["b"])
        assert extended_gap(d, LoadVector([2.0], [2.0])) == 4.0

    def test_matches_gap_on_normalized_loads(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            tree = random_tree(rng, int(rng.integers(2, 10)))
            d = random_simplex(rng, tree)
            load = random_normalized_load(rng, d.q, d.t)
            assert math.isclose(
                extended_gap(d, load), gap_by_edges(d, load), rel_tol=1e-12
            )


class TestEtaConversion:
    def test_witness_eta_on_unit_path(self):
        t = unit_path3()
        d, load, alpha = eta_to_simplex(t, ("a", "m", "b"), (0.5, -1.0, 0.5))
        assert (set(d.a_team), set(d.b_team)) == ({"a", "b"}, {"m"})
        assert sorted(load.m.tolist()) == [0.5, 0.5]
        assert load.n.tolist() == [1.0]
        assert alpha == 1.0

    def test_scaling_lands_in_alpha(self):
        t = unit_path3()
        d, load, alpha = eta_to_simplex(t, ("a", "m", "b"), (2.0, -4.0, 2.0))
        assert alpha == 4.0
        assert sorted(load.m.tolist()) == [0.5, 0.5]

    def test_exact_zero_entries_are_dropped(self):
        t = unit_path3()
        d, _, _ = eta_to_simplex(t, ("a", "m", "b"), (1.0, 0.0, -1.0))
        assert d.points == ("a", "b")

    def test_pair_case(self):
        t = unit_path3()
        d, load, alpha = eta_to_simplex(t, ("a", "b"), (1.0, -1.0))
        assert (d.a_team, d.b_team) == (("a",), ("b",))
        assert alpha == 1.0

    def test_rejects_bad_eta(self):
        t = unit_path3()
        with pytest.raises(NonZeroSum):
            eta_to_simplex(t, ("a", "b"), (1.0, -2.0))
        with pytest.raises(ZeroVector):
            eta_to_simplex(t, ("a", "b"), (0.0, 0.0))
        with pytest.raises(DuplicateVertex):
            eta_to_simplex(t, ("a", "a"), (1.0, -1.0))
        with pytest.raises(ZeroVector):
            eta_to_simplex(t, ("a", "b"), (1.0, -0.5, -0.5))

    def test_inverse_direction(self):
        t = unit_path3()
        d = make_simplex(t, ["a"], ["b"])
        points, eta = simplex_to_eta(d, NormalizedLoadVector([1.0], [1.0]), 2.0)
        assert points == ("a", "b")
        assert eta.tolist() == [2.0, -2.0]

    def test_inverse_needs_positive_alpha(self):
        t = unit_path3()
        d = make_simplex(t, ["a"], ["b"])
        with pytest.raises(NonPositiveLoad):
            simplex_to_eta(d, NormalizedLoadVector([1.0], [1.0]), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        ha=st.floats(min_value=0.1, max_value=5.0),
        hb=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_round_trip(self, ha, hb):
        t = unit_path3()
        eta = (ha, -(ha + hb), hb)
        d, load, alpha = eta_to_simplex(t, ("a", "m", "b"), eta)
        points, back = simplex_to_eta(d, load, alpha)
        recovered = dict(zip(points, back.tolist()))
        for v, value in zip(("a", "m", "b"), eta):
            assert math.isclose(recovered[v], value, rel_tol=1e-12)


class TestQuadraticIdentity:
    def quadratic(self, tree, points, eta, p):
        total = 0.0
        for i, u in enumerate(points):
            for j, v in enumerate(points):
                if i != j:
                    total += tree.distance(u, v) ** p * eta[i] * eta[j]
        return total

    def test_eta_form_equals_minus_twice_alpha_sq_gap(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            tree = random_tree(rng, int(rng.integers(3, 10)))
            vs = list(tree.vertices)
            k = int(rng.integers(2, len(vs) + 1))
            points = [vs[i] for i in rng.choice(len(vs), size=k, replace=False)]
            raw = rng.uniform(0.2, 2.0, size=k)
            cut = int(rng.integers(1, k))  # both sign groups stay nonempty
            signs = np.ones(k)
            signs[cut:] = -1.0
            eta = raw * signs
            eta[signs > 0] *= abs(eta[signs < 0].sum()) / eta[signs > 0].sum()
            p = float(rng.uniform(0.0, 3.0)) if rng.integers(0, 2) else 1.0
            d, load, alpha = eta_to_simplex(tree, points, eta)
            lhs = self.quadratic(tree, points, eta, p)
            rhs = -2.0 * alpha * alpha * gap_direct(d, load, p)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
