import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegap import (
    NoEdges,
    NonPositiveLoad,
    NormalizedLoadVector,
    TooFewVertices,
    build_star,
    build_tree,
    equality_witness,
    gamma_T,
    gap_by_edges,
    generic_algorithm,
    generic_delta,
    generic_labeling,
    is_generically_labeled,
    make_simplex,
    positivity_threshold,
)

import reference_numpy
from conftest import (
    exact_reciprocal_sum,
    exact_witness_gap,
    log_weight_trees,
    random_simplex,
    random_tree,
    relative_error,
    trees,
    witness_gap_bound,
)


def unit_path3():
    return build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 1.0)], root="b")


class TestGenericLabeling:
    def test_single_edge(self):
        t = build_tree(["a", "b"], [("a", "b", 1.0)], root="b")
        d = generic_labeling(t)
        assert (set(d.a_team), set(d.b_team)) == ({"a"}, {"b"})

    def test_unit_path(self):
        d = generic_labeling(unit_path3())
        assert set(d.a_team) == {"a", "b"}
        assert set(d.b_team) == {"m"}

    def test_star_rooted_at_leaf(self):
        t = build_tree(
            ["r", "l1", "l2", "l3"],
            [("r", "l1", 1.0), ("r", "l2", 1.0), ("r", "l3", 1.0)],
            root="l1",
        )
        d = generic_labeling(t)
        assert set(d.a_team) == {"l2", "l3", "l1"}
        assert set(d.b_team) == {"r"}

    def test_own_output_is_generic(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            t = random_tree(rng, int(rng.integers(2, 12)))
            assert is_generically_labeled(generic_labeling(t))

    def test_missing_interior_vertex_is_not_generic(self):
        t = unit_path3()
        assert not is_generically_labeled(make_simplex(t, ["a"], ["b"]))

    def test_same_parity_neighbors_are_not_generic(self):
        t = unit_path3()
        assert not is_generically_labeled(make_simplex(t, ["a", "m"], ["b"]))

    def test_single_vertex_rejected(self):
        with pytest.raises(TooFewVertices):
            generic_labeling(build_tree(["x"], []))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    def test_no_prunable_edge_is_the_cover_and_alternate_rule(self, seed, n):
        rng = np.random.default_rng(seed)
        simplex = random_simplex(rng, random_tree(rng, n))
        assert is_generically_labeled(simplex) == covers_and_alternates(simplex)


def covers_and_alternates(simplex):
    """Reference rule for ``is_generically_labeled``: the teams cover the
    minimal subtree, and every minimal-subtree edge joins opposite teams."""
    sub = simplex.subtree
    if set(simplex.points) != set(sub.vertices):
        return False
    return all(simplex.parity(e.left) != simplex.parity(e.right) for e in sub.edges)


class TestGenericAlgorithm:
    def test_normalizing_delta_on_unit_path(self):
        w = generic_algorithm(unit_path3(), 0.5)
        assert w == {"a": 0.5, "m": 1.0, "b": 0.5}

    def test_small_delta_leaves_sums_short(self):
        w = generic_algorithm(unit_path3(), 0.25)
        assert w == {"a": 0.25, "m": 0.5, "b": 0.75}
        # still a positive vector, but the b-team sums to 1/2, not 1
        assert w["m"] != 1.0

    def test_single_edge_delta_one(self):
        t = build_tree(["a", "b"], [("a", "b", 1.0)], root="b")
        assert generic_algorithm(t, 1.0) == {"a": 1.0, "b": 1.0}

    def test_delta_must_be_positive(self):
        with pytest.raises(NonPositiveLoad):
            generic_algorithm(unit_path3(), 0.0)

    def test_rejects_single_vertex(self):
        single = build_tree(["x"], [])
        with pytest.raises(TooFewVertices):
            generic_algorithm(single, 1.0)
        with pytest.raises(NoEdges):
            positivity_threshold(single)

    def test_positivity_threshold_on_unit_path(self):
        assert positivity_threshold(unit_path3()) == 1.0

    def test_positivity_threshold_infinite_for_single_edge(self):
        t = build_tree(["a", "b"], [("a", "b", 1.0)])
        assert positivity_threshold(t) == math.inf

    def test_threshold_brackets_positivity(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            t = random_tree(rng, int(rng.integers(3, 11)))
            threshold = positivity_threshold(t)
            below = generic_algorithm(t, 0.99 * threshold)
            above = generic_algorithm(t, 1.01 * threshold)
            assert min(below.values()) > 0.0
            assert min(above.values()) <= 0.0

    @settings(max_examples=60, deadline=None)
    @given(tree=trees(min_size=2, max_size=40), fraction=st.floats(0.01, 0.99))
    def test_every_subtree_is_balanced(self, tree, fraction):
        # The defining balance: inside v's subtree, v's team outweighs the
        # other team by delta / weight(edge above v).
        threshold = positivity_threshold(tree)
        delta = fraction * (threshold if math.isfinite(threshold) else 1.0)
        w = generic_algorithm(tree, delta)
        assert min(w.values()) > 0.0
        for v in tree.vertices:
            if v == tree.root:
                continue
            inside = tree.subtree_vertices(v)
            parity = tree.hop_depth(v) % 2
            imbalance = sum(w[u] if tree.hop_depth(u) % 2 == parity else -w[u] for u in inside)
            expected = delta / tree.edge_above(v).weight
            assert abs(imbalance - expected) <= 1e-12 * sum(w[u] for u in inside)

    def test_team_sums_hit_one_only_at_delta_star(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            t = random_tree(rng, int(rng.integers(2, 11)))
            star = generic_delta(t)
            d = generic_labeling(t)

            def sums(delta):
                w = generic_algorithm(t, delta)
                return (
                    sum(w[v] for v in d.a_team),
                    sum(w[v] for v in d.b_team),
                )

            for s in sums(star):
                assert abs(s - 1.0) <= 1e-10
            for delta in (0.99 * star, 1.01 * star):
                assert max(abs(s - 1.0) for s in sums(delta)) > 1e-10


class TestGammaT:
    def test_single_edge_weight_w(self):
        for w in (1.0, 4.0):
            t = build_tree(["a", "b"], [("a", "b", w)])
            report = gamma_T(t)
            assert report.gamma == w
            assert report.witness_gap == pytest.approx(w, rel=1e-12)
            _d, load = equality_witness(t)
            assert load.m.tolist() == [1.0]
            assert load.n.tolist() == [1.0]

    def test_unit_path(self):
        report = gamma_T(unit_path3())
        assert report.gamma == 0.5
        assert generic_delta(unit_path3()) == 0.5
        d, load = equality_witness(unit_path3())
        by_vertex = dict(zip(d.a_team, load.m.tolist()))
        by_vertex.update(zip(d.b_team, load.n.tolist()))
        assert by_vertex == {"a": 0.5, "b": 0.5, "m": 1.0}

    def test_weighted_path(self):
        t = build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 2.0)])
        assert gamma_T(t).gamma == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_star_reciprocal_leaf_count(self):
        for n in range(2, 9):
            assert gamma_T(build_star(n)).gamma == pytest.approx(1.0 / n, rel=1e-15)

    def test_unit_trees(self):
        rng = np.random.default_rng(44)
        for n in range(2, 13):
            t = random_tree(rng, n, unit=True)
            assert abs(gamma_T(t).gamma - 1.0 / (n - 1)) <= 1e-12

    def test_harmonic_sum_formula(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            t = random_tree(rng, int(rng.integers(2, 12)))
            expected = 1.0 / sum(1.0 / e.weight for e in t.edges)
            assert gamma_T(t).gamma == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(tree=trees(min_size=2, max_size=40))
    def test_signed_witness_is_the_read_only_team_weights(self, tree):
        # Off the root the witness is generic_algorithm at delta = gamma, bit
        # for bit; the root weighs gamma / w(root edge), with no top-up.  A
        # tuple of floats is read-only by type.
        report = gamma_T(tree)
        signed, simplex = report.signed, generic_labeling(tree)
        weights = generic_algorithm(tree, report.gamma)
        sign = {v: 1.0 for v in simplex.a_team} | {v: -1.0 for v in simplex.b_team}
        assert type(signed) is tuple and all(type(x) is float for x in signed)
        assert len(signed) == len(tree)
        for v in tree.vertices:
            expected = report.gamma * (1.0 / tree.up_weight[1]) if v == tree.root else weights[v]
            assert sign[v] * signed[tree.position[v]] == expected
        array = np.asarray(signed)
        load = NormalizedLoadVector(array[simplex.a_positions], -array[simplex.b_positions])
        # witness_gap sums the edge terms correctly rounded, gap_by_edges by
        # a dot product: both lie within the rounding bound of the exact sum.
        exact, bound = exact_witness_gap(tree, signed), witness_gap_bound(tree, signed)
        for value in (report.witness_gap, gap_by_edges(simplex, load)):
            assert abs(Fraction(value) - exact) <= bound

    def test_unit_star_hub_weighs_one(self):
        # The hub weighs gamma * n, one rounding from 1, not a top-up that
        # subtracts a sequential sum of 10**5 shares.
        n = 10**5
        report = gamma_T(build_star(n))
        assert report.gamma == 1.0 / n
        assert max(map(abs, report.signed)) == pytest.approx(1.0, rel=1e-15)

    def test_wide_weight_spans_raise_no_input_error(self):
        # A root top-up 1 - delta * (sum of 1/w off the root edge) cancels
        # to zero or below when one edge is far lighter than the rest.
        # gamma_T answers every tree: whether witness_gap is close enough
        # to gamma is the caller's check, not an error here.
        rng = random.Random(2026)
        for _ in range(2000):
            n = rng.randint(3, 7)
            edges = [
                (f"v{rng.randrange(i)}", f"v{i}", 10.0 ** rng.uniform(-150, 150))
                for i in range(1, n)
            ]
            report = gamma_T(build_tree([f"v{i}" for i in range(n)], edges))
            assert math.isfinite(report.witness_gap)

    def test_witness_is_the_reported_minimum(self):
        t = unit_path3()
        d, load = equality_witness(t)
        assert gap_by_edges(d, load) == pytest.approx(0.5, rel=1e-12)
        assert is_generically_labeled(d)
        assert set(d.points) == set(t.vertices)

    def test_rejects_single_vertex(self):
        with pytest.raises(TooFewVertices):
            gamma_T(build_tree(["x"], []))
        with pytest.raises(NoEdges):
            generic_delta(build_tree(["x"], []))

    def test_root_choice_does_not_move_gamma(self):
        rng = np.random.default_rng(46)
        t = random_tree(rng, 9)
        baseline = gamma_T(t).gamma
        for leaf in t.leaves():
            rerooted = build_tree(
                t.vertices,
                [(e.left, e.right, e.weight) for e in t.edges],
                root=leaf,
            )
            assert gamma_T(rerooted).gamma == pytest.approx(baseline, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=8
        ),
        scale=st.sampled_from([0.5, 3.0]),
    )
    def test_scaling_covariance(self, weights, scale):
        n = len(weights) + 1
        edges = [(f"v{i}", f"v{i + 1}", w) for i, w in enumerate(weights)]
        t = build_tree([f"v{i}" for i in range(n)], edges)
        scaled = build_tree(
            [f"v{i}" for i in range(n)],
            [(u, v, scale * w) for u, v, w in edges],
        )
        base = gamma_T(t)
        rescaled = gamma_T(scaled)
        assert rescaled.gamma == pytest.approx(scale * base.gamma, rel=1e-12)

        def team(tree, report, sign):
            return {v for v, w in zip(tree.preorder, report.signed) if w * sign > 0.0}

        assert team(scaled, rescaled, 1.0) == team(t, base, 1.0)
        assert team(scaled, rescaled, -1.0) == team(t, base, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gamma_depends_only_on_weight_multiset(self, data):
        # The paper's gamma depends on the unordered weights alone; so does
        # its float here, bit for bit, over any shape, placement and labels,
        # because 1/w is summed by math.fsum, which rounds once.
        weights = data.draw(
            st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0**e), min_size=2, max_size=39)
        )
        n = len(weights) + 1
        gammas = []
        for _ in range(2):
            placed = data.draw(st.permutations(weights))
            labels = data.draw(st.permutations([f"v{i}" for i in range(n)]))
            edges = [
                (labels[data.draw(st.integers(0, i - 1))], labels[i], w)
                for i, w in zip(range(1, n), placed)
            ]
            tree = build_tree(labels, edges)
            gammas.append((generic_delta(tree), gamma_T(tree).gamma))
        assert gammas[0] == gammas[1]


class TestOneReciprocalSum:
    """gamma is the correctly rounded sum of 1/w, inverted: within about 3u.

    Each 1/w, the sum and the inversion round once; 4e-16 covers the three.
    A sequential sum drifted by 1.3e-12 over 10**5 equal inexact terms.
    """

    @pytest.mark.parametrize("w", [0.1, 0.7, 1.0, 1.5, 3.0])
    def test_constant_paths_against_exact_gamma(self, w):
        for n in (10**3, 10**4, 10**5):
            edges = [(i, i + 1, w) for i in range(n - 1)]
            tree = build_tree(range(n), edges)
            exact = 1 / exact_reciprocal_sum([w] * (n - 1))
            assert relative_error(generic_delta(tree), exact) <= 4e-16
            assert relative_error(gamma_T(tree).gamma, exact) <= 4e-16

    def test_random_trees_against_exact_sums(self):
        rng = random.Random(2026)
        for _ in range(300):
            n = rng.randint(2, 60)
            edges = [
                (f"v{rng.randrange(i)}", f"v{i}", 10.0 ** rng.uniform(-8, 8))
                for i in range(1, n)
            ]
            tree = build_tree([f"v{i}" for i in range(n)], edges)
            exact = 1 / exact_reciprocal_sum(w for _, _, w in edges)
            assert relative_error(generic_delta(tree), exact) <= 4e-16
            assert relative_error(gamma_T(tree).gamma, exact) <= 4e-16
            rest = exact_reciprocal_sum(tree.up_weight[2:])
            if rest:
                assert relative_error(positivity_threshold(tree), 1 / rest) <= 4e-16
            else:
                assert positivity_threshold(tree) == math.inf


class TestAgainstTheNumpyClosedForm:
    """``gamma_T`` and ``generic_delta`` against the numpy versions they
    replaced, kept in ``reference_numpy``.

    gamma and the signed witness are the same floats (none is zero, so ==
    compares bits); witness_gap was a BLAS dot product and is now a
    correctly rounded sum, so each is held to the rounding bound of the
    exact edge form on the stored witness.  Within 1e+-150 an underflowing
    term's absolute error, w_e * 2**-1075, stays far below that bound.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        tree=st.one_of(
            trees(min_size=2, max_size=60),
            log_weight_trees(max_size=40, span=8.0),
            log_weight_trees(max_size=40, span=150.0),
        )
    )
    def test_same_gamma_and_witness_and_a_bounded_witness_gap(self, tree):
        report, expected = gamma_T(tree), reference_numpy.gamma_T(tree)
        assert report.gamma == expected.gamma
        assert report.signed == tuple(expected.signed.tolist())
        assert generic_delta(tree) == reference_numpy.generic_delta(tree)
        exact, bound = exact_witness_gap(tree, report.signed), witness_gap_bound(tree, report.signed)
        for value in (report.witness_gap, expected.witness_gap):
            assert abs(Fraction(value) - exact) <= bound
