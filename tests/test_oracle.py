import math

import numpy as np
import pytest

from treegap import (
    NormalizedLoadVector,
    NotATreeHost,
    TooFewVertices,
    TooLarge,
    brute_force_gamma,
    build_star,
    build_tree,
    extended_gap,
    gamma_T,
    gamma_p_estimate,
    generic_labeling,
    kkt_check_generic,
    make_simplex,
    metric_from_tree,
    minimize_gap_over_loads,
    star_max_p,
)

from conftest import random_normalized_load, random_simplex, random_tree


def unit_path3():
    return build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 1.0)], root="b")


class TestMinimizeGapOverLoads:
    def test_generic_path_reaches_half(self):
        d = generic_labeling(unit_path3())
        result = minimize_gap_over_loads(d)
        assert result.converged
        assert abs(result.value - 0.5) <= 1e-8
        by_vertex = dict(zip(d.a_team, result.argmin_m.tolist()))
        by_vertex.update(zip(d.b_team, result.argmin_n.tolist()))
        for v, expected in {"a": 0.5, "b": 0.5, "m": 1.0}.items():
            assert abs(by_vertex[v] - expected) <= 1e-6

    def test_endpoint_pair_is_a_single_point_problem(self):
        t = unit_path3()
        d = make_simplex(t, ["a"], ["b"])
        result = minimize_gap_over_loads(d)
        assert result.value == pytest.approx(2.0, rel=1e-12)
        assert result.argmin_m.tolist() == [1.0]

    def test_proper_subsets_stay_above_gamma(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            tree = random_tree(rng, int(rng.integers(3, 8)))
            gamma = gamma_T(tree).gamma
            d = random_simplex(rng, tree)
            if len(d.points) == len(tree.vertices):
                continue
            result = minimize_gap_over_loads(d)
            assert result.value >= gamma - 1e-9

    def test_unique_minimizer_from_many_starts(self):
        rng = np.random.default_rng(72)
        tree = random_tree(rng, 6)
        d = generic_labeling(tree)
        report = gamma_T(tree)
        target_m = report.weights.m
        target_n = report.weights.n
        for _ in range(20):
            start = random_normalized_load(rng, d.q, d.t)
            result = minimize_gap_over_loads(d, start=start)
            assert result.converged
            assert np.max(np.abs(result.argmin_m - target_m)) <= 1e-5
            assert np.max(np.abs(result.argmin_n - target_n)) <= 1e-5

    def test_value_is_always_an_upper_bound_for_whole_tree(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            tree = random_tree(rng, int(rng.integers(2, 8)))
            result = minimize_gap_over_loads(generic_labeling(tree))
            assert result.value >= gamma_T(tree).gamma - 1e-9

    def test_rejects_metric_host(self):
        metric = metric_from_tree(unit_path3())
        d = make_simplex(metric, ["a"], ["b"])
        with pytest.raises(NotATreeHost):
            minimize_gap_over_loads(d)

    def test_convexity_midpoint_sanity(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(2, 9)))
            d = random_simplex(rng, tree)
            one = random_normalized_load(rng, d.q, d.t)
            two = random_normalized_load(rng, d.q, d.t)
            mid = NormalizedLoadVector(
                (one.m + two.m) / 2.0, (one.n + two.n) / 2.0
            )
            lhs = extended_gap(d, mid)
            rhs = (extended_gap(d, one) + extended_gap(d, two)) / 2.0
            assert lhs <= rhs + 1e-12


class TestBruteForce:
    def test_unit_path(self):
        result = brute_force_gamma(unit_path3())
        assert abs(result.value - 0.5) <= 1e-9
        assert {frozenset(result.a_team), frozenset(result.b_team)} == {
            frozenset({"a", "b"}),
            frozenset({"m"}),
        }

    def test_weighted_path(self):
        t = build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 2.0)])
        assert abs(brute_force_gamma(t).value - 2.0 / 3.0) <= 1e-9

    def test_single_weighted_edge(self):
        t = build_tree(["a", "b"], [("a", "b", 4.0)])
        result = brute_force_gamma(t)
        assert result.value == pytest.approx(4.0, rel=1e-10)
        assert result.argmin_m.tolist() == [1.0]

    def test_matches_closed_form_on_random_trees(self):
        rng = np.random.default_rng(75)
        for _ in range(8):
            tree = random_tree(rng, int(rng.integers(2, 8)))
            gamma = gamma_T(tree).gamma
            found = brute_force_gamma(tree).value
            assert abs(found - gamma) <= 1e-7 * gamma

    def test_teams_and_argmins_are_the_generic_witness(self):
        rng = np.random.default_rng(81)
        for n in range(2, 10):
            for _ in range(2):
                tree = random_tree(rng, n)
                report = gamma_T(tree)
                found = brute_force_gamma(tree)
                generic = dict(zip(report.simplex.a_team, report.weights.m))
                generic.update(zip(report.simplex.b_team, report.weights.n))
                assert {frozenset(found.a_team), frozenset(found.b_team)} == {
                    frozenset(report.simplex.a_team),
                    frozenset(report.simplex.b_team),
                }
                pairs = list(zip(found.a_team, found.argmin_m))
                pairs += zip(found.b_team, found.argmin_n)
                for v, x in pairs:
                    assert abs(x - generic[v]) <= 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(76)
        tree = random_tree(rng, 6)
        first = brute_force_gamma(tree)
        second = brute_force_gamma(tree)
        assert first.value == second.value
        assert first.a_team == second.a_team
        assert first.argmin_m.tolist() == second.argmin_m.tolist()

    def test_size_cap(self):
        rng = np.random.default_rng(77)
        with pytest.raises(TooLarge):
            brute_force_gamma(random_tree(rng, 10))
        with pytest.raises(TooFewVertices):
            brute_force_gamma(build_tree(["x"], []))


class TestGammaPEstimate:
    def test_two_point_space(self):
        metric = metric_from_tree(build_tree(["a", "b"], [("a", "b", 3.0)]))
        for p in (0.5, 1.0, 2.0):
            assert gamma_p_estimate(metric, p) == pytest.approx(3.0**p, rel=1e-9)

    def test_p1_matches_gamma(self):
        rng = np.random.default_rng(78)
        for _ in range(5):
            tree = random_tree(rng, int(rng.integers(2, 7)))
            estimate = gamma_p_estimate(metric_from_tree(tree), 1.0)
            assert abs(estimate - gamma_T(tree).gamma) <= 1e-6

    def test_boundary_exponent_sends_gap_to_zero(self):
        estimate = gamma_p_estimate(metric_from_tree(unit_path3()), 2.0)
        # the true infimum is 0 here; allow rounding noise on both sides
        assert -1e-12 <= estimate <= 1e-6

    @pytest.mark.parametrize("leaves", range(2, 8))
    def test_sign_around_the_star_exponent(self, leaves):
        # The uniform load on the leaves against the centre has p-gap
        # 1 - 2^(p - p*), so the estimate is at most that on either side of
        # p*; below p* the space has strict p-negative type, so it is positive.
        metric = metric_from_tree(build_star(leaves))
        p_star = star_max_p(leaves)
        below = gamma_p_estimate(metric, p_star - 0.05)
        above = gamma_p_estimate(metric, p_star + 0.05)
        assert 0.0 < below <= 1.0 - 2.0**-0.05 + 1e-9
        assert above <= 1.0 - 2.0**0.05 + 1e-9

    def test_seeded_determinism(self):
        metric = metric_from_tree(build_star(4))
        assert gamma_p_estimate(metric, 1.3, seed=2) == gamma_p_estimate(
            metric, 1.3, seed=2
        )

    def test_size_cap(self):
        rng = np.random.default_rng(79)
        metric = metric_from_tree(random_tree(rng, 9))
        with pytest.raises(TooLarge):
            gamma_p_estimate(metric, 1.0)


class TestKktAtWitness:
    def test_unit_path_multipliers(self):
        report = kkt_check_generic(unit_path3())
        assert report.consistent
        assert (report.lambda_a + report.lambda_b) / 2.0 == pytest.approx(
            0.5, abs=1e-5
        )
        assert report.spread_a <= 1e-5
        assert report.spread_b <= 1e-5

    def test_random_weighted_tree(self):
        rng = np.random.default_rng(80)
        tree = random_tree(rng, 7)
        report = kkt_check_generic(tree)
        assert report.consistent
        assert (report.lambda_a + report.lambda_b) / 2.0 == pytest.approx(
            report.gamma, abs=1e-5
        )
