import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegap import oracle
from treegap import (
    FiniteMetric,
    LoadVector,
    NormalizedLoadVector,
    NotATreeHost,
    TooFewPoints,
    TooFewVertices,
    TooLarge,
    brute_force_gamma,
    build_star,
    build_tree,
    equality_witness,
    extended_gap,
    gamma_T,
    gamma_p_estimate,
    generic_labeling,
    kkt_check_generic,
    make_simplex,
    metric_from_tree,
    minimize_gap_over_loads,
    power_matrix,
    star_max_p,
)

import reference_numpy
from conftest import (
    integer_point_sets,
    log_weight_trees,
    random_normalized_load,
    random_simplex,
    random_tree,
    trees,
)


def unit_path3():
    return build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 1.0)], root="b")


def face_solve_brute_force(tree):
    """Brute force by stacked KKT solves over the face table, on the edge form.

    The reference for ``brute_force_gamma``: the same faces, each solved by
    ``_face_solve`` instead of by elimination along the tree.
    """
    labels = tree.vertices
    below, weight, factor = oracle._edge_form(tree, [tree.position[v] for v in labels])
    value, signs, z = oracle._least_face(
        factor, None, lambda u: oracle._edge_values(u, below, weight)
    )
    return (
        value,
        tuple(v for v, s in zip(labels, signs) if s > 0),
        tuple(v for v, s in zip(labels, signs) if s < 0),
        np.concatenate([z[signs > 0], z[signs < 0]]),
    )


def face_columns_solve(factor, row):
    """The loads on one face from a KKT system over the face's own columns.

    The reference for ``_face_solve``, which solves every face over all
    points.  Returns the face's point indices and their loads.
    """
    face = np.flatnonzero(row)
    signs = row[face]
    e, k = factor.shape[0], len(face)
    kkt = np.zeros((e + k + 2, e + k + 2))
    kkt[:e, :e] = np.eye(e)
    kkt[:e, e : e + k] = factor[:, face] * signs
    kkt[e : e + k, :e] = kkt[:e, e : e + k].T
    kkt[e : e + k, e + k] = kkt[e + k, e : e + k] = signs > 0
    kkt[e : e + k, e + k + 1] = kkt[e + k + 1, e : e + k] = signs < 0
    rhs = np.zeros(e + k + 2)
    rhs[e + k :] = 1.0
    return face, np.linalg.solve(kkt, rhs)[e : e + k]


def central_difference_partials(tree):
    """The witness's partials by central differences of ``extended_gap``.

    The reference for the exact partials of ``kkt_check_generic``: each
    coordinate is stepped by h = min(1e-6, least load / 2) both ways.
    """
    simplex, load = equality_witness(tree)
    h = min(1e-6, float(min(load.m.min(), load.n.min())) / 2.0)

    def partials(team, value):
        steps = h * np.eye(team.size)
        return np.array([(value(team + d) - value(team - d)) / (2.0 * h) for d in steps])

    return (
        partials(load.m, lambda m: extended_gap(simplex, LoadVector(m, load.n))),
        partials(load.n, lambda n: extended_gap(simplex, LoadVector(load.m, n))),
    )


def tree_face_gaps(tree, points, rows):
    """Gaps of faces by elimination along the whole tree (``_tree_faces``).

    ``rows`` (r, k) signs the ``points``: +1 on the a-team, -1 on the
    b-team, 0 where the point is left free.
    """
    signs = np.zeros((len(tree), len(rows)), dtype=np.int8)
    signs[[tree.position[v] for v in points]] = np.asarray(rows).T
    weight, middle = oracle._middle_units(tree.up_weight[1:])
    conductance = np.concatenate([[0.0], 1.0 / weight])
    gaps, _outflow = oracle._tree_faces(np.asarray(tree.parent_position), conductance, signs)
    return gaps * middle


def extreme_path3():
    # 1e8 + 1e-8 rounds to 1e8, so any distance-form quadratic loses the
    # light edge; the gap is about 1e-8.
    return build_tree(["d", "1", "f"], [("d", "1", 1e8), ("d", "f", 1e-8)])


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

    def test_unique_minimizer_is_the_generic_witness(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(2, 9)))
            _d, load = equality_witness(tree)
            result = minimize_gap_over_loads(generic_labeling(tree))
            assert result.converged
            assert np.max(np.abs(result.argmin_m - load.m)) <= 1e-5
            assert np.max(np.abs(result.argmin_n - load.n)) <= 1e-5

    def test_full_face_is_the_least_face(self):
        # The full face's stationary point is the minimum over the closed
        # simplex product: no face inside it, with the same teams, is lower.
        rng = np.random.default_rng(83)
        for _ in range(400):
            tree = random_tree(rng, int(rng.integers(2, 8)))
            d = random_simplex(rng, tree)
            teams = np.concatenate([np.ones(d.q), -np.ones(d.t)])
            table = oracle._face_table(d.q + d.t)
            inside = (table == 0) | (table == teams)
            swapped = (table == 0) | (table == -teams)
            rows = table[inside.all(axis=1) | swapped.all(axis=1)]
            least = tree_face_gaps(tree, d.a_team + d.b_team, rows).min()
            result = minimize_gap_over_loads(d)
            assert result.iterations == 1 and result.converged
            assert abs(result.value - least) <= 1e-9 * least

    def test_wide_span_input_takes_one_solve(self):
        # Weights spanning 1e+-8 on 12 vertices, an input on which a primal
        # active set from the uniform load cycles between faces.
        edges = [
            ("v0", "v1", 3842.567923293524),
            ("v1", "v2", 0.00032785981002213043),
            ("v2", "v3", 3.885745241655218e-07),
            ("v2", "v4", 6632.483259282032),
            ("v4", "v5", 1433.5309257036279),
            ("v3", "v6", 2.6636330669096448e-05),
            ("v2", "v7", 487785.4546566994),
            ("v2", "v8", 14529.178897446016),
            ("v2", "v9", 0.0002679552791959575),
            ("v0", "v10", 827303.1626169619),
            ("v4", "v11", 0.0011407119798613554),
        ]
        tree = build_tree([f"v{i}" for i in range(12)], edges)
        a_team = ["v11", "v6", "v4", "v3", "v5", "v10", "v8", "v1", "v9"]
        b_team = ["v2", "v0", "v7"]
        d = make_simplex(tree, a_team, b_team)
        started = time.monotonic()
        result = minimize_gap_over_loads(d)
        assert time.monotonic() - started < 2.0
        assert result.iterations == 1
        assert result.converged
        [expected] = tree_face_gaps(tree, a_team + b_team, [[1] * 9 + [-1] * 3])
        assert abs(result.value - expected) <= 1e-12 * expected

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

    @settings(max_examples=60, deadline=None)
    @given(tree=trees(min_size=2, max_size=20), seed=st.integers(0, 2**32 - 1))
    def test_argmin_is_feasible_and_beats_random_loads(self, tree, seed):
        rng = np.random.default_rng(seed)
        d = random_simplex(rng, tree)
        result = minimize_gap_over_loads(d)
        assert result.converged
        for team in (result.argmin_m, result.argmin_n):
            assert team.min() >= 0.0
            assert abs(team.sum() - 1.0) <= 1e-12
        for _ in range(20):
            other = extended_gap(d, random_normalized_load(rng, d.q, d.t))
            assert result.value <= other * (1.0 + 1e-12)

    def test_extreme_weight_ratio(self):
        tree = extreme_path3()
        gamma = gamma_T(tree).gamma
        started = time.monotonic()
        result = minimize_gap_over_loads(generic_labeling(tree))
        assert time.monotonic() - started < 2.0
        assert result.value >= 0.0
        assert abs(result.value - gamma) <= 1e-7 * gamma

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
                witness, load = equality_witness(tree)
                found = brute_force_gamma(tree)
                generic = dict(zip(witness.a_team, load.m))
                generic.update(zip(witness.b_team, load.n))
                assert {frozenset(found.a_team), frozenset(found.b_team)} == {
                    frozenset(witness.a_team),
                    frozenset(witness.b_team),
                }
                pairs = list(zip(found.a_team, found.argmin_m))
                pairs += zip(found.b_team, found.argmin_n)
                for v, x in pairs:
                    assert abs(x - generic[v]) <= 1e-6

    @settings(max_examples=80, deadline=None)
    @given(tree=trees(min_size=2, max_size=9))
    def test_equals_gamma(self, tree):
        gamma = gamma_T(tree).gamma
        assert abs(brute_force_gamma(tree).value - gamma) <= 1e-12 * gamma

    def test_extreme_weight_ratio(self):
        tree = extreme_path3()
        gamma = gamma_T(tree).gamma
        started = time.monotonic()
        result = brute_force_gamma(tree)
        assert time.monotonic() - started < 2.0
        assert result.value >= 0.0
        assert abs(result.value - gamma) <= 1e-7 * gamma

    def test_deterministic(self):
        rng = np.random.default_rng(76)
        tree = random_tree(rng, 6)
        first = brute_force_gamma(tree)
        second = brute_force_gamma(tree)
        assert first.value == second.value
        assert first.a_team == second.a_team
        assert first.argmin_m.tolist() == second.argmin_m.tolist()

    @settings(max_examples=60, deadline=None)
    @given(tree=log_weight_trees(max_size=9, span=3.0))
    def test_elimination_matches_face_solves(self, tree):
        value, a_team, b_team, loads = face_solve_brute_force(tree)
        found = brute_force_gamma(tree)
        assert abs(found.value - value) <= 1e-12 * value
        assert (found.a_team, found.b_team) == (a_team, b_team)
        assert np.allclose(np.concatenate([found.argmin_m, found.argmin_n]), loads, rtol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        tree=log_weight_trees(max_size=9, span=150.0),
        scale=st.sampled_from([1.0, 1e-300, 1e300]),
    )
    def test_in_place_elimination_matches_the_old_one_bit_for_bit(self, tree, scale):
        # reference_numpy._tree_faces allocates a fresh array per pass; the
        # in-place one must give every face the same gap and outflows, as
        # brute_force_gamma batches them.  Scaled by 1e+-300, conductances
        # underflow or overflow, and most faces are NaN or infinite.
        n = len(tree)
        positions = [tree.position[v] for v in tree.vertices]
        table = np.ascontiguousarray(oracle._face_table(n)[:, np.argsort(positions)].T)
        parent = np.asarray(tree.parent_position)
        weight, _middle = oracle._middle_units(tree.up_weight[1:])
        with np.errstate(over="ignore"):
            conductance = np.concatenate([[0.0], scale / weight])
        for start in range(0, table.shape[1], oracle.FACE_BATCH):
            signs = table[:, start : start + oracle.FACE_BATCH]
            # Both reduce the subtrees outside their errstate; brute_force_gamma
            # never hands them conductances that warn there.
            with np.errstate(over="ignore", invalid="ignore"):
                found = oracle._tree_faces(parent, conductance, signs)
                expected = reference_numpy._tree_faces(parent, conductance, signs)
            for got, want in zip(found, expected):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(tree=log_weight_trees(max_size=7, span=3.0))
    def test_every_face_gap_matches_its_face_solve(self, tree):
        n = len(tree)
        positions = [tree.position[v] for v in tree.vertices]
        below, weight, factor = oracle._edge_form(tree, positions)
        table = oracle._face_table(n)
        z, feasible = oracle._face_solve(factor, None, table)
        solved = np.where(feasible, oracle._edge_values(table * z, below, weight), np.nan)
        gaps = tree_face_gaps(tree, tree.vertices, table)
        both = np.isfinite(solved) & np.isfinite(gaps)
        assert both.any()
        assert np.allclose(gaps[both], solved[both], rtol=1e-9, atol=0.0)

    @settings(max_examples=20, deadline=None)
    @given(tree=log_weight_trees(max_size=7, span=3.0))
    def test_face_solve_on_table_rows_matches_a_solve_on_the_face_columns(self, tree):
        n = len(tree)
        _below, _weight, factor = oracle._edge_form(tree, [tree.position[v] for v in tree.vertices])
        table = oracle._face_table(n)
        z, _feasible = oracle._face_solve(factor, None, table)
        assert (z[table == 0] == 0.0).all()
        for row, loads in zip(table, z):
            face, expected = face_columns_solve(factor, row)
            assert np.max(np.abs(loads[face] - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("span", [16.0, 64.0, 150.0])
    def test_extreme_weight_spans(self, span):
        rng = np.random.default_rng(2026)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            weights = 10.0 ** rng.uniform(-span, span, n - 1)
            edges = [(f"v{int(rng.integers(0, i))}", f"v{i}", w) for i, w in enumerate(weights, 1)]
            tree = build_tree([f"v{i}" for i in range(n)], edges)
            gamma = 1.0 / math.fsum(1.0 / weights)
            value = brute_force_gamma(tree).value
            assert abs(value - gamma) <= oracle.ORACLE_RTOL * gamma, (span, weights)

    def test_makes_no_linear_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("brute force called np.linalg.solve")

        tree = random_tree(np.random.default_rng(82), 9)
        gamma = gamma_T(tree).gamma
        monkeypatch.setattr(np.linalg, "solve", refuse)
        assert abs(brute_force_gamma(tree).value - gamma) <= 1e-12 * gamma

    @pytest.mark.parametrize("n", range(2, 10))
    def test_face_table_counts_every_face_once(self, n):
        table = oracle._face_table(n)
        assert len(table) == (3**n - 2 ** (n + 1) + 1) // 2
        assert len(np.unique(table, axis=0)) == len(table)
        assert ((table > 0).any(axis=1) & (table < 0).any(axis=1)).all()
        assert (table[np.arange(len(table)), np.argmax(table != 0, axis=1)] == 1).all()

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

    def test_singular_faces_are_skipped(self):
        # At p = 2 some faces of the star have exactly singular systems.  The
        # uniform leaf load against the centre attains 1 - 2^(2 - p*) = -1/2.
        metric = metric_from_tree(build_star(4))
        assert gamma_p_estimate(metric, 2.0) == pytest.approx(-0.5, abs=1e-12)

    def test_seeded_determinism(self):
        metric = metric_from_tree(build_star(4))
        first = gamma_p_estimate(metric, 1.3)
        assert np.float64(first).tobytes() == np.float64(gamma_p_estimate(metric, 1.3)).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        metric=integer_point_sets(max_size=8),
        p=st.sampled_from([0.5, 1.5, 2.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_at_most_the_gap_at_random_loads(self, metric, p, seed):
        rng = np.random.default_rng(seed)
        n = len(metric)
        found = gamma_p_estimate(metric, p)
        dp = power_matrix(metric.matrix, p)
        for _ in range(50):
            signs = rng.permutation(np.arange(n) < int(rng.integers(1, n)))
            u = rng.uniform(0.0, 1.0, n)
            u = np.where(signs, u / u[signs].sum(), -u / u[~signs].sum())
            value = -0.5 * float(u @ dp @ u)
            assert found <= value + 1e-12 * float(dp.max())

    def test_size_cap(self):
        rng = np.random.default_rng(79)
        metric = metric_from_tree(random_tree(rng, 9))
        with pytest.raises(TooLarge):
            gamma_p_estimate(metric, 1.0)
        with pytest.raises(TooFewPoints):
            gamma_p_estimate(FiniteMetric(["x"], [[0.0]]), 1.0)

    def test_zero_minimum_keeps_its_sign_only_to_rounding(self):
        # Euclidean points have 2-negative type, so the unit square's exact
        # minimum at p = 2 is 0; the estimate may land a rounding error below.
        s = math.sqrt(2.0)
        square = FiniteMetric("abcd", [[0, 1, s, 1], [1, 0, 1, s], [s, 1, 0, 1], [1, s, 1, 0]])
        assert abs(gamma_p_estimate(square, 2.0)) <= 1e-15


class TestKktAtWitness:
    def test_unit_path_multipliers(self):
        report = kkt_check_generic(unit_path3(), gamma_T(unit_path3()))
        assert report.consistent
        assert (report.lambda_a + report.lambda_b) / 2.0 == pytest.approx(
            0.5, abs=1e-5
        )
        assert report.spread_a <= 1e-5
        assert report.spread_b <= 1e-5

    def test_random_weighted_tree(self):
        rng = np.random.default_rng(80)
        tree = random_tree(rng, 7)
        report = kkt_check_generic(tree, gamma_T(tree))
        assert report.consistent
        assert (report.lambda_a + report.lambda_b) / 2.0 == pytest.approx(
            report.gamma, abs=1e-5
        )

    @settings(max_examples=60, deadline=None)
    @given(tree=log_weight_trees())
    def test_exact_partials_match_central_differences(self, tree):
        report = kkt_check_generic(tree, gamma_T(tree))
        partials_a, partials_b = central_difference_partials(tree)
        lambda_a, lambda_b = partials_a.mean(), partials_b.mean()
        expected = (
            lambda_a,
            lambda_b,
            np.abs(partials_a - lambda_a).max(),
            np.abs(partials_b - lambda_b).max(),
        )
        got = (report.lambda_a, report.lambda_b, report.spread_a, report.spread_b)
        assert np.max(np.abs(np.subtract(got, expected))) <= 1e-6 * report.gamma
        assert report.consistent

    def test_judges_the_report_it_is_handed(self):
        # Swapping two a-team weights of the path 1, 2, 3, 4 keeps both team
        # sums at one but moves the witness off its stationary point.
        tree = build_tree(
            [f"v{i}" for i in range(5)], [(f"v{i}", f"v{i + 1}", i + 1.0) for i in range(4)]
        )
        report = gamma_T(tree)
        assert kkt_check_generic(tree, report).consistent
        i, j = tree.position["v0"], tree.position["v4"]
        signed = list(report.signed)
        signed[i], signed[j] = signed[j], signed[i]
        assert signed[i] > 0.0 and signed[j] > 0.0 and signed[i] != signed[j]
        assert not kkt_check_generic(tree, report._replace(signed=tuple(signed))).consistent
