"""End-to-end checks tying the package together.

One test per deliverable property: the closed-form gap against the
brute-force oracle, the weighting thresholds, optimality of the witness,
the edge decomposition, pruning, exponent estimates and the derivative
identities.  Each test prints a single PASS/FAIL line (visible with -s)
summarizing what was measured before asserting.
"""

import time

import networkx as nx
import numpy as np

from treegap import (
    LoadVector,
    brute_force_gamma,
    build_necklace,
    build_star,
    build_tree,
    edge_contribution,
    equality_witness,
    extended_gap,
    gamma_T,
    gap_by_edges,
    gap_direct,
    generic_algorithm,
    generic_delta,
    generic_labeling,
    has_p_negative_type,
    max_negative_type,
    metric_from_tree,
    partition_sums,
    positivity_threshold,
    prunable_edges,
    prune,
    star_max_p,
    zeta_lower_bound,
)

from conftest import random_normalized_load, random_simplex, random_tree


def _conclude(num: int, detail: str, ok: bool) -> None:
    print(("PASS" if ok else "FAIL") + f" criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_01_closed_form_matches_brute_force_minimization():
    """Exhaustive unweighted shapes up to 8 vertices, then random weights."""
    started = time.monotonic()
    worst = 0.0
    checked = 0
    for n in range(2, 9):
        for g in nx.nonisomorphic_trees(n):
            edges = [(f"v{u}", f"v{w}", 1.0) for u, w in g.edges()]
            t = build_tree([f"v{i}" for i in range(n)], edges)
            want = gamma_T(t).gamma
            got = brute_force_gamma(t).value
            worst = max(worst, abs(got - want) / want)
            checked += 1
    rng = np.random.default_rng(202)
    for _ in range(50):
        t = random_tree(rng, int(rng.integers(2, 9)))
        want = gamma_T(t).gamma
        got = brute_force_gamma(t).value
        worst = max(worst, abs(got - want) / want)
        checked += 1
    elapsed = time.monotonic() - started
    _conclude(
        1,
        f"{checked} trees, worst relative error {worst:.3g}, {elapsed:.1f}s",
        worst <= 1e-7 and elapsed < 300.0,
    )


def test_02_unweighted_gap_is_inverse_edge_count():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in range(2, 13):
        shapes = [random_tree(rng, n, unit=True) for _ in range(5)]
        if n >= 3:
            shapes.append(build_star(n - 1))
        for t in shapes:
            worst = max(worst, abs(gamma_T(t).gamma - 1.0 / (n - 1)))
    _conclude(2, f"max deviation from 1/(n-1) is {worst:.3g}, n = 2..12", worst <= 1e-12)


def test_03_weighting_positivity_and_normalization_thresholds():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        t = random_tree(rng, int(rng.integers(3, 11)))
        threshold = positivity_threshold(t)
        below = generic_algorithm(t, 0.99 * threshold)
        above = generic_algorithm(t, 1.01 * threshold)
        ok = ok and all(w > 0 for w in below.values())
        ok = ok and not all(w > 0 for w in above.values())

        star = generic_delta(t)
        d = generic_labeling(t)

        def sums(delta):
            w = generic_algorithm(t, delta)
            return (
                sum(w[v] for v in d.a_team),
                sum(w[v] for v in d.b_team),
            )

        ok = ok and max(abs(s - 1.0) for s in sums(star)) <= 1e-10
        for delta in (0.99 * star, 1.01 * star):
            ok = ok and max(abs(s - 1.0) for s in sums(delta)) > 1e-10
    _conclude(3, "positivity flips at the threshold, team sums hit 1 only at delta*", ok)


def _matches_witness(simplex, load, witness) -> bool:
    # same vertex set, same split up to team swap, same per-vertex weights
    target, target_load = witness
    ref = dict(zip(target.a_team, target_load.m))
    ref.update(zip(target.b_team, target_load.n))
    mine = dict(zip(simplex.a_team, load.m))
    mine.update(zip(simplex.b_team, load.n))
    if set(mine) != set(ref):
        return False
    if set(simplex.a_team) not in (set(target.a_team), set(target.b_team)):
        return False
    return all(abs(mine[v] - ref[v]) <= 1e-12 for v in ref)


def test_04_generic_witness_attains_the_minimum_uniquely():
    rng = np.random.default_rng(17)
    worst_rel = 0.0
    for _ in range(50):
        t = random_tree(rng, int(rng.integers(2, 10)))
        gamma = gamma_T(t).gamma
        simplex, load = equality_witness(t)
        # independent evaluation through the quadratic form, not the edge sum
        worst_rel = max(worst_rel, abs(gap_direct(simplex, load, 1.0) - gamma) / gamma)

    strictly_above = True
    count = 0
    while count < 200:
        t = random_tree(rng, int(rng.integers(2, 10)))
        report = gamma_T(t)
        d = random_simplex(rng, t)
        load = random_normalized_load(rng, d.q, d.t)
        if _matches_witness(d, load, equality_witness(t)):
            continue
        count += 1
        strictly_above = strictly_above and (
            gap_direct(d, load, 1.0) > report.gamma * (1.0 + 1e-9)
        )
    _conclude(
        4,
        f"witness relative error {worst_rel:.3g}; 200 other configurations sit above",
        worst_rel <= 1e-10 and strictly_above,
    )


def test_05_direct_gap_equals_edge_decomposition():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        t = random_tree(rng, int(rng.integers(2, 11)))
        d = random_simplex(rng, t)
        load = random_normalized_load(rng, d.q, d.t)
        direct = gap_direct(d, load, 1.0)
        by_edges = gap_by_edges(d, load)
        worst = max(worst, abs(direct - by_edges) / max(direct, by_edges))
    _conclude(5, f"worst relative disagreement {worst:.3g} over 200 simplexes", worst <= 1e-10)


def test_06_pruning_removes_exactly_one_edge_contribution():
    rng = np.random.default_rng(29)
    worst = 0.0
    done = 0
    while done < 200:
        t = random_tree(rng, int(rng.integers(3, 10)))
        d = random_simplex(rng, t)
        edges = prunable_edges(d)
        if not edges:
            continue
        load = random_normalized_load(rng, d.q, d.t)
        e = edges[int(rng.integers(0, len(edges)))]
        before = gap_by_edges(d, load)
        removed = edge_contribution(d, load, e)
        d2, load2, _ = prune(d, load, e)
        after = gap_by_edges(d2, load2)
        worst = max(worst, abs(after - (before - removed)) / before)
        done += 1
    _conclude(6, f"worst relative identity error {worst:.3g} over 200 prunes", worst <= 1e-10)


def test_07_star_exponent_estimates_match_closed_form():
    started = time.monotonic()
    worst = 0.0
    for n in range(2, 9):
        estimate = max_negative_type(metric_from_tree(build_star(n)))
        worst = max(worst, abs(estimate.p_star - star_max_p(n)))
    elapsed = time.monotonic() - started
    _conclude(
        7,
        f"worst bisection error {worst:.3g} for n = 2..8, {elapsed:.1f}s",
        worst <= 1e-4 and elapsed < 30.0,
    )


def test_08_restricted_spectrum_sits_below_half_gap():
    rng = np.random.default_rng(31)
    slack = -np.inf
    for _ in range(100):
        t = random_tree(rng, int(rng.integers(2, 11)))
        lam = has_p_negative_type(metric_from_tree(t), 1.0).lambda_max
        slack = max(slack, lam - (-gamma_T(t).gamma / 2.0 + 1e-9))
    _conclude(8, f"largest eigenvalue excess {slack:.3g} over 100 trees", slack <= 0.0)


def test_09_strictness_holds_inside_the_exponent_interval():
    rng = np.random.default_rng(37)
    ok = True
    for _ in range(50):
        base = random_tree(rng, int(rng.integers(3, 10)))
        s = min(e.weight for e in base.edges)
        scaled = build_tree(
            list(base.vertices),
            [(e.left, e.right, e.weight / s) for e in base.edges],
            root=base.root,
        )
        metric = metric_from_tree(scaled)
        zeta = zeta_lower_bound(metric, gamma_T(scaled).gamma)
        for p in (1.0 - 0.99 * zeta, 1.0 + 0.99 * zeta):
            ok = ok and has_p_negative_type(metric, p).status == "strict"
    _conclude(9, "strict at p = 1 +/- 0.99*zeta on 50 rescaled trees", ok)


def test_10_necklace_growth_lowers_exponent_and_gap():
    estimates = []
    exact = True
    for n in range(2, 7):
        t = build_necklace(n)
        exact = exact and gamma_T(t).gamma == 1.0 / len(t.edges)
        estimates.append(max_negative_type(metric_from_tree(t)).p_star)
    nonincreasing = all(b <= a for a, b in zip(estimates, estimates[1:]))
    bounded = all(p <= star_max_p(n) + 1e-4 for n, p in zip(range(2, 7), estimates))
    _conclude(
        10,
        f"estimates {[round(p, 6) for p in estimates]} nonincreasing and below star values",
        exact and nonincreasing and bounded,
    )


def test_11_load_derivatives_recover_edge_imbalances():
    rng = np.random.default_rng(41)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        t = random_tree(rng, int(rng.integers(2, 10)))
        d = generic_labeling(t)
        load = random_normalized_load(rng, d.q, d.t)

        def bump(v, eps):
            m = load.m.copy()
            n = load.n.copy()
            if d.parity(v) == "a":
                m[d.a_team.index(v)] += eps
            else:
                n[d.b_team.index(v)] += eps
            return LoadVector(m, n)

        def diff(v):
            return (extended_gap(d, bump(v, h)) - extended_gap(d, bump(v, -h))) / (2 * h)

        for e in d.subtree.edges:
            s = partition_sums(d, load, e)
            sign = 1.0 if d.parity(e.left) == "a" else -1.0
            target = 2.0 * sign * (s.alpha_l - s.beta_l) * e.weight
            worst = max(worst, abs(diff(e.left) + diff(e.right) - target))
    _conclude(11, f"worst derivative residual {worst:.3g} over 100 configurations", worst <= 1e-5)
