import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegap import (
    CapReached,
    DegenerateMetric,
    DuplicateVertex,
    FiniteMetric,
    InvalidExponent,
    InvalidMetric,
    NonPositiveLoad,
    NonZeroSum,
    TooFewLeaves,
    TooFewPoints,
    TooSmall,
    ZeroVector,
    build_necklace,
    build_star,
    build_tree,
    equality_witness,
    eta_to_simplex,
    gamma_T,
    generalized_roundness_check,
    has_p_negative_type,
    is_equality_witness,
    max_negative_type,
    metric_from_tree,
    power_matrix,
    star_max_p,
    tree_maxp_lower_bound,
    verify_enhanced_inequality,
    zeta_lower_bound,
)
from treegap import metric as metric_module
from treegap import negtype

from conftest import euclidean_metric, integer_point_sets, random_tree, trees


def unit_path3():
    return build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 1.0)], root="b")


def path3_metric():
    return metric_from_tree(unit_path3())


small_integer_sets = integer_point_sets()


def two_point_metric():
    return FiniteMetric(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])


def cycle_metric(n):
    """The n-cycle's hop metric; above p* its top restricted eigenvalue is double."""
    i = np.arange(n)
    hops = np.abs(i[:, None] - i[None, :])
    return FiniteMetric([f"c{k}" for k in range(n)], np.minimum(hops, n - hops).astype(float))


# Six points of the plane: Euclidean, so p* = 2, where the form is non-strict.
PLANAR6 = [(0, 0), (3, 1), (1, 4), (5, 5), (2, 7), (6, 2)]


@pytest.fixture
def linalg_calls(monkeypatch):
    """Calls of np.linalg's eigen-solvers and of its linear solve, by name."""
    calls = Counter()
    for name in ("eigh", "eigvalsh", "solve"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@st.composite
def euclidean_points_at_p2(draw):
    """n points of R^dim at p = 2: non-strict, top eigenspace of dimension n - 1 - dim."""
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(dim + 2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return euclidean_metric(rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3)), 2.0


@st.composite
def unit_stars_above_p_star(draw):
    n = draw(st.integers(2, 30))
    return metric_from_tree(build_star(n)), star_max_p(n) + draw(st.sampled_from([1e-4, 0.01, 1.0]))


@st.composite
def cycles_above_p_star(draw):
    return cycle_metric(draw(st.integers(5, 24))), draw(st.sampled_from([1.5, 2.0, 3.0]))


def _triangle_holds_per_point(d, slack):
    """The per-point loop FiniteMetric ran before its check was tiled."""
    with np.errstate(over="ignore"):
        for j in range(len(d)):
            via = d[:, j][:, None] + d[j, :][None, :]
            if np.min(via - d) < -slack:
                return False
    return True


def _tile_sweep_names(d, slack):
    """The point a float64 sweep of whole 64-row tiles names, or None.

    The reference for FiniteMetric's message: the first tile with a margin
    below -slack, that tile's most negative margin (first in row-major
    order), then the first j attaining the least d(i,j) + d(j,k).
    """
    n = len(d)
    with np.errstate(over="ignore"):
        for top in range(0, n, 64):
            block = d[top : top + 64, :, None] + d[None, :, top:]
            margin = block.min(axis=1) - d[top : top + 64, top:]
            if margin.min() < -slack:
                i, k = np.unravel_index(np.argmin(margin), margin.shape)
                return int(np.argmin(d[top + i] + d[top + k]))
    return None


def _path_sums_from_every_source(parents, weights):
    """Geodesic distances of the tree with vertex i's parent parents[i - 1]."""
    n = len(parents) + 1
    near = [[] for _ in range(n)]
    for i, (p, w) in enumerate(zip(parents, weights), 1):
        near[i].append((p, w))
        near[p].append((i, w))
    d = np.zeros((n, n))
    for source in range(n):
        row, stack = d[source], [(source, -1)]
        while stack:
            u, came_from = stack.pop()
            for v, w in near[u]:
                if v != came_from:
                    row[v] = row[u] + w
                    stack.append((v, u))
    return d


def _symmetric(d):
    d = d / 2.0 + d.T / 2.0
    np.fill_diagonal(d, 0.0)
    return d


@st.composite
def near_tight_matrices(draw):
    """Metrics whose triples are tight or nearly so, with one entry nudged.

    Collinear Euclidean points, integer grids, and tree metrics with
    log-uniform weights, the last also rescaled so that the largest entry
    is 1.5e308 and sums of two large entries overflow.  Weights within
    1e+-1 go through metric_from_tree; wider spans are summed along each
    path from every source.  The nudge moves one pair by 1-4 ulp or by one
    or two times the check's slack.
    """
    family = draw(st.sampled_from(["collinear", "grid", "tree", "tree-1.5e308"]))
    n = draw(st.integers(3, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "collinear":
        dim = int(rng.integers(1, 4))
        x = rng.normal(size=dim) + rng.uniform(-10.0, 10.0, size=(n, 1)) * rng.normal(size=dim)
        d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    elif family == "grid":
        side = int(np.ceil(np.sqrt(n))) + int(rng.integers(0, 3))
        cells = rng.choice(side * side, size=n, replace=False)
        x = np.stack([cells // side, cells % side], axis=1).astype(float)
        d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    else:
        # Rescaled, a 1e+-300 span would underflow its least entries to 0.
        rescaled = family == "tree-1.5e308"
        span = draw(st.sampled_from([1.0, 16.0, 150.0] + ([] if rescaled else [300.0])))
        weights = 10.0 ** rng.uniform(-span, span, size=n - 1)
        parents = [int(rng.integers(0, i)) for i in range(1, n)]
        if span == 1.0:
            edges = [(f"v{p}", f"v{i}", w) for i, (p, w) in enumerate(zip(parents, weights), 1)]
            d = metric_from_tree(build_tree([f"v{i}" for i in range(n)], edges)).matrix.copy()
        else:
            d = _path_sums_from_every_source(parents, weights)
        if rescaled:
            d = d / d.max() * 1.5e308
    d = _symmetric(d)
    slack = 1e-12 * max(float(d.max()), 1.0)
    nudge = draw(st.sampled_from(["none", "ulp", "slack"]))
    if nudge != "none":
        i, k = (int(v) for v in rng.choice(n, size=2, replace=False))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        value = d[i, k]
        if nudge == "ulp":
            for _ in range(draw(st.integers(1, 4))):
                value = np.nextafter(value, sign * np.inf)
        else:
            step = draw(st.sampled_from([1.0, 2.0])) * slack
            value = value + sign * step if value + sign * step > 0.0 else value + step
        d[i, k] = d[k, i] = value
    return d, 1e-12 * max(float(d.max()), 1.0)


@st.composite
def int16_edge_matrices(draw):
    """Metrics at the edges of the int16 screen's resolution u = 2**-14 * max.

    Points on a line at whole or half units, with every off-diagonal entry
    raised by c in {0, 1/2, ..., 3} u, so that collinear triples have a
    margin of exactly c.  The largest entry is a power of two, one ulp
    below one, or an integer above 2**14 (then u is rounded to an integer
    and so is every entry).  Some points may get a twin 2**-20 or 2**-40
    times the largest entry away, a distance that scales to 0.  One entry
    may then move by 1/4 to 3 u, or to within 2 ulp of either side of the slack.
    """
    family = draw(st.sampled_from(["power-of-two", "ulp-below", "integer"]))
    n = draw(st.integers(3, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(0, 6)) / 2.0
    if family == "integer":
        unit = float(draw(st.integers(2, 64)))
        c = np.ceil(c * unit)
        x = np.sort(rng.choice(2**14 * int(unit), size=n, replace=False)).astype(float)
    else:
        unit = 2.0 ** draw(st.integers(-40, 40))
        x = np.sort(rng.choice(2 * (2**14 - int(c)), size=n, replace=False)) / 2.0
        x[0], x[-1] = 0.0, 2**14 - c
        c, x = c * unit, x * unit
    d = np.abs(x[:, None] - x[None, :]) + c
    twins = draw(st.integers(0, 3)) if n > 4 else 0
    for i in rng.choice(n - 1, size=twins, replace=False):
        # Point i + 1 moves next to point i, as far from the rest.
        away = float(d.max()) * draw(st.sampled_from([2.0**-20, 2.0**-40]))
        d[i + 1] = d[i]
        d[:, i + 1] = d[:, i]
        d[i, i + 1] = d[i + 1, i] = away
    np.fill_diagonal(d, 0.0)
    if family == "ulp-below":
        ends = d == d.max()
        d[ends] = np.nextafter(d[ends], 0.0)
    slack = 1e-12 * max(float(d.max()), 1.0)
    nudge = draw(st.sampled_from(["none", "units", "slack"]))
    if nudge != "none":
        i, k = (int(v) for v in rng.choice(n, size=2, replace=False))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        if nudge == "units":
            value = d[i, k] + sign * draw(st.integers(1, 12)) / 4.0 * unit
        else:
            value = d[i, k] + sign * slack
            for _ in range(draw(st.integers(0, 2))):
                value = np.nextafter(value, draw(st.sampled_from([-np.inf, np.inf])))
        d[i, k] = d[k, i] = value if value > 0.0 else d[i, k]
    return d, 1e-12 * max(float(d.max()), 1.0)


def _pair_loop_worst_margin(dp, trials, seed, cap):
    """generalized_roundness_check's draws and margin, one pair at a time."""
    n = len(dp)
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, cap + 1, size=trials)
    teams = rng.integers(0, n, size=(trials, 2, cap))
    worst = math.inf
    for k, (a, b) in zip(sizes, teams):
        a, b = a[:k], b[:k]
        within = sum(dp[a[i], a[j]] + dp[b[i], b[j]] for i in range(k) for j in range(i + 1, k))
        cross = sum(dp[x, y] for x in a for y in b)
        worst = min(worst, cross - within)
    return worst


class TestFiniteMetric:
    def test_single_unit_edge(self):
        metric = metric_from_tree(build_tree(["a", "b"], [("a", "b", 1.0)]))
        assert metric.matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_weighted_path_distance(self):
        t = build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 2.0)])
        metric = metric_from_tree(t)
        assert metric.distance("a", "b") == 3.0

    def test_star_entries(self):
        t = build_tree(
            ["r", "l1", "l2", "l3"],
            [("r", "l1", 1.0), ("r", "l2", 1.0), ("r", "l3", 1.0)],
        )
        metric = metric_from_tree(t)
        assert set(np.unique(metric.matrix).tolist()) == {0.0, 1.0, 2.0}

    def test_light_edges_beside_a_heavy_one(self):
        # Rows built as differences gave d(b, c) = 3.5.
        t = build_tree("abcd", [("a", "b", 1e16), ("b", "c", 3.0), ("c", "d", 1.0)])
        assert metric_from_tree(t).distance("b", "c") == 3.0

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        span=st.sampled_from([1.0, 16.0, 150.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distances_are_path_sums(self, n, span, seed):
        # Each distance sums at most n - 1 positive weights, so either sum
        # is within (n - 2) u of the exact one, whatever the span.
        rng = np.random.default_rng(seed)
        weights = 10.0 ** rng.uniform(-span, span, size=n - 1)
        parents = [int(rng.integers(0, i)) for i in range(1, n)]
        edges = [(f"v{p}", f"v{i}", w) for i, (p, w) in enumerate(zip(parents, weights), 1)]
        metric = metric_from_tree(build_tree([f"v{i}" for i in range(n)], edges))
        order = [metric.index(f"v{i}") for i in range(n)]
        d = metric.matrix[np.ix_(order, order)]
        expected = _path_sums_from_every_source(parents, weights)
        assert np.all(np.abs(d - expected) <= n * np.finfo(float).eps * expected)

    def test_subset_restriction(self):
        t = unit_path3()
        metric = metric_from_tree(t, subset=["b", "a"])
        assert metric.labels == ("a", "b")
        assert metric.distance("a", "b") == 2.0

    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidMetric):
            FiniteMetric(["x", "y"], [[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidMetric):
            FiniteMetric(["x", "y"], [[0.5, 1.0], [1.0, 0.0]])

    def test_rejects_triangle_violation(self):
        with pytest.raises(InvalidMetric, match="through point 'y'"):
            FiniteMetric(
                ["x", "y", "z"],
                [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]],
            )

    def test_tiled_triangle_check_agrees_with_per_point_loop(self):
        # One entry of a Euclidean metric is scaled; about half the cases
        # are then rescaled so the largest entry is 1.5e308 and sums of two
        # large entries overflow to inf, which the check lets pass.  The
        # first sizes sit at the tile edges.
        tile = metric_module._TILE
        edges = (1, 2, tile - 1, tile, tile + 1, 2 * tile + 1)
        rng = np.random.default_rng(67)
        outcomes = set()
        for case in range(60):
            n = edges[case // 2] if case < 2 * len(edges) else int(rng.integers(3, 150))
            x = rng.normal(size=(n, int(rng.integers(1, 5))))
            d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
            if n > 2:
                i, k = rng.choice(n, size=2, replace=False)
                d[i, k] = d[k, i] = d[i, k] * float(rng.choice([0.05, 0.5, 1.0, 1.5, 3.0]))
            if case % 2 and n > 1:
                d *= 1.5e308 / d.max()
            slack = 1e-12 * max(float(d.max()), 1.0)
            accepted = self.agrees_with_tile_sweep(d, slack)
            assert accepted == _triangle_holds_per_point(d, slack), case
            outcomes.add((accepted, case % 2))
        assert outcomes == {(True, 0), (False, 0), (True, 1), (False, 1)}

    def test_violations_in_later_tiles_of_a_nearly_tight_metric(self):
        # Points 0.1 apart on a line: every triple is tight up to rounding,
        # so the first tile is left mostly open and the later ones are
        # swept without the screen.
        tile = metric_module._TILE
        n = 2 * tile + 1
        x = 0.1 * np.arange(n)
        line = np.abs(x[:, None] - x[None, :])
        top, open_ = next(metric_module._unscreened_pairs(line))
        assert top == 0 and 2 * open_.sum() > open_.size
        assert self.agrees_with_tile_sweep(line, 1e-12)
        for i, k in ((n - 2, n - 1), (tile, n - 1), (tile + 1, tile + 3)):
            d = line.copy()
            d[i, k] = d[k, i] = line[i, k] + 0.25
            assert not self.agrees_with_tile_sweep(d, 1e-12)

    def test_tied_violations_name_the_first_pair(self):
        # Two stretched pairs of an integer line with the same margin, -0.5:
        # the first in row-major order names its midpoint.
        x = np.arange(10.0)
        d = np.abs(x[:, None] - x[None, :])
        d[1, 3] = d[3, 1] = d[5, 7] = d[7, 5] = 2.5
        with pytest.raises(InvalidMetric, match="through point 'x2'$"):
            FiniteMetric([f"x{j}" for j in range(10)], d)

    def test_margin_of_exactly_minus_slack_passes(self):
        # d(x,y) = d(y,z) = s/2 and d(x,z) = 2s: the margin s - 2s is
        # exactly -s, the slack of a metric below 1.  One ulp more fails.
        s = metric_module._SLACK
        d = np.array([[0.0, s / 2, 2 * s], [s / 2, 0.0, s / 2], [2 * s, s / 2, 0.0]])
        FiniteMetric(["x", "y", "z"], d)
        d[0, 2] = d[2, 0] = np.nextafter(2 * s, np.inf)
        with pytest.raises(InvalidMetric, match="through point 'y'$"):
            FiniteMetric(["x", "y", "z"], d)

    def test_integer_metrics_pass_the_screen(self):
        # Exact sums of integers meet the screen's ceil(d(i,k)) exactly, so
        # no pair of a grid or path metric needs the float64 sweep.
        cells = np.arange(150.0)
        grid = np.stack([cells // 13, cells % 13], axis=1)
        taxicab = np.abs(grid[:, None, :] - grid[None, :, :]).sum(axis=-1)
        for d in (taxicab, np.abs(cells[:, None] - cells)):
            assert not list(metric_module._unscreened_pairs(d))

    @settings(max_examples=150, deadline=None)
    @given(near_tight_matrices())
    def test_triangle_check_on_near_tight_metrics(self, case):
        # Near-tight triples are the ones the integer screen leaves open, so
        # the float64 sweep decides them, here at the slack boundary.
        d, slack = case
        assert self.agrees_with_tile_sweep(d, slack) == _triangle_holds_per_point(d, slack)

    @settings(max_examples=200, deadline=None)
    @given(int16_edge_matrices())
    def test_triangle_check_at_the_int16_resolution(self, case):
        # Margins of 0-3 units of the int16 screen, twins that scale to 0
        # and nudges across the slack: a pair the screens clear must pass
        # in float64, and the rest decide as a float64 sweep would.
        d, slack = case
        assert self.agrees_with_tile_sweep(d, slack) == _triangle_holds_per_point(d, slack)

    @pytest.mark.parametrize("case", ["gaussian-5d", "line-0.1", "taxicab"])
    def test_screen_widths_each_metric_runs(self, case, monkeypatch):
        # The dtype of every _min_plus sweep, in order: no timing involved.
        # Generic 5-D points run only the int16 screen.  The 0.1-spaced line
        # leaves the probe rows open, so int32 screens the first tile, which
        # it leaves mostly open, and float64 sweeps every tile.  The integer
        # grid is cleared by int16 alone.
        tile = metric_module._TILE
        if case == "gaussian-5d":
            x = np.random.default_rng(5).normal(size=(2 * tile + 1, 5))
            d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
        elif case == "line-0.1":
            x = 0.1 * np.arange(2 * tile + 1)
            d = np.abs(x[:, None] - x[None, :])
        else:
            cells = np.arange(150.0)
            grid = np.stack([cells // 13, cells % 13], axis=1)
            d = np.abs(grid[:, None, :] - grid[None, :, :]).sum(axis=-1)
        sweeps = []
        min_plus = metric_module._min_plus

        def recorded(a, b, step=1):
            sweeps.append((a.dtype.name, a.shape[1]))
            return min_plus(a, b, step)

        monkeypatch.setattr(metric_module, "_min_plus", recorded)
        FiniteMetric([f"x{j}" for j in range(len(d))], d)
        tiles = -(-len(d) // tile)
        probe = ("int16", metric_module._PROBE)
        if case == "line-0.1":
            assert sweeps[:2] == [probe, ("int32", tile)]
            assert [dtype for dtype, _ in sweeps[2:]] == ["float64"] * tiles
        else:
            assert [dtype for dtype, _ in sweeps] == ["int16"] * (1 + tiles)
            assert sweeps[0] == probe
            assert not list(metric_module._unscreened_pairs(d))

    @staticmethod
    def agrees_with_tile_sweep(d, slack):
        """FiniteMetric accepts d, or rejects it naming the tile sweep's point."""
        labels = [f"x{j}" for j in range(len(d))]
        named = _tile_sweep_names(_symmetric(d), slack)
        try:
            FiniteMetric(labels, d)
        except InvalidMetric as exc:
            assert named is not None
            assert str(exc) == f"triangle inequality fails through point {labels[named]!r}"
            return False
        assert named is None
        return True

    def test_violation_in_the_last_tile_names_its_point(self):
        # Points 0..n-1 on a line.  Stretching the last two apart to 3.5
        # beats the route through point n-3 (1 + 2): the pair is the last
        # one the check reaches, in the last column of the last tile that
        # holds row n-2.  Stretching the two ends apart by 0.5 beats every
        # route, and the first interior point is named.
        tile = metric_module._TILE
        for n in (3, tile - 1, tile, tile + 1, 2 * tile + 1):
            x = np.arange(n, dtype=float)
            labels = [f"x{j}" for j in range(n)]
            line = np.abs(x[:, None] - x[None, :])
            FiniteMetric(labels, line)
            for (i, k), stretched, through in (
                ((n - 2, n - 1), 3.5, n - 3),
                ((0, n - 1), n - 0.5, 1),
            ):
                d = line.copy()
                d[i, k] = d[k, i] = stretched
                assert not _triangle_holds_per_point(d, 1e-12 * n)
                with pytest.raises(InvalidMetric, match=f"through point 'x{through}'$"):
                    FiniteMetric(labels, d)

    def test_large_tree_metric_builds_in_seconds(self):
        # A tree metric is a metric by construction: no O(n^3) triangle check.
        tree = random_tree(np.random.default_rng(66), 2000)
        start = time.perf_counter()
        metric = metric_from_tree(tree)
        assert time.perf_counter() - start < 10.0
        assert metric.matrix.shape == (2000, 2000)
        assert metric.distance("v0", "v1999") == pytest.approx(tree.distance("v0", "v1999"))

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(InvalidMetric):
            FiniteMetric(["x", "y"], [[0.0, -1.0], [-1.0, 0.0]])

    def test_power_matrix_p0_convention(self):
        d = path3_metric().matrix
        m0 = power_matrix(d, 0.0)
        assert np.diag(m0).tolist() == [0.0, 0.0, 0.0]
        off = m0[~np.eye(3, dtype=bool)]
        assert np.all(off == 1.0)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.5])
    def test_power_matrix_is_the_masked_power(self, p):
        d = metric_from_tree(random_tree(np.random.default_rng(69), 12)).matrix
        masked = np.zeros_like(d)
        masked[d > 0.0] = d[d > 0.0] ** p
        assert power_matrix(d, p).tobytes() == masked.tobytes()


class TestVerdicts:
    def test_tree_at_p1_is_strict(self):
        v = has_p_negative_type(path3_metric(), 1.0)
        assert v.status == "strict"
        assert v.certificate is None
        assert v.lambda_max < 0

    def test_path_at_p2_is_non_strict(self):
        v = has_p_negative_type(path3_metric(), 2.0)
        assert v.status == "non_strict"
        assert abs(v.lambda_max) <= 1e-12 * 4.0
        flat = np.sort(np.abs(v.certificate))
        expect = np.array([1.0, 1.0, 2.0]) / math.sqrt(6.0)
        assert np.allclose(flat, np.sort(expect), atol=1e-9)

    def test_path_at_p25_fails_with_violating_eta(self):
        metric = path3_metric()
        v = has_p_negative_type(metric, 2.5)
        assert v.status == "fails"
        assert v.lambda_max > 0
        eta = v.certificate
        assert abs(eta.sum()) <= 1e-9
        dp = power_matrix(metric.matrix, 2.5)
        assert float(eta @ dp @ eta) > 0

    def test_discrete_metric_is_strict_at_p1(self):
        ones = np.ones((4, 4)) - np.eye(4)
        v = has_p_negative_type(FiniteMetric(list("wxyz"), ones), 1.0)
        assert v.status == "strict"

    def test_strict_wrapper(self):
        assert has_p_negative_type(path3_metric(), 1.0).status == "strict"
        assert has_p_negative_type(path3_metric(), 2.0).status != "strict"

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.one_of(trees(min_size=2, max_size=12).map(metric_from_tree), small_integer_sets),
        p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        c=st.sampled_from([1e-200, 1e-6, 1e6, 1e200]),
    )
    def test_status_does_not_depend_on_the_unit_of_length(self, case, p, c):
        scaled = FiniteMetric(case.labels, c * case.matrix)
        assert has_p_negative_type(scaled, p).status == has_p_negative_type(case, p).status

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(
            st.tuples(
                st.one_of(trees(min_size=2, max_size=40).map(metric_from_tree), small_integer_sets),
                st.sampled_from([1.5, 2.0, 2.5, 3.0]),
            ),
            euclidean_points_at_p2(),
            unit_stars_above_p_star(),
            cycles_above_p_star(),
        )
    )
    def test_certificate_attains_lambda_max(self, case_and_p):
        case, p = case_and_p
        verdict = has_p_negative_type(case, p)
        if verdict.status == "strict":
            return
        eta = verdict.certificate
        assert abs(float(eta.sum())) <= 1e-12
        assert float(np.linalg.norm(eta)) == pytest.approx(1.0, abs=1e-12)
        assert eta[np.argmax(np.abs(eta))] > 0.0
        dp = power_matrix(case.matrix, p)
        quad = float(eta @ dp @ eta)
        # relative to lambda_max itself, or to the largest entry when it is
        # rounding noise around zero
        scale = abs(verdict.lambda_max) if verdict.status == "fails" else float(dp.max())
        assert abs(quad - verdict.lambda_max) <= 1e-9 * scale
        # eta lies in the top eigenspace: the form maps it to lambda_max eta
        image = dp @ eta
        image -= image.mean()
        assert float(np.abs(image - verdict.lambda_max * eta).max()) <= 1e-9 * float(dp.max())

    @pytest.mark.parametrize(
        "metric, p, status",
        # A two-point space is strict at every p > 0, so it never needs a certificate.
        [(two_point_metric(), 0.5, "strict"), (two_point_metric(), 64.0, "strict"),
         (path3_metric(), 1.0, "strict"), (path3_metric(), 2.0, "non_strict"),
         (path3_metric(), 2.5, "fails"), (euclidean_metric(PLANAR6), 2.0, "non_strict"),
         (cycle_metric(7), 2.0, "fails")],
        ids=["two-points-0.5", "two-points-64", "path-1", "path-2", "path-2.5", "planar-2",
             "cycle-2"],
    )
    def test_a_verdict_solves_once_only_for_a_certificate(self, linalg_calls, metric, p, status):
        verdict = has_p_negative_type(metric, p)
        assert verdict.status == status
        assert (verdict.certificate is None) == (status == "strict")
        solves = 0 if status == "strict" else 1
        assert (linalg_calls["eigh"], linalg_calls["eigvalsh"], linalg_calls["solve"]) == (0, 1, solves)

    @pytest.mark.parametrize(
        "metric, p", [(path3_metric(), 2.0), (path3_metric(), 2.5), (cycle_metric(7), 2.0)]
    )
    def test_certificate_is_deterministic(self, metric, p):
        first, second = has_p_negative_type(metric, p), has_p_negative_type(metric, p)
        assert first.certificate.tobytes() == second.certificate.tobytes()
        assert first.lambda_max == second.lambda_max

    def test_certificate_sign_rule(self):
        # The path a-m-b fails at 2.5 along (-1, 2, -1) / sqrt 6, in label
        # order a, b, m: the middle point, the largest entry, comes out positive.
        eta = has_p_negative_type(path3_metric(), 2.5).certificate
        np.testing.assert_allclose(eta, np.array([-1.0, -1.0, 2.0]) / math.sqrt(6.0), atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidExponent):
            has_p_negative_type(path3_metric(), -0.5)
        with pytest.raises(TooFewPoints):
            has_p_negative_type(FiniteMetric(["x"], [[0.0]]), 1.0)


class TestRoundnessSampling:
    def test_tree_at_p1_never_violates(self):
        ok, worst = generalized_roundness_check(path3_metric(), 1.0, trials=1000)
        assert ok
        assert worst >= 0.0

    def test_adversarial_p3_violation_found(self):
        # teams (leaf, leaf) vs (mid, mid) break the inequality at p=3
        ok, worst = generalized_roundness_check(path3_metric(), 3.0, trials=200)
        assert not ok
        assert worst < 0.0

    def test_agrees_with_eigenvalue_verdict(self):
        rng = np.random.default_rng(61)
        for _ in range(12):
            tree = random_tree(rng, int(rng.integers(3, 8)))
            metric = metric_from_tree(tree)
            p = float(rng.uniform(0.2, 3.0))
            verdict = has_p_negative_type(metric, p)
            scale = float(power_matrix(metric.matrix, p).max())
            if abs(verdict.lambda_max) <= 1e-9 * scale:
                continue  # marginal band: sampling says nothing sharp
            ok, _ = generalized_roundness_check(metric, p, trials=1000, seed=5)
            if verdict.status == "strict":
                assert ok
            # a found violation must mean the eigenvalue test failed too
            if not ok:
                assert verdict.status == "fails"

    def test_worst_margin_matches_pair_loop(self):
        # Single trials over ten seeds check every trial's team sizes, not
        # only the one that holds the worst margin.
        outcomes = set()
        for n in (2, 3, 12, 40):
            metric = metric_from_tree(random_tree(np.random.default_rng(68), n))
            unit = float(metric.matrix.max())
            for max_team in (1, 6):
                cap = min(n + 2, max_team)
                for p in (0.7, 2.5):  # 2.5 fails on these trees of 3 or more vertices
                    dp = power_matrix(metric.matrix / unit, p)
                    scale = unit**p
                    for trials, seed in [(200, 3)] + [(1, s) for s in range(10)]:
                        worst = _pair_loop_worst_margin(dp, trials, seed, cap)
                        ok, got = generalized_roundness_check(
                            metric, p, trials=trials, seed=seed, max_team=max_team
                        )
                        case = (n, max_team, p, trials, seed)
                        assert got == pytest.approx(
                            worst * scale, rel=1e-12, abs=1e-12 * cap * cap * scale
                        ), case
                        assert ok == (worst >= -1e-9), case
                        outcomes.add(ok)
        assert outcomes == {True, False}

    def test_seed_gives_reproducible_margins(self):
        first = generalized_roundness_check(path3_metric(), 2.5, trials=300, seed=9)
        second = generalized_roundness_check(path3_metric(), 2.5, trials=300, seed=9)
        assert first == second


class TestMaxNegativeType:
    def test_unit_path_boundary_exponent(self):
        est = max_negative_type(path3_metric())
        assert abs(est.p_star - 2.0) <= 1e-5
        assert est.bracket_width <= 1e-6

    def test_star4(self):
        est = max_negative_type(metric_from_tree(build_star(4)))
        assert abs(est.p_star - 1.4150374992788437) <= 1e-4

    def test_two_point_space_has_no_ceiling(self):
        with pytest.raises(CapReached):
            max_negative_type(two_point_metric())

    def test_predicate_is_monotone_along_the_grid(self):
        rng = np.random.default_rng(62)
        for _ in range(6):
            tree = random_tree(rng, int(rng.integers(3, 8)))
            metric = metric_from_tree(tree)
            p_star = max_negative_type(metric).p_star
            seen_failure = False
            for p in np.linspace(0.0, 2.0 * p_star, 50):
                holds = has_p_negative_type(metric, float(p)).status != "fails"
                if not holds:
                    seen_failure = True
                else:
                    assert not seen_failure, f"held again at p={p} after failing"

    def test_star_exponents_match_closed_form(self):
        for n in range(2, 51):
            est = max_negative_type(metric_from_tree(build_star(n)))
            assert abs(est.p_star - star_max_p(n)) <= 1e-6, n

    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(trees(min_size=2, max_size=40).map(metric_from_tree), small_integer_sets))
    def test_bracket_ends_hold_and_fail(self, case):
        try:
            est = max_negative_type(case)
        except CapReached:
            assert has_p_negative_type(case, 64.0).status != "fails"
            return
        half = est.bracket_width / 2.0
        assert est.bracket_width <= 1e-6
        assert has_p_negative_type(case, est.p_star - half).status != "fails"
        assert has_p_negative_type(case, est.p_star + half).status == "fails"

    def test_star_search_makes_few_solves(self, linalg_calls):
        max_negative_type(metric_from_tree(build_star(10)))
        assert linalg_calls["eigh"] + linalg_calls["eigvalsh"] <= 15

    @pytest.mark.parametrize("metric", [path3_metric(), euclidean_metric(PLANAR6)],
                             ids=["path", "planar"])
    def test_a_non_strict_two_is_probed_before_doubling(self, linalg_calls, metric):
        # Eigenvalues at 2 (non-strict) and 2 + P_STAR_TOL/2 (fails), then the
        # closing verdict, whose certificate is the one linear solve; p = 4
        # is never tried.  p* and the width are what doubling first gave.
        est = max_negative_type(metric)
        assert (est.p_star, est.bracket_width) == (2.0000002500000003, 5.00000000069889e-07)
        assert (linalg_calls["eigh"], linalg_calls["eigvalsh"], linalg_calls["solve"]) == (0, 3, 1)

    @pytest.mark.parametrize("root", [3.0, 100.0])
    def test_doubling_goes_on_when_the_probe_holds(self, monkeypatch, root):
        # A non-strict excess up to `root`, then 1e6: each end that holds
        # gets its probe, and holding at 64 still ends the search.
        exponents = []
        power = negtype.power_matrix

        def recorded(d, p):
            exponents.append(p)
            return power(d, p)

        monkeypatch.setattr(negtype, "power_matrix", recorded)
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: np.array([-1e-12 if exponents[-1] <= root else 1e6])
        )
        if root > negtype.BISECTION_CAP:
            with pytest.raises(CapReached):
                max_negative_type(path3_metric())
            grid = [2.0, 4.0, 8.0, 16.0, 32.0]
            assert exponents == [q for g in grid for q in (g, g + 5e-7)] + [64.0]
        else:
            est = max_negative_type(path3_metric())
            assert exponents[:3] == [2.0, 2.0000005, 4.0]
            assert est.p_star - est.bracket_width / 2.0 <= root < est.p_star + est.bracket_width / 2.0

    def test_stalled_false_position_falls_back_to_bisection(self, monkeypatch):
        # An excess that jumps from just below the band to 1e6 at `root`:
        # false position alone creeps toward it from below.
        root = 1.2345
        exponents = []
        power = negtype.power_matrix

        def recorded(d, p):
            exponents.append(p)
            return power(d, p)

        monkeypatch.setattr(negtype, "power_matrix", recorded)
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: np.array([-1e-12 if exponents[-1] <= root else 1e6])
        )
        est = max_negative_type(path3_metric())
        assert est.p_star - est.bracket_width / 2.0 <= root < est.p_star + est.bracket_width / 2.0
        # the step at 2, at most twice the 21 halvings of [0, 2], the final verdict
        assert len(exponents) <= 1 + 2 * 21 + 1


class TestZetaInterval:
    def test_unit_path_value(self):
        zeta = zeta_lower_bound(path3_metric(), 0.5)
        assert zeta == pytest.approx(math.log(1.0625) / math.log(2.0), rel=1e-12)

    def test_scale_invariance(self):
        t = build_tree(["a", "m", "b"], [("a", "m", 10.0), ("m", "b", 10.0)])
        scaled = metric_from_tree(t)
        zeta = zeta_lower_bound(scaled, 5.0)  # gamma scales along
        assert zeta == pytest.approx(math.log(1.0625) / math.log(2.0), rel=1e-12)

    def test_strictness_holds_inside_the_interval(self):
        rng = np.random.default_rng(63)
        for _ in range(5):
            tree = random_tree(rng, int(rng.integers(3, 8)))
            metric = metric_from_tree(tree)
            zeta = zeta_lower_bound(metric, gamma_T(tree).gamma)
            assert zeta > 0
            for p in (1.0 - 0.99 * zeta, 1.0 + 0.99 * zeta):
                assert has_p_negative_type(metric, p).status == "strict"

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(TooFewPoints):
            zeta_lower_bound(FiniteMetric(["a", "b"], [[0.0, 1.0], [1.0, 0.0]]), 1.0)
        with pytest.raises(InvalidExponent):
            zeta_lower_bound(path3_metric(), 0.0)
        ones = np.ones((3, 3)) - np.eye(3)
        with pytest.raises(DegenerateMetric):
            zeta_lower_bound(FiniteMetric(list("xyz"), ones), 0.5)


class TestClosedFormExponents:
    def test_star_max_p_values(self):
        assert star_max_p(2) == 2.0
        assert star_max_p(3) == pytest.approx(1.584962500721156, rel=1e-12)
        assert star_max_p(4) == pytest.approx(1.4150374992788437, rel=1e-12)

    def test_star_max_p_decreases_toward_one(self):
        values = [star_max_p(n) for n in range(2, 65)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 1.0
        assert values[-1] < 1.025

    def test_star_max_p_needs_two_leaves(self):
        with pytest.raises(TooFewLeaves):
            star_max_p(1)

    def test_tree_bound_values(self):
        assert tree_maxp_lower_bound(3) == pytest.approx(1.1699250014423124, rel=1e-12)
        assert abs(tree_maxp_lower_bound(4) - 1.0167) <= 1e-4

    def test_tree_bound_needs_three_vertices(self):
        with pytest.raises(TooFewPoints):
            tree_maxp_lower_bound(2)

    def test_tree_bound_below_measured_exponent(self):
        rng = np.random.default_rng(64)
        for n in (3, 4, 5):
            bound = tree_maxp_lower_bound(n)
            for _ in range(3):
                tree = random_tree(rng, n, unit=True)
                measured = max_negative_type(metric_from_tree(tree)).p_star
                assert bound <= measured + 1e-4


class TestGenerators:
    def test_star2_is_a_path(self):
        t = build_star(2)
        assert len(t.vertices) == 3
        assert set(t.leaves()) == {"l1", "l2"}
        assert t.distance("l1", "l2") == 2.0

    def test_star_gamma_is_reciprocal_n(self):
        for n in range(2, 9):
            assert gamma_T(build_star(n)).gamma == pytest.approx(1.0 / n, rel=1e-15)

    def test_star3_distance_set(self):
        metric = metric_from_tree(build_star(3))
        off = metric.matrix[~np.eye(4, dtype=bool)]
        assert set(off.tolist()) == {1.0, 2.0}

    def test_star_needs_two_leaves(self):
        with pytest.raises(TooFewLeaves):
            build_star(1)

    def test_necklace_shapes(self):
        two = build_necklace(2)
        assert (len(two.vertices), len(two.edges)) == (3, 2)
        three = build_necklace(3)
        assert (len(three.vertices), len(three.edges)) == (7, 6)

    def test_necklace_gamma_is_reciprocal_edge_count(self):
        for n in range(2, 7):
            nk = build_necklace(n)
            assert gamma_T(nk).gamma == 1.0 / len(nk.edges)

    def test_necklace_needs_two_stars(self):
        with pytest.raises(TooSmall):
            build_necklace(1)


class TestEnhancedInequality:
    def test_generic_witness_margin_is_zero(self):
        margin = verify_enhanced_inequality(
            unit_path3(), ("a", "m", "b"), (0.5, -1.0, 0.5)
        )
        assert abs(margin) <= 1e-12

    def test_pair_margins(self):
        # for a +1/-1 pair the margin works out to 2 d(x,y) - 1
        margin = verify_enhanced_inequality(unit_path3(), ("a", "m"), (1.0, -1.0))
        assert margin == pytest.approx(1.0, rel=1e-12)
        margin = verify_enhanced_inequality(unit_path3(), ("a", "b"), (1.0, -1.0))
        assert margin == pytest.approx(3.0, rel=1e-12)

    def test_unbalanced_eta_margin_six(self):
        margin = verify_enhanced_inequality(
            unit_path3(), ("a", "m", "b"), (1.0, 1.0, -2.0)
        )
        assert margin == pytest.approx(6.0, rel=1e-12)

    def test_margins_nonnegative_at_random(self):
        rng = np.random.default_rng(65)
        for _ in range(60):
            tree = random_tree(rng, int(rng.integers(2, 9)))
            vs = list(tree.vertices)
            k = int(rng.integers(2, len(vs) + 1))
            points = [vs[i] for i in rng.choice(len(vs), size=k, replace=False)]
            raw = rng.uniform(0.2, 2.0, size=k)
            cut = int(rng.integers(1, k))
            eta = np.where(np.arange(k) < cut, raw, -raw)
            eta[:cut] *= -eta[cut:].sum() / eta[:cut].sum()
            margin = verify_enhanced_inequality(tree, points, eta)
            scale = tree.total_weight()
            assert margin >= -1e-10 * max(scale, 1.0)

    def test_witness_detection(self):
        t = unit_path3()
        assert is_equality_witness(t, ("a", "m", "b"), (0.5, -1.0, 0.5))
        # global sign flip is the same witness
        assert is_equality_witness(t, ("a", "m", "b"), (-0.5, 1.0, -0.5))
        # rescaling changes alpha, not the witness
        assert is_equality_witness(t, ("a", "m", "b"), (2.0, -4.0, 2.0))
        assert not is_equality_witness(t, ("a", "b"), (1.0, -1.0))
        assert not is_equality_witness(t, ("a", "m", "b"), (0.4, -1.0, 0.6))

    def test_witness_must_weigh_every_vertex(self):
        # b's witness weight is about 1e-12, below rtol, so dropping b
        # changes no other weight by more than rtol; it is still not the witness.
        t = build_tree(["a", "m", "b"], [("a", "m", 1.0), ("m", "b", 1e12)])
        simplex, load = equality_witness(t)
        points = simplex.a_team + simplex.b_team
        eta = np.concatenate([load.m, -load.n])
        assert set(simplex.a_team) == {"a", "b"}
        assert is_equality_witness(t, points, eta)
        assert not is_equality_witness(t, ("a", "m"), (1.0, -1.0))

    def test_missing_vertex_is_decided_without_the_closed_form(self, monkeypatch):
        def closed_form(tree):
            raise AssertionError("gamma_T ran for a weighting that misses a vertex")

        monkeypatch.setattr(negtype, "gamma_T", closed_form)
        t = unit_path3()
        assert not is_equality_witness(t, ("a", "b"), (1.0, -1.0))
        assert not is_equality_witness(t, ("a", "m", "b"), (1.0, 0.0, -1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_weights_are_rejected(self):
        t = unit_path3()
        for eta in ((math.inf, -math.inf), (1.0, math.nan), (1e308, -1e308)):
            with pytest.raises(NonPositiveLoad):
                verify_enhanced_inequality(t, ("a", "b"), eta)


def simplex_witness_rule(tree, points, eta, rtol=1e-9):
    """The witness rule through ``eta_to_simplex`` and its minimal subtree.

    It is what :func:`is_equality_witness` computed before it compared
    vertex by vertex, kept here as the reference.
    """
    try:
        simplex, load, _alpha = eta_to_simplex(tree, points, eta)
    except (ZeroVector, NonZeroSum, DuplicateVertex):
        return False
    target, target_load = equality_witness(tree)
    target_weight = dict(zip(target.a_team, target_load.m))
    target_weight.update(zip(target.b_team, target_load.n))
    arrangements = [
        (simplex.a_team, load.m, simplex.b_team, load.n),
        (simplex.b_team, load.n, simplex.a_team, load.m),
    ]
    for a_team, m, b_team, n in arrangements:
        if set(a_team) != set(target.a_team) or set(b_team) != set(target.b_team):
            continue
        pairs = zip(a_team + b_team, list(m) + list(n))
        if all(abs(float(w) - target_weight[v]) <= rtol * max(target_weight[v], 1.0)
               for v, w in pairs):
            return True
    return False


@st.composite
def signed_weightings(draw):
    """A tree, some of its vertices, and mean-zero weights on them.

    The sum is then moved off zero by up to 1e-13 of the absolute sum.
    """
    tree = draw(trees(min_size=2, max_size=30))
    order = draw(st.permutations(tree.vertices))
    k = draw(st.integers(2, len(order)))
    cut = draw(st.integers(1, k - 1))
    eta = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k)))
    eta[cut:] *= -1.0
    eta[:cut] *= -eta[cut:].sum() / eta[:cut].sum()
    eta[0] += draw(st.floats(-1e-13, 1e-13)) * float(np.abs(eta).sum())
    return tree, order[:k], eta


WITNESS_CASES = ["witness", "negated", "multiple", "perturbed", "dropped", "zeroed"]


@st.composite
def witness_variants(draw):
    """The generic witness in a random point order, as is or changed one way."""
    tree = draw(trees(min_size=2, max_size=30))
    weight = dict(zip(tree.preorder, gamma_T(tree).signed))
    points = list(draw(st.permutations(tree.vertices)))
    eta = np.array([weight[v] for v in points])
    case = draw(st.sampled_from(WITNESS_CASES))
    i = draw(st.integers(0, len(points) - 1))
    if case == "negated":
        eta = -eta
    elif case == "multiple":
        eta = eta * draw(st.floats(1e-3, 1e3))
    elif case == "perturbed":
        # Moved beyond rtol = 1e-9 against another vertex of its team, so
        # the sum stays zero; a pair from opposite teams, the only choice
        # on a single edge, may just rescale the witness.
        partners = [j for j in range(len(points)) if j != i and eta[j] * eta[i] > 0.0]
        if not partners:
            case = "perturbed across teams"
            partners = [(i + 1) % len(points)]
        shift = draw(st.floats(1e-8, 1e-3))
        eta[i] += shift
        eta[draw(st.sampled_from(partners))] -= shift
    elif case == "dropped":
        del points[i]
        eta = np.delete(eta, i)
    elif case == "zeroed":
        eta[i] = 0.0
    return case, tree, points, eta


class TestVerifyProperties:
    @settings(max_examples=80, deadline=None)
    @given(signed_weightings())
    def test_margin_equals_the_distance_form(self, case):
        tree, points, eta = case
        metric = metric_from_tree(tree, points)
        idx = [metric.index(v) for v in points]
        total = float(np.abs(eta).sum())
        quad = float(eta @ metric.matrix[np.ix_(idx, idx)] @ eta)
        expected = -(0.5 * gamma_T(tree).gamma * total * total + quad)
        scale = total * total * tree.total_weight()
        assert abs(verify_enhanced_inequality(tree, points, eta) - expected) <= 1e-12 * scale

    @settings(max_examples=80, deadline=None)
    @given(signed_weightings())
    def test_random_weightings_agree_with_the_simplex_rule(self, case):
        tree, points, eta = case
        assert is_equality_witness(tree, points, eta) == simplex_witness_rule(tree, points, eta)

    @settings(max_examples=120, deadline=None)
    @given(witness_variants())
    def test_witness_variants_agree_with_the_simplex_rule(self, variant):
        case, tree, points, eta = variant
        found = is_equality_witness(tree, points, eta)
        assert found == simplex_witness_rule(tree, points, eta)
        if case in ("witness", "negated", "multiple"):
            assert found
        elif case == "perturbed":
            assert not found
