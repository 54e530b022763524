"""Shared generators for the test suite.

Random trees grow by attaching each new vertex to a uniformly chosen
earlier one, which reaches paths, stars and everything in between.  All
randomness flows through explicit numpy generators so failures replay.
"""

from collections import Counter
from fractions import Fraction
from typing import Iterable, Optional, Tuple

import numpy as np
from hypothesis import strategies as st

from treegap import (
    FiniteMetric,
    MetricTree,
    NormalizedLoadVector,
    Simplex,
    build_tree,
    make_simplex,
)


def random_tree(
    rng: np.random.Generator,
    n: int,
    weight_range: Tuple[float, float] = (0.1, 10.0),
    unit: bool = False,
) -> MetricTree:
    """Random tree on vertices v0..v{n-1} with the default root."""
    lo, hi = weight_range
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        w = 1.0 if unit else float(rng.uniform(lo, hi))
        edges.append((f"v{j}", f"v{i}", w))
    return build_tree([f"v{i}" for i in range(n)], edges)


@st.composite
def tree_edges(draw, min_size=1, max_size=60):
    """Vertices and weighted edges of a path, a star or a random attachment tree."""
    n = draw(st.integers(min_size, max_size))
    shape = draw(st.sampled_from(["path", "star", "random"]))
    edges = []
    for i in range(1, n):
        j = {"path": i - 1, "star": 0}.get(shape)
        if j is None:
            j = draw(st.integers(0, i - 1))
        edges.append((f"v{j}", f"v{i}", draw(st.floats(0.1, 10.0))))
    return [f"v{i}" for i in range(n)], edges


def trees(min_size=1, max_size=60):
    """Hypothesis trees built from :func:`tree_edges`."""
    return tree_edges(min_size, max_size).map(lambda graph: build_tree(*graph))


@st.composite
def log_weight_trees(draw, max_size=18, span=2.0):
    """Random attachment trees of 2 to max_size vertices, log-uniform weights in 1e+-span."""
    n = draw(st.integers(2, max_size))
    edges = [
        (f"v{draw(st.integers(0, i - 1))}", f"v{i}", 10.0 ** draw(st.floats(-span, span)))
        for i in range(1, n)
    ]
    return build_tree([f"v{i}" for i in range(n)], edges)


def euclidean_metric(points) -> FiniteMetric:
    x = np.array(points, dtype=float)
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    return FiniteMetric([f"x{i}" for i in range(len(x))], d)


def integer_point_sets(max_size=10):
    """Hypothesis metrics: distinct integer points of [-5, 5]^3, Euclidean."""
    return st.lists(
        st.tuples(*[st.integers(-5, 5)] * 3), min_size=2, max_size=max_size, unique=True
    ).map(euclidean_metric)


def random_normalized_load(
    rng: np.random.Generator, q: int, t: int
) -> NormalizedLoadVector:
    # entries bounded away from 0 so loads stay strictly positive
    m = rng.uniform(0.1, 1.0, size=q)
    n = rng.uniform(0.1, 1.0, size=t)
    return NormalizedLoadVector(m / m.sum(), n / n.sum())


def random_simplex(
    rng: np.random.Generator,
    tree: MetricTree,
    q: Optional[int] = None,
    t: Optional[int] = None,
) -> Simplex:
    """Random team split over a random subset of the tree's vertices."""
    vertices = list(tree.vertices)
    if q is None or t is None:
        size = int(rng.integers(2, len(vertices) + 1))
        q = int(rng.integers(1, size))
        t = size - q
    if q + t > len(vertices):
        raise ValueError(f"cannot place {q + t} points on {len(vertices)} vertices")
    picked = [vertices[i] for i in rng.choice(len(vertices), size=q + t, replace=False)]
    return make_simplex(tree, picked[:q], picked[q:])


def same_metric(first: MetricTree, second: MetricTree, tol: float = 0.0) -> bool:
    """Same vertex set and pairwise distances (up to tol)."""
    if set(first.vertices) != set(second.vertices):
        return False
    vs = first.vertices
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if abs(first.distance(u, v) - second.distance(u, v)) > tol:
                return False
    return True


def exact_reciprocal_sum(weights: Iterable[float]) -> Fraction:
    """Sum of 1/w in exact rationals: every double is a dyadic rational.

    Equal weights are summed once, times their count, which keeps long
    paths of few distinct weights cheap.
    """
    return sum((k / Fraction(w) for w, k in Counter(weights).items()), Fraction(0))


def relative_error(x: float, exact: Fraction) -> float:
    """|x - exact| / |exact|, computed exactly and rounded once."""
    return float(abs(Fraction(x) - exact) / abs(exact))


UNIT_ROUNDOFF = Fraction(1, 2**53)


def exact_witness_gap(tree: MetricTree, signed: Iterable[float]) -> Fraction:
    """sum_e w_e * x_e^2 in exact rationals, x_e the exact sum of ``signed``
    (one value per preorder position) below edge e."""
    below = [Fraction(x) for x in signed]
    for i in range(len(below) - 1, 0, -1):
        below[tree.parent_position[i]] += below[i]
    return sum((Fraction(w) * x * x for w, x in zip(tree.up_weight[1:], below[1:])), Fraction(0))


def witness_gap_bound(tree: MetricTree, signed: Iterable[float]) -> Fraction:
    """How far a float64 evaluation of :func:`exact_witness_gap` can land from it.

    The evaluation sums each x_e over the k_e values below edge e in any
    order, squares it, multiplies by w_e and sums the n terms in any order,
    a dot product included.  With u the unit roundoff and
    g(k) = k u / (1 - k u), each computed x_e is off by at most
    d_e = g(k_e - 1) m_e, m_e the absolute sum of those values (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3-4), so the
    result is off by at most

        g(n + 2) * sum_e w_e (|x_e| + d_e)^2  +  sum_e w_e d_e (2 |x_e| + d_e).
    """
    signed = list(signed)
    n = len(signed)
    below = [Fraction(x) for x in signed]
    mass = [abs(x) for x in below]
    size = [1] * n
    for i in range(n - 1, 0, -1):
        up = tree.parent_position[i]
        below[up] += below[i]
        mass[up] += mass[i]
        size[up] += size[i]

    def g(k: int) -> Fraction:
        return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)

    products, spread = Fraction(0), Fraction(0)
    for i in range(1, n):
        w, x, d = Fraction(tree.up_weight[i]), abs(below[i]), g(size[i] - 1) * mass[i]
        products += w * (x + d) ** 2
        spread += w * d * (2 * x + d)
    return g(n + 2) * products + spread
