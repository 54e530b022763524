"""Shared generators for the test suite.

Random trees grow by attaching each new vertex to a uniformly chosen
earlier one, which reaches paths, stars and everything in between.  All
randomness flows through explicit numpy generators so failures replay.
"""

from typing import Optional, Tuple

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
