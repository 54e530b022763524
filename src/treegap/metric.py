"""Finite metric spaces as validated distance matrices."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidExponent, InvalidMetric, UnknownVertex, check_finite
from .tree import MetricTree, VertexId, label_key

__all__ = ["FiniteMetric", "metric_from_tree", "power_matrix"]

_SLACK = 1e-12
# Rows per tile of the triangle check (two tile buffers, no n x n temporaries).
_TILE = 64


class FiniteMetric:
    """A finite metric space: labels plus a symmetric distance matrix.

    Construction checks symmetry, a zero diagonal, positive off-diagonal
    entries, and the triangle inequality, each with relative slack 1e-12.
    The stored matrix is (d + d^T) / 2, taken as d/2 + d^T/2 so that it is
    bitwise symmetric and cannot overflow; the O(n^3) triangle check reads
    only its rows, in contiguous tiles.  Tree metrics
    (:func:`metric_from_tree`) skip that check: geodesic distances satisfy
    it by construction.
    """

    def __init__(self, labels: Sequence[VertexId], matrix):
        try:
            labels = tuple(labels)
            distinct = len(set(labels)) == len(labels)
            d = np.array(matrix, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidMetric(f"labels or distances are malformed: {exc}") from exc
        if not distinct:
            raise InvalidMetric("labels are not pairwise distinct")
        d, slack = _checked_matrix(labels, d)
        _check_triangles(labels, d, slack)
        self._store(labels, d)

    @classmethod
    def _without_triangle_check(cls, labels: Tuple[VertexId, ...], d: np.ndarray) -> "FiniteMetric":
        """A metric whose triangle inequality holds by construction (a tree's)."""
        metric = cls.__new__(cls)
        metric._store(labels, _checked_matrix(labels, d)[0])
        return metric

    def _store(self, labels: Tuple[VertexId, ...], d: np.ndarray) -> None:
        d.setflags(write=False)
        self.labels = labels
        self._d = d
        self._index: Dict[VertexId, int] = {v: i for i, v in enumerate(labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, v: VertexId) -> bool:
        return v in self._index

    def check_vertex(self, v: VertexId) -> None:
        if v not in self._index:
            raise UnknownVertex(f"point {v!r} is not in the metric space")

    def index(self, v: VertexId) -> int:
        self.check_vertex(v)
        return self._index[v]

    @property
    def matrix(self) -> np.ndarray:
        return self._d

    def distance(self, u: VertexId, v: VertexId) -> float:
        return float(self._d[self.index(u), self.index(v)])

    def __repr__(self) -> str:
        return f"FiniteMetric({len(self.labels)} points)"


def _checked_matrix(labels: Tuple[VertexId, ...], d: np.ndarray) -> Tuple[np.ndarray, float]:
    """Everything but the triangle inequality; the symmetrized matrix and slack."""
    if len(labels) == 0:
        raise InvalidMetric("a metric space needs at least one point")
    n = len(labels)
    if d.shape != (n, n):
        raise InvalidMetric(f"matrix shape {d.shape} does not match {n} labels")
    if not np.all(np.isfinite(d)):
        raise InvalidMetric("distances must be finite")
    scale = float(np.max(np.abs(d))) if n > 1 else 1.0
    slack = _SLACK * max(scale, 1.0)
    if np.max(np.abs(d - d.T)) > slack:
        raise InvalidMetric("matrix is not symmetric")
    d = d / 2.0 + d.T / 2.0
    if np.max(np.abs(np.diag(d))) > slack:
        raise InvalidMetric("diagonal is not zero")
    np.fill_diagonal(d, 0.0)
    off = d[~np.eye(n, dtype=bool)]
    if off.size and np.min(off) <= 0.0:
        raise InvalidMetric("off-diagonal distances must be positive")
    return d, slack


def _check_triangles(labels: Tuple[VertexId, ...], d: np.ndarray, slack: float) -> None:
    """d(i,k) <= d(i,j) + d(j,k) for all i, j, k, with slack.

    ``d`` must be bitwise symmetric, as :func:`_checked_matrix` returns it,
    so d(i,j) is read from row j and every operand is a contiguous slice.
    d(i,j) + d(j,k) is symmetric in (i, k), so only k >= i is checked, one
    tile of rows at a time: the tile's minimum over j of that sum is built
    in place in a contiguous buffer, then compared with d once.  A sum that
    overflows to inf exceeds every finite distance, so it passes.
    """
    n = len(labels)
    via_buffer = np.empty(_TILE * n)
    min_buffer = np.empty(_TILE * n)
    with np.errstate(over="ignore"):
        for top in range(0, n, _TILE):
            bottom = min(top + _TILE, n)
            shape = (bottom - top, n - top)
            via = via_buffer[: shape[0] * shape[1]].reshape(shape)
            shortest = min_buffer[: shape[0] * shape[1]].reshape(shape)
            shortest.fill(np.inf)
            for row in d:
                np.add(row[top:bottom, None], row[top:], out=via)
                np.minimum(shortest, via, out=shortest)
            np.subtract(shortest, d[top:bottom, top:], out=shortest)
            if shortest.min() < -slack:
                i, k = np.unravel_index(np.argmin(shortest), shape)
                j = int(np.argmin(d[top + i] + d[top + k]))
                raise InvalidMetric(f"triangle inequality fails through point {labels[j]!r}")


def metric_from_tree(
    tree: MetricTree, subset: Optional[Iterable[VertexId]] = None
) -> FiniteMetric:
    """Restrict a tree's geodesic metric to a vertex subset (default: all)."""
    if subset is None:
        labels = tree.vertices
    else:
        labels = tuple(sorted(set(subset), key=label_key))
        for v in labels:
            tree.check_vertex(v)
    positions = np.array([tree.position[v] for v in labels])
    cols = np.sort(positions)
    parent, weight = tree.parent_position, tree.up_weight
    lo = np.searchsorted(cols, np.arange(len(tree)))
    hi = np.searchsorted(cols, tree.subtree_end)
    rows = np.empty((len(tree), len(cols)))
    rows[0] = tree.path_sums(weight)[cols]
    # A row is the parent's row plus w, the weight above it, minus 2w on its subtree.
    for i in range(1, len(tree)):
        rows[i] = rows[parent[i]] + weight[i]
        rows[i, lo[i] : hi[i]] -= 2.0 * weight[i]
    d = rows[positions][:, np.searchsorted(cols, positions)]
    return FiniteMetric._without_triangle_check(labels, d)


def power_matrix(d: np.ndarray, p: float) -> np.ndarray:
    """Entrywise d**p of a nonnegative matrix, with 0**p = 0 also at p = 0."""
    p = check_finite(p, "exponent p", InvalidExponent)
    d = np.asarray(d, dtype=float)
    return d**p if p > 0.0 else (d > 0.0).astype(float)
