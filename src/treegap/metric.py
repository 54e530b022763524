"""Finite metric spaces as validated distance matrices."""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidExponent, InvalidMetric, UnknownVertex, check_finite
from .tree import MetricTree, VertexId, label_key

__all__ = ["FiniteMetric", "metric_from_tree", "power_matrix"]

_SLACK = 1e-12
# Rows per tile of the triangle check.
_TILE = 64
# The triangle check's int32 screen scales distances below 2**_SCREEN_BITS,
# so a sum of two still fits.  It takes _SCREEN_STEP values of j per pass:
# its adds are cheap enough that fewer numpy calls pay, which float64
# sweeps do not gain from.
_SCREEN_BITS = 30
_SCREEN_STEP = 8


class FiniteMetric:
    """A finite metric space: labels plus a symmetric distance matrix.

    Construction checks symmetry, a zero diagonal, positive off-diagonal
    entries, and the triangle inequality, each with relative slack 1e-12.
    The stored matrix is (d + d^T) / 2, taken as d/2 + d^T/2 so that it is
    bitwise symmetric and cannot overflow.

    The triangle check is exact: it accepts, rejects and names the point
    through which a triangle fails just as a float64 sweep over every
    triple would.  It costs O(n^3): an int32 screen over every triple, at
    about half the cost of a float64 sweep, clears the pairs that provably
    pass, and only the rest are swept in float64.  The slowest inputs are
    float-rounded geodesic matrices, such as a tree's distances written
    out to JSON: every triple is nearly tight, almost no pair is cleared,
    and the check costs about 1.2 times a plain float64 sweep.  Integer
    and generic Euclidean matrices are cleared almost entirely.  Tree
    metrics (:func:`metric_from_tree`) skip the check: geodesic distances
    satisfy it by construction.
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
    np.fill_diagonal(d, np.inf)
    if d.min() <= 0.0:
        raise InvalidMetric("off-diagonal distances must be positive")
    np.fill_diagonal(d, 0.0)
    return d, slack


def _check_triangles(labels: Tuple[VertexId, ...], d: np.ndarray, slack: float) -> None:
    """d(i,k) <= d(i,j) + d(j,k) for all i, j, k, with slack.

    ``d`` must be bitwise symmetric, as :func:`_checked_matrix` returns it,
    so d(i,j) is read from row j.  d(i,j) + d(j,k) is symmetric in (i, k),
    so only k >= i is checked, one tile of rows at a time.  Only the pairs
    that :func:`_unscreened_pairs` leaves open are swept in float64: one at
    a time when they are few, else as the smallest block of the tile that
    holds them.  A sum that overflows to inf exceeds every finite distance,
    so it passes.  A violation names the same point as a float64 sweep of
    the whole tile would: the tile's most negative margin, first in
    row-major order, then the first j that attains its least sum.
    """
    with np.errstate(over="ignore"):
        for top, open_ in _unscreened_pairs(d):
            i, k = np.nonzero(open_)
            rows = slice(top + i[0], top + i[-1] + 1)
            cols = slice(top + k.min(), top + k.max() + 1)
            width = cols.stop - cols.start
            # Gathering a pair's two rows costs about three pairs of a block sweep.
            if 3 * len(i) < (rows.stop - rows.start) * width:
                i, k = top + i, top + k
                chunks = [slice(s, s + _TILE) for s in range(0, len(i), _TILE)]
                reach = [np.min(d[i[c]] + d[k[c]], axis=1) for c in chunks]
                margin = np.concatenate(reach) - d[i, k]
                worst = int(np.argmin(margin))
                i, k = i[worst], k[worst]
            else:
                margin = (_min_plus(d[:, rows], d[:, cols]) - d[rows, cols]).ravel()
                worst = int(np.argmin(margin))
                i, k = rows.start + worst // width, cols.start + worst % width
            if margin[worst] < -slack:
                j = int(np.argmin(d[i] + d[k]))
                raise InvalidMetric(f"triangle inequality fails through point {labels[j]!r}")


def _unscreened_pairs(d: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Per tile of rows from ``top``, a mask of the pairs (i, k >= top) left open.

    An exact int32 screen clears pairs.  ``d`` is scaled by a power of two
    so that its largest entry is below 2**30, which is exact, and floored
    into ``lo``, whose diagonal is set to 2**30 - 1 so that j = i and
    j = k never clear a pair.  If the least lo(i,j) + lo(j,k) is at least
    ceil(d(i,k)), and at least 1 in case the scaling rounded a tiny d(i,k)
    to 0, then d(i,j) + d(j,k) >= d(i,k) holds exactly for every j, and so
    also in float64.  Once a tile leaves more than half of its pairs open,
    as nearly tight metrics such as float-rounded tree metrics do, every
    later tile is left open unscreened.  Tiles with nothing open are
    skipped.
    """
    n = len(d)
    shift = _SCREEN_BITS - int(np.frexp(d.max())[1])
    lo = np.ldexp(d, shift).astype(np.int32)  # truncation floors: d >= 0
    np.fill_diagonal(lo, 2**_SCREEN_BITS - 1)
    dense = False
    for top in range(0, n, _TILE):
        bottom = min(top + _TILE, n)
        if dense:
            yield top, np.ones((bottom - top, n - top), dtype=bool)
            continue
        reach = _min_plus(lo[:, top:bottom], lo[:, top:], _SCREEN_STEP)
        open_ = reach < np.maximum(np.ceil(np.ldexp(d[top:bottom, top:], shift)), 1.0)
        dense = 2 * np.count_nonzero(open_) > open_.size
        if open_.any():
            yield top, open_


def _min_plus(a: np.ndarray, b: np.ndarray, step: int = 1) -> np.ndarray:
    """The least a[j, i] + b[j, k] over j, for every (i, k); ``step`` j per pass."""
    shortest = a[0][:, None] + b[0]
    via = np.empty((step,) + shortest.shape, a.dtype)
    for j in range(1, len(a), step):
        part = np.add(a[j : j + step, :, None], b[j : j + step, None, :], out=via[: len(a) - j])
        np.minimum(shortest, part.min(axis=0) if step > 1 else part[0], out=shortest)
    return shortest


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
    # A row is the parent's row plus w, the weight above it, minus 2w on its
    # subtree.  An entry that overflows stays inf or nan in every row below.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, len(tree)):
            rows[i] = rows[parent[i]] + weight[i]
            rows[i, lo[i] : hi[i]] -= 2.0 * weight[i]
    d = rows[positions][:, np.searchsorted(cols, positions)]
    if not np.all(np.isfinite(d)):
        raise InvalidMetric(
            "tree distances overflow the double range: the diameter plus twice the "
            f"largest edge weight ({max(weight)!r}) exceeds {sys.float_info.max:.2g}"
        )
    return FiniteMetric._without_triangle_check(labels, d)


def power_matrix(d: np.ndarray, p: float) -> np.ndarray:
    """Entrywise d**p of a nonnegative matrix, with 0**p = 0 also at p = 0."""
    p = check_finite(p, "exponent p", InvalidExponent)
    d = np.asarray(d, dtype=float)
    return d**p if p > 0.0 else (d > 0.0).astype(float)
