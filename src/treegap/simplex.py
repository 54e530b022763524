"""Two-team weighted simplexes and their gap functionals.

A simplex splits finitely many distinct points of a host (a metric tree or a
plain finite metric) into an a-team and a b-team.  Positive weights on the
teams form a load vector; a normalized load gives each team total weight one.
The gap of a loaded simplex is the cross-team weighted distance sum minus the
two within-team sums.  On tree hosts the same quantity decomposes over the
edges of the minimal subtree spanned by the points, which is what most of
this module exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DuplicateVertex,
    EdgeNotInMinimalSubtree,
    EmptyTeam,
    NonPositiveLoad,
    NotATreeHost,
    NotNormalized,
    NonZeroSum,
    ZeroVector,
    check_finite,
)
from .metric import FiniteMetric, power_matrix
from .tree import MetricTree, OrientedEdge, VertexId, minimal_subtree

__all__ = [
    "Host",
    "Simplex",
    "LoadVector",
    "NormalizedLoadVector",
    "PartitionSums",
    "make_simplex",
    "partition_sums",
    "gap_direct",
    "gap_by_edges",
    "edge_contribution",
    "extended_gap",
    "eta_to_simplex",
    "simplex_to_eta",
]

Host = Union[MetricTree, FiniteMetric]

NORMALIZATION_TOL = 1e-12


class LoadVector:
    """Strictly positive team weights ``(m, n)``."""

    def __init__(self, m: Sequence[float], n: Sequence[float]):
        m_arr = np.array(m, dtype=float).reshape(-1)
        n_arr = np.array(n, dtype=float).reshape(-1)
        if m_arr.size == 0 or n_arr.size == 0:
            raise EmptyTeam("both teams need at least one weight")
        for arr, name in ((m_arr, "m"), (n_arr, "n")):
            if not np.all(np.isfinite(arr)):
                raise NonPositiveLoad(f"{name} contains non-finite entries")
            if np.min(arr) <= 0.0:
                raise NonPositiveLoad(f"{name} contains a non-positive entry")
        m_arr.setflags(write=False)
        n_arr.setflags(write=False)
        self.m = m_arr
        self.n = n_arr

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m.tolist()}, n={self.n.tolist()})"


def _require_normalized(load: LoadVector) -> None:
    """:class:`NotNormalized` unless each team sums to one (tolerance 1e-12)."""
    for arr, name in ((load.m, "m"), (load.n, "n")):
        if abs(float(arr.sum()) - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(f"team {name} sums to {float(arr.sum())!r}, expected 1")


class NormalizedLoadVector(LoadVector):
    """A load vector whose teams each sum to one (tolerance 1e-12, absolute)."""

    def __init__(self, m: Sequence[float], n: Sequence[float]):
        super().__init__(m, n)
        _require_normalized(self)


@dataclass(frozen=True)
class PartitionSums:
    """Team weight on each side of an edge, plus endpoint-free variants."""

    alpha_l: float
    alpha_r: float
    beta_l: float
    beta_r: float
    alpha_l_strict: float
    alpha_r_strict: float
    beta_l_strict: float
    beta_r_strict: float


class Simplex:
    """An (a-team, b-team) split of distinct host points.

    Treat instances as immutable.  For tree hosts the minimal subtree
    spanned by the points is computed once, together with the preorder
    position of every team point in it; every edge functional is then a
    subtree sum over those positions.
    """

    def __init__(self, host: Host, a_team: Sequence[VertexId], b_team: Sequence[VertexId]):
        a_team = tuple(a_team)
        b_team = tuple(b_team)
        if not a_team or not b_team:
            raise EmptyTeam("both teams must be nonempty")
        points = a_team + b_team
        if len(set(points)) != len(points):
            raise DuplicateVertex("team points are not pairwise distinct")
        for v in points:
            host.check_vertex(v)
        self.host = host
        self.a_team = a_team
        self.b_team = b_team
        self.points = points
        self.index_a: Dict[VertexId, int] = {v: i for i, v in enumerate(a_team)}
        self.index_b: Dict[VertexId, int] = {v: i for i, v in enumerate(b_team)}

        if isinstance(host, MetricTree):
            sub = minimal_subtree(host, points)
            self.subtree: Optional[MetricTree] = sub
            self.a_positions = np.array([sub.position[v] for v in a_team])
            self.b_positions = np.array([sub.position[v] for v in b_team])
        else:
            self.subtree = None

    @cached_property
    def point_distances(self) -> np.ndarray:
        """Host distances between the points, computed on first read."""
        k = len(self.points)
        d = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                d[i, j] = d[j, i] = self.host.distance(self.points[i], self.points[j])
        d.setflags(write=False)
        return d

    @property
    def q(self) -> int:
        return len(self.a_team)

    @property
    def t(self) -> int:
        return len(self.b_team)

    def parity(self, v: VertexId) -> Optional[str]:
        if v in self.index_a:
            return "a"
        if v in self.index_b:
            return "b"
        return None

    def require_tree_host(self) -> MetricTree:
        if self.subtree is None:
            raise NotATreeHost("this operation needs a metric-tree host")
        return self.host  # type: ignore[return-value]

    def edge_position(self, edge: OrientedEdge) -> int:
        """Preorder position, in the minimal subtree, of the edge's left endpoint."""
        self.require_tree_host()
        i = self.subtree.edge_position(edge)
        if i:
            return i
        raise EdgeNotInMinimalSubtree(f"{edge!r} is not an edge of the minimal subtree")

    def __repr__(self) -> str:
        return f"Simplex(a={list(self.a_team)!r}, b={list(self.b_team)!r})"


def make_simplex(
    host: Host, a_team: Sequence[VertexId], b_team: Sequence[VertexId]
) -> Simplex:
    """Build a simplex after validating teams against the host."""
    return Simplex(host, a_team, b_team)


def _check_load(simplex: Simplex, load: LoadVector) -> None:
    if load.m.size != simplex.q or load.n.size != simplex.t:
        raise NonPositiveLoad(
            f"load sizes ({load.m.size}, {load.n.size}) do not match teams "
            f"({simplex.q}, {simplex.t})"
        )


def _check_normalized(simplex: Simplex, load: LoadVector) -> None:
    _check_load(simplex, load)
    _require_normalized(load)


def partition_sums(simplex: Simplex, load: LoadVector, edge: OrientedEdge) -> PartitionSums:
    """Weight of each team on the two sides of a minimal-subtree edge."""
    _check_load(simplex, load)
    i = simplex.edge_position(edge)
    alpha_l = float(_below(simplex, load.m, 0.0)[i])
    beta_l = float(_below(simplex, 0.0, load.n)[i])
    alpha_r = float(load.m.sum()) - alpha_l
    beta_r = float(load.n.sum()) - beta_l
    x, y = edge.left, edge.right
    als, bls, ars, brs = alpha_l, beta_l, alpha_r, beta_r
    if x in simplex.index_a:
        als -= float(load.m[simplex.index_a[x]])
    if x in simplex.index_b:
        bls -= float(load.n[simplex.index_b[x]])
    if y in simplex.index_a:
        ars -= float(load.m[simplex.index_a[y]])
    if y in simplex.index_b:
        brs -= float(load.n[simplex.index_b[y]])
    return PartitionSums(
        alpha_l=alpha_l,
        alpha_r=alpha_r,
        beta_l=beta_l,
        beta_r=beta_r,
        alpha_l_strict=als,
        alpha_r_strict=ars,
        beta_l_strict=bls,
        beta_r_strict=brs,
    )


def gap_direct(simplex: Simplex, load: NormalizedLoadVector, p: float = 1.0) -> float:
    """Cross-team minus within-team weighted distance sums, at exponent p.

    Defined for any host.  Requires a normalized load.
    """
    _check_normalized(simplex, load)
    dp = power_matrix(simplex.point_distances, p)
    q = simplex.q
    m, n = load.m, load.n
    cross = float(m @ dp[:q, q:] @ n)
    within_a = 0.5 * float(m @ dp[:q, :q] @ m)
    within_b = 0.5 * float(n @ dp[q:, q:] @ n)
    return cross - within_a - within_b


def _below(simplex: Simplex, m, n) -> np.ndarray:
    """Subtree sums, in the minimal subtree, of ``m`` on the a-team and ``n`` on the b-team."""
    values = np.zeros(len(simplex.subtree))
    values[simplex.a_positions] = m
    values[simplex.b_positions] = n
    return simplex.subtree.subtree_sums(values)


def _edge_diffs(simplex: Simplex, load: LoadVector) -> np.ndarray:
    """alpha_l - beta_l for the edge above each minimal-subtree vertex, in preorder."""
    return _below(simplex, load.m, -load.n)


def gap_by_edges(simplex: Simplex, load: NormalizedLoadVector) -> float:
    """Edge decomposition of the p = 1 gap on a tree host.

    Equals ``sum over edges of (alpha_l - beta_l)^2 * weight`` and agrees
    with :func:`gap_direct` at p = 1 for normalized loads.
    """
    simplex.require_tree_host()
    _check_normalized(simplex, load)
    diffs = _edge_diffs(simplex, load)
    return float(np.dot(simplex.subtree.up_weight, diffs * diffs))


def edge_contribution(
    simplex: Simplex, load: NormalizedLoadVector, edge: OrientedEdge
) -> float:
    """Single-edge term of the p = 1 decomposition."""
    simplex.require_tree_host()
    _check_normalized(simplex, load)
    i = simplex.edge_position(edge)
    return float(_edge_diffs(simplex, load)[i]) ** 2 * simplex.subtree.up_weight[i]


def extended_gap(simplex: Simplex, load: LoadVector) -> float:
    """Symmetrized edge functional defined for every positive load.

    Averages the squared left and right partition differences per edge; on
    normalized loads it coincides with the p = 1 gap.
    """
    simplex.require_tree_host()
    _check_load(simplex, load)
    diff_l = _edge_diffs(simplex, load)
    diff_r = (float(load.m.sum()) - float(load.n.sum())) - diff_l
    return 0.5 * float(np.dot(simplex.subtree.up_weight, diff_l * diff_l + diff_r * diff_r))


def signed_weights(
    points: Sequence[VertexId], eta: Sequence[float], host: Optional[Host] = None
) -> Tuple[Tuple[VertexId, ...], np.ndarray, float]:
    """Validate a signed mean-zero weighting of distinct points.

    Checks, in this order: distinct points, each in ``host`` when one is
    given, one weight per point, a finite and nonzero absolute sum, and a
    sum within 1e-12 of that of zero.  Returns points, weights, absolute sum.
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise DuplicateVertex("points are not pairwise distinct")
    if host is not None:
        for v in points:
            host.check_vertex(v)
    eta_arr = np.array(eta, dtype=float).reshape(-1)
    if eta_arr.size != len(points):
        raise ZeroVector(f"{len(points)} points but {eta_arr.size} signed weights")
    with np.errstate(over="ignore"):
        total_abs = float(np.abs(eta_arr).sum())
    if not np.isfinite(total_abs):
        raise NonPositiveLoad("signed weights and their absolute sum must be finite")
    if total_abs == 0.0:
        raise ZeroVector("the signed weighting is identically zero")
    if abs(float(eta_arr.sum())) > 1e-12 * total_abs:
        raise NonZeroSum(f"signed weights sum to {float(eta_arr.sum())!r}, expected 0")
    return points, eta_arr, total_abs


def eta_to_simplex(
    host: Host, points: Sequence[VertexId], eta: Sequence[float]
) -> Tuple[Simplex, NormalizedLoadVector, float]:
    """Convert a signed mean-zero weighting into a normalized loaded simplex.

    Positive entries become the a-team, negative entries the b-team, exact
    zeros are dropped; the scale ``alpha`` is half the total absolute weight.
    Returns ``(simplex, load, alpha)``.
    """
    points, eta_arr, total_abs = signed_weights(points, eta)
    alpha = total_abs / 2.0
    a_team = [v for v, w in zip(points, eta_arr) if w > 0.0]
    b_team = [v for v, w in zip(points, eta_arr) if w < 0.0]
    m = [w / alpha for w in eta_arr if w > 0.0]
    n = [-w / alpha for w in eta_arr if w < 0.0]
    simplex = make_simplex(host, a_team, b_team)
    return simplex, NormalizedLoadVector(m, n), alpha


def simplex_to_eta(
    simplex: Simplex, load: NormalizedLoadVector, alpha: float
) -> Tuple[Tuple[VertexId, ...], np.ndarray]:
    """Inverse of :func:`eta_to_simplex` at scale ``alpha > 0``."""
    check_finite(alpha, "alpha", NonPositiveLoad, positive=True)
    _check_normalized(simplex, load)
    eta = np.concatenate([alpha * load.m, -alpha * load.n])
    return simplex.points, eta
