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

import math
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ._lazy import np
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
from .tree import MetricTree, OrientedEdge, VertexId, _fsum, minimal_subtree

__all__ = [
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
        _check_teams(m_arr.tolist(), n_arr.tolist())
        m_arr.setflags(write=False)
        n_arr.setflags(write=False)
        self.m = m_arr
        self.n = n_arr

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m.tolist()}, n={self.n.tolist()})"


def _check_teams(m: List[float], n: List[float]) -> None:
    """:class:`EmptyTeam` or :class:`NonPositiveLoad` unless both are nonempty and positive."""
    if not m or not n:
        raise EmptyTeam("both teams need at least one weight")
    for values, name in ((m, "m"), (n, "n")):
        if not all(map(math.isfinite, values)):
            raise NonPositiveLoad(f"{name} contains non-finite entries")
        if min(values) <= 0.0:
            raise NonPositiveLoad(f"{name} contains a non-positive entry")


def _require_normalized(m: Sequence[float], n: Sequence[float]) -> None:
    """:class:`NotNormalized` unless each team's correctly rounded sum is one
    (tolerance 1e-12)."""
    for values, name in ((m, "m"), (n, "n")):
        total = math.fsum(values)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(f"team {name} sums to {total!r}, expected 1")


class NormalizedLoadVector(LoadVector):
    """A load vector whose teams each sum to one (tolerance 1e-12, absolute)."""

    def __init__(self, m: Sequence[float], n: Sequence[float]):
        super().__init__(m, n)
        _require_normalized(self.m.tolist(), self.n.tolist())


class PartitionSums(NamedTuple):
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

    Treat instances as immutable.  One point -> team map answers
    :meth:`parity`.  For tree hosts the minimal subtree spanned by the
    points is computed once, together with the preorder position of every
    team point in it; every edge functional is then a subtree sum over
    those positions.
    """

    def __init__(self, host: Host, a_team: Sequence[VertexId], b_team: Sequence[VertexId]):
        a_team = tuple(a_team)
        b_team = tuple(b_team)
        if not a_team or not b_team:
            raise EmptyTeam("both teams must be nonempty")
        points = a_team + b_team
        if len(set(points)) != len(points):
            raise DuplicateVertex("team points are not pairwise distinct")
        self.host = host
        self.a_team = a_team
        self.b_team = b_team
        self.points = points
        self._team: Dict[VertexId, str] = dict.fromkeys(a_team, "a") | dict.fromkeys(b_team, "b")

        if isinstance(host, MetricTree):
            # minimal_subtree checks every point against the tree first.
            sub = minimal_subtree(host, points)
            self.subtree: Optional[MetricTree] = sub
            self.a_positions = np.array([sub.position[v] for v in a_team])
            self.b_positions = np.array([sub.position[v] for v in b_team])
        else:
            for v in points:
                host.check_vertex(v)
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
        return self._team.get(v)

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
    _require_normalized(load.m.tolist(), load.n.tolist())


def _team_loads(
    simplex: Simplex, load: LoadVector
) -> Tuple[Dict[VertexId, float], Dict[VertexId, float]]:
    """The a-team and b-team loads as point -> load maps, in team order."""
    return dict(zip(simplex.a_team, load.m.tolist())), dict(zip(simplex.b_team, load.n.tolist()))


def partition_sums(simplex: Simplex, load: LoadVector, edge: OrientedEdge) -> PartitionSums:
    """Weight of each team on the two sides of a minimal-subtree edge."""
    _check_load(simplex, load)
    i = simplex.edge_position(edge)
    alpha_l = float(_below(simplex, load.m, 0.0)[i])
    beta_l = float(_below(simplex, 0.0, load.n)[i])
    alpha_r = float(load.m.sum()) - alpha_l
    beta_r = float(load.n.sum()) - beta_l
    a_load, b_load = _team_loads(simplex, load)
    x, y = edge.left, edge.right
    return PartitionSums(
        alpha_l=alpha_l,
        alpha_r=alpha_r,
        beta_l=beta_l,
        beta_r=beta_r,
        alpha_l_strict=alpha_l - a_load.get(x, 0.0),
        alpha_r_strict=alpha_r - a_load.get(y, 0.0),
        beta_l_strict=beta_l - b_load.get(x, 0.0),
        beta_r_strict=beta_r - b_load.get(y, 0.0),
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
    return np.asarray(simplex.subtree.subtree_sums(values))


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
) -> Tuple[Tuple[VertexId, ...], List[float], float]:
    """Validate a signed mean-zero weighting of distinct points.

    Checks, in this order: distinct points, each in ``host`` when one is
    given, one weight per point, a finite and nonzero absolute sum, and a
    sum within 1e-12 of that of zero, both sums correctly rounded.
    Returns points, weights as floats, absolute sum.
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise DuplicateVertex("points are not pairwise distinct")
    if host is not None:
        for v in points:
            host.check_vertex(v)
    eta = [float(x) for x in eta]
    if len(eta) != len(points):
        raise ZeroVector(f"{len(points)} points but {len(eta)} signed weights")
    total_abs = _fsum(map(abs, eta))
    if not math.isfinite(total_abs):
        raise NonPositiveLoad("signed weights and their absolute sum must be finite")
    if total_abs == 0.0:
        raise ZeroVector("the signed weighting is identically zero")
    total = math.fsum(eta)
    if abs(total) > 1e-12 * total_abs:
        raise NonZeroSum(f"signed weights sum to {total!r}, expected 0")
    return points, eta, total_abs


def eta_to_simplex(
    host: Host, points: Sequence[VertexId], eta: Sequence[float]
) -> Tuple[Simplex, NormalizedLoadVector, float]:
    """Convert a signed mean-zero weighting into a normalized loaded simplex.

    Positive entries become the a-team, negative entries the b-team, exact
    zeros are dropped; the scale ``alpha`` is half the total absolute weight.
    Returns ``(simplex, load, alpha)``.
    """
    points, eta, total_abs = signed_weights(points, eta)
    alpha = total_abs / 2.0
    a_team = [v for v, w in zip(points, eta) if w > 0.0]
    b_team = [v for v, w in zip(points, eta) if w < 0.0]
    m = [w / alpha for w in eta if w > 0.0]
    n = [-w / alpha for w in eta if w < 0.0]
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
