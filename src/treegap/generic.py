"""Generic labelings and the closed-form gap of a metric tree.

Labeling a tree's vertices by level parity (deepest level 0, root at the
top) makes adjacent vertices take opposite teams.  A bottom-up weighting
built from a parameter delta then balances every edge: at
``delta = 1 / sum(1/weight)`` over all edges the weighting is normalized,
and the resulting loaded simplex attains the tree's minimal gap

    gamma = (sum over edges of 1/weight)^(-1).
"""

from __future__ import annotations

import math
from operator import mul
from typing import Dict, List, NamedTuple, Tuple

from ._lazy import np
from .errors import NoEdges, NonPositiveLoad, TooFewVertices, check_finite
from .pruning import prunable_edges
from .simplex import NormalizedLoadVector, Simplex, make_simplex
from .simplex import _check_teams, _require_normalized
from .tree import MetricTree, VertexId, _fsum

__all__ = [
    "GapReport",
    "generic_labeling",
    "is_generically_labeled",
    "generic_algorithm",
    "generic_delta",
    "positivity_threshold",
    "gamma_T",
    "equality_witness",
]


class GapReport(NamedTuple):
    """Closed-form gap together with the weighting that attains it.

    ``gamma`` is also the delta that normalizes the generic weighting.
    ``signed`` is that weighting on the tree's preorder positions: the
    a-team weight at an a-team vertex and minus the b-team weight at a
    b-team vertex, a tuple of floats; ``witness_gap`` is its edge-form gap.
    """

    gamma: float
    witness_gap: float
    signed: Tuple[float, ...]


def generic_labeling(tree: MetricTree) -> Simplex:
    """Split all vertices into teams by level parity (even levels team a).

    Level k0 - h of a vertex h hops from the root is even when h = k0
    (mod 2).  Each team lists its vertices in preorder.
    """
    if len(tree.vertices) < 2:
        raise TooFewVertices("a generic labeling needs at least two vertices")
    in_b = _b_team(tree)
    a_team = tuple(v for v, b in zip(tree.preorder, in_b) if not b)
    b_team = tuple(v for v, b in zip(tree.preorder, in_b) if b)
    return make_simplex(tree, a_team, b_team)


def _b_team(tree: MetricTree) -> List[bool]:
    """Preorder mask of the generic b-team: hop parity unlike the deepest level's."""
    deepest = max(tree.hop) % 2
    return [h % 2 != deepest for h in tree.hop]


def is_generically_labeled(simplex: Simplex) -> bool:
    """True when no minimal-subtree edge can be pruned.

    A simplex has at least two points, so every minimal-subtree vertex lies
    on an edge: the teams then cover the minimal subtree and alternate
    along every edge of it.
    """
    return not prunable_edges(simplex)


def generic_algorithm(tree: MetricTree, delta: float) -> Dict[VertexId, float]:
    """Bottom-up weighting of the generic labeling, driven by ``delta > 0``.

    Adjacent vertices sit on opposite teams, so every edge has one endpoint
    in each team, and balancing each subtree's team sums against
    ``delta / weight(edge above)`` gives every vertex v below the root

        delta * (sum over edges e at v of 1/weight(e)).

    The root then tops its own team up to total one, which leaves it
    ``1 - delta * (sum over edges e other than the root's of 1/weight(e))``.
    All weights below the root are positive for every delta; the root
    weight may be non-positive, which is reported in the returned mapping
    rather than raised.
    """
    if len(tree.vertices) < 2:
        raise TooFewVertices("the weighting needs at least one edge")
    delta = check_finite(delta, "delta", NonPositiveLoad, positive=True)
    reciprocal = _reciprocals(tree)
    weights = [delta * s for s in _vertex_sums(tree, reciprocal)]
    weights[0] = 1.0 - delta * _reciprocal_sum(tree, reciprocal, 2)
    return {v: weights[tree.position[v]] for v in tree.vertices}


def _reciprocals(tree: MetricTree) -> List[float]:
    """1/weight of the edge above each preorder position (0 at the root), inf
    past the double range, which _reciprocal_sum names."""
    return [0.0] + [1.0 / w for w in tree.up_weight[1:]]


def _vertex_sums(tree: MetricTree, reciprocal: List[float]) -> List[float]:
    """The sum of ``reciprocal`` over the edges at each vertex: times delta,
    the generic weights below the root, and at the normalizing delta all of
    the witness's.  Each vertex adds its children's in preorder, then its own."""
    sums = [0.0] * len(tree)
    parent = tree.parent_position
    for i in range(1, len(sums)):
        sums[parent[i]] += reciprocal[i]
    return [s + r for s, r in zip(sums, reciprocal)]


def _reciprocal_sum(tree: MetricTree, reciprocal: List[float], start: int) -> float:
    """Correctly rounded sum of ``reciprocal[start:]``: 1 is every edge, 2 all but the root's."""
    total = _fsum(reciprocal[start:])
    if total == math.inf:
        raise NonPositiveLoad(
            f"the sum of 1/weight overflows the double range: the lightest edge weight is "
            f"{min(tree.up_weight[start:])!r}"
        )
    return total


def generic_delta(tree: MetricTree) -> float:
    """The delta at which the generic weighting is normalized."""
    if len(tree) < 2:
        raise NoEdges("the tree has no edges")
    return 1.0 / _reciprocal_sum(tree, _reciprocals(tree), 1)


def positivity_threshold(tree: MetricTree) -> float:
    """Largest delta (exclusive) keeping every generic weight positive.

    Only the root weight can go non-positive; it stays positive exactly for
    delta below the reciprocal sum over all edges except the root's own.
    For a single-edge tree the threshold is infinite.
    """
    if len(tree) < 2:
        raise NoEdges("the tree has no edges")
    rest = _reciprocal_sum(tree, _reciprocals(tree), 2)
    return 1.0 / rest if rest else math.inf


def gamma_T(tree: MetricTree) -> GapReport:
    """Closed-form minimal gap of a tree, with its attaining witness.

    The witness gives every vertex v, the root included, the weight
    ``gamma * (sum over edges e at v of 1/weight(e))``.  That equals
    :func:`generic_algorithm` at ``delta = gamma`` without its root top-up,
    whose difference of near-equal sums cancels when one edge is far
    lighter than the rest.  ``witness_gap`` is the correctly rounded sum of
    w_e * x_e^2 over the witness's loads x_e below the edges; it is
    returned, not judged.
    """
    if len(tree.vertices) < 2:
        raise TooFewVertices("gap quantities need at least two vertices")
    reciprocal = _reciprocals(tree)
    gamma = 1.0 / _reciprocal_sum(tree, reciprocal, 1)
    weights = [gamma * s for s in _vertex_sums(tree, reciprocal)]
    if not all(weights):
        raise NonPositiveLoad(
            f"a witness weight underflows to 0: the edge weights span "
            f"{min(tree.up_weight[1:])!r} to {max(tree.up_weight)!r}"
        )
    b_team = _b_team(tree)
    a_weights = [w for w, b in zip(weights, b_team) if not b]
    b_weights = [w for w, b in zip(weights, b_team) if b]
    # Raise unless each team's weights are positive, finite and sum to one.
    _check_teams(a_weights, b_weights)
    _require_normalized(a_weights, b_weights)
    signed = tuple(-w if b else w for w, b in zip(weights, b_team))
    below = tree.subtree_sums(signed)
    witness = _fsum(map(mul, tree.up_weight, map(mul, below, below)))
    return GapReport(gamma=gamma, witness_gap=witness, signed=signed)


def equality_witness(tree: MetricTree) -> Tuple[Simplex, NormalizedLoadVector]:
    """The generic labeling, loaded with :attr:`GapReport.signed` by team."""
    signed = np.asarray(gamma_T(tree).signed)
    d = generic_labeling(tree)
    return d, NormalizedLoadVector(signed[d.a_positions], -signed[d.b_positions])
