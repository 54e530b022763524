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
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import NoEdges, NonPositiveLoad, TooFewVertices, check_finite
from .pruning import prunable_edges
from .simplex import NormalizedLoadVector, Simplex, make_simplex
from .tree import MetricTree, VertexId

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


@dataclass(frozen=True)
class GapReport:
    """Closed-form gap together with the weighting that attains it.

    ``gamma`` is also the delta that normalizes the generic weighting.
    ``signed`` is that weighting on the tree's preorder positions: the
    a-team weight at an a-team vertex and minus the b-team weight at a
    b-team vertex.  It is read-only; ``witness_gap`` is its edge-form gap.
    """

    gamma: float
    witness_gap: float
    signed: np.ndarray


def generic_labeling(tree: MetricTree) -> Simplex:
    """Split all vertices into teams by level parity (even levels team a).

    Level k0 - h of a vertex h hops from the root is even when h = k0
    (mod 2).  Each team lists its vertices in preorder.
    """
    if len(tree.vertices) < 2:
        raise TooFewVertices("a generic labeling needs at least two vertices")
    in_b = _b_team(tree).tolist()
    a_team = tuple(v for v, b in zip(tree.preorder, in_b) if not b)
    b_team = tuple(v for v, b in zip(tree.preorder, in_b) if b)
    return make_simplex(tree, a_team, b_team)


def _b_team(tree: MetricTree) -> np.ndarray:
    """Preorder mask of the generic b-team: hop parity unlike the deepest level's."""
    hop = np.array(tree.hop)
    return hop % 2 != hop.max() % 2


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
    reciprocal, sums = _reciprocals(tree)
    weights = delta * sums
    weights[0] = 1.0 - delta * _reciprocal_sum(tree, reciprocal, 2)
    by_position = weights.tolist()
    return {v: by_position[tree.position[v]] for v in tree.vertices}


def _reciprocals(tree: MetricTree) -> Tuple[np.ndarray, np.ndarray]:
    """1/weight of the edge above each preorder position (0 at the root), and
    their sum over the edges at each vertex: times delta, the generic weights
    below the root, and at the normalizing delta all of the witness's."""
    reciprocal = np.zeros(len(tree))
    with np.errstate(over="ignore"):  # inf past the double range, which _reciprocal_sum names
        np.divide(1.0, tree.up_weight[1:], out=reciprocal[1:])
        sums = np.bincount(tree.parent_position[1:], weights=reciprocal[1:], minlength=len(tree))
        return reciprocal, sums + reciprocal


def _reciprocal_sum(tree: MetricTree, reciprocal: np.ndarray, start: int) -> float:
    """Correctly rounded sum of ``reciprocal[start:]``: 1 is every edge, 2 all but the root's."""
    try:
        total = math.fsum(reciprocal[start:].tolist())
    except OverflowError:
        total = math.inf
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
    return 1.0 / _reciprocal_sum(tree, _reciprocals(tree)[0], 1)


def positivity_threshold(tree: MetricTree) -> float:
    """Largest delta (exclusive) keeping every generic weight positive.

    Only the root weight can go non-positive; it stays positive exactly for
    delta below the reciprocal sum over all edges except the root's own.
    For a single-edge tree the threshold is infinite.
    """
    if len(tree) < 2:
        raise NoEdges("the tree has no edges")
    rest = _reciprocal_sum(tree, _reciprocals(tree)[0], 2)
    return 1.0 / rest if rest else math.inf


def gamma_T(tree: MetricTree) -> GapReport:
    """Closed-form minimal gap of a tree, with its attaining witness.

    The witness gives every vertex v, the root included, the weight
    ``gamma * (sum over edges e at v of 1/weight(e))``.  That equals
    :func:`generic_algorithm` at ``delta = gamma`` without its root top-up,
    whose difference of near-equal sums cancels when one edge is far
    lighter than the rest.  ``witness_gap`` is returned, not judged.
    """
    if len(tree.vertices) < 2:
        raise TooFewVertices("gap quantities need at least two vertices")
    reciprocal, sums = _reciprocals(tree)
    gamma = 1.0 / _reciprocal_sum(tree, reciprocal, 1)
    signed = gamma * sums
    if not signed.all():
        raise NonPositiveLoad(
            f"a witness weight underflows to 0: the edge weights span "
            f"{min(tree.up_weight[1:])!r} to {max(tree.up_weight)!r}"
        )
    b_team = _b_team(tree)
    signed[b_team] *= -1.0
    signed.setflags(write=False)
    # Raises unless each team's weights are positive, finite and sum to one.
    NormalizedLoadVector(signed[~b_team], -signed[b_team])
    below = tree.subtree_sums(signed)
    witness = float(np.dot(tree.up_weight, below * below))
    return GapReport(gamma=gamma, witness_gap=witness, signed=signed)


def equality_witness(tree: MetricTree) -> Tuple[Simplex, NormalizedLoadVector]:
    """The generic labeling, loaded with :attr:`GapReport.signed` by team."""
    signed = gamma_T(tree).signed
    d = generic_labeling(tree)
    return d, NormalizedLoadVector(signed[d.a_positions], -signed[d.b_positions])
