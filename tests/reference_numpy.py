"""The closed form and the brute-force face solve as their numpy versions had them.

The differential tests in ``test_generic.py`` and ``test_oracle.py`` hold
``treegap.generic`` and ``treegap.oracle._tree_faces`` to these: gamma,
the signed witness, generic_delta and every face's gap and loads bit for
bit, and witness_gap to the same rounding bound of its exact value.  The
one change is that ``gamma_T`` takes its subtree sums from
:func:`subtree_sums`, the method ``MetricTree.subtree_sums`` had then,
which returned an array.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from treegap.errors import NoEdges, NonPositiveLoad, TooFewVertices
from treegap.generic import GapReport
from treegap.simplex import NormalizedLoadVector
from treegap.tree import MetricTree


def subtree_sums(tree: MetricTree, values: Sequence[float]) -> np.ndarray:
    """Sum of ``values`` (indexed by preorder position) over each subtree."""
    sums = [float(x) for x in values]
    for i in range(len(sums) - 1, 0, -1):
        sums[tree.parent_position[i]] += sums[i]
    return np.array(sums)


def _b_team(tree: MetricTree) -> np.ndarray:
    """Preorder mask of the generic b-team: hop parity unlike the deepest level's."""
    hop = np.array(tree.hop)
    return hop % 2 != hop.max() % 2


def _reciprocals(tree: MetricTree) -> np.ndarray:
    """1/weight of the edge above each preorder position (0 at the root)."""
    reciprocal = np.zeros(len(tree))
    with np.errstate(over="ignore"):  # inf past the double range, which _reciprocal_sum names
        np.divide(1.0, tree.up_weight[1:], out=reciprocal[1:])
    return reciprocal


def _vertex_sums(tree: MetricTree, reciprocal: np.ndarray) -> np.ndarray:
    """The sum of ``reciprocal`` over the edges at each vertex: times delta,
    the generic weights below the root, and at the normalizing delta all of
    the witness's."""
    with np.errstate(over="ignore"):  # inf past the double range, as in _reciprocals
        sums = np.bincount(tree.parent_position[1:], weights=reciprocal[1:], minlength=len(tree))
        return sums + reciprocal


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
    return 1.0 / _reciprocal_sum(tree, _reciprocals(tree), 1)


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
    reciprocal = _reciprocals(tree)
    gamma = 1.0 / _reciprocal_sum(tree, reciprocal, 1)
    signed = gamma * _vertex_sums(tree, reciprocal)
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
    below = subtree_sums(tree, signed)
    witness = float(np.dot(tree.up_weight, below * below))
    return GapReport(gamma=gamma, witness_gap=witness, signed=signed)


def _tree_faces(
    parent: np.ndarray, conductance: np.ndarray, signs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The gap at the stationary point of each face of a tree, and its loads.

    ``signs`` (n, r) holds one face per column over the preorder positions,
    whose parents and upward edge conductances 1 / w_e are ``parent`` and
    ``conductance``.  Leaves to root, each subtree reduces to the
    conductance and the potential it shows through the edge above it, the
    a-team held at 1 and the b-team at 0; root to leaves, the potentials
    follow as weighted means, so no product of two conductances can
    overflow.  Returns each face's gap sum_e w_e * i_e^2 / I^2, infinite
    where its loads leave the simplexes, and the net outflows (n, r), which
    are the signed loads times the total current I.
    """
    n = len(parent)
    clamped = signs != 0
    high = signs > 0
    below = np.zeros(signs.shape)  # conductance of each subtree at its top
    pull = np.zeros(signs.shape)  # the same times the subtree's potential
    for i in range(n - 1, 0, -1):
        c, up = conductance[i], parent[i]
        share = c / (c + below[i])
        below[up] += np.where(clamped[i], c, below[i] * share)
        pull[up] += np.where(clamped[i], c * high[i], pull[i] * share)
    potential = np.empty(signs.shape)
    # Conductances that round to zero or overflow leave NaN or infinite gaps,
    # and those faces never win.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        potential[0] = np.where(clamped[0], high[0], pull[0] / below[0])
        for i in range(1, n):
            c = conductance[i]
            free = (c * potential[parent[i]] + pull[i]) / (c + below[i])
            potential[i] = np.where(clamped[i], high[i], free)
        drop = potential[1:] - potential[parent[1:]]
        # outflow[j] = current up from j minus the currents up into j.
        incidence = np.zeros((n, n - 1))
        incidence[np.arange(1, n), np.arange(n - 1)] = conductance[1:]
        incidence[parent[1:], np.arange(n - 1)] = -conductance[1:]
        outflow = incidence @ drop
        total = np.einsum("ir,ir->r", high, outflow)
        gaps = np.einsum("e,er,er->r", conductance[1:], drop, drop) / total / total
    feasible = np.all(signs * outflow >= 0.0, axis=0) & (gaps >= 0.0)
    return np.where(feasible, gaps, np.inf), outflow
