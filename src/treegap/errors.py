"""Exception types raised across the package, and its one finite-value check.

Everything inherits from :class:`TreeGapError`, which is itself a
``ValueError``, so callers may catch broadly or by specific condition.
"""

from __future__ import annotations

import math

__all__ = [
    "TreeGapError",
    # trees
    "CycleDetected",
    "Disconnected",
    "NonPositiveWeight",
    "RootNotLeaf",
    "UnknownVertex",
    "UnknownEdge",
    "EmptyVertexSet",
    # parsing
    "NewickSyntaxError",
    "ParseError",
    "NonPositiveBranchLength",
    "EmptyTree",
    # simplexes
    "DuplicateVertex",
    "EmptyTeam",
    "NonPositiveLoad",
    "NotNormalized",
    "NotATreeHost",
    "EdgeNotInMinimalSubtree",
    "ZeroVector",
    "NonZeroSum",
    # gaps
    "TooFewVertices",
    "NoEdges",
    "NotPrunable",
    # metrics
    "InvalidMetric",
    "InvalidExponent",
    "DegenerateMetric",
    "TooFewPoints",
    "TooSmall",
    "TooFewLeaves",
    "CapReached",
    # sizes
    "TooLarge",
]


class TreeGapError(ValueError):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- trees


class CycleDetected(TreeGapError):
    """The edge set contains a cycle (or a duplicated / self-loop edge)."""


class Disconnected(TreeGapError):
    """The edge set does not connect the vertex set."""


class NonPositiveWeight(TreeGapError):
    """An edge weight is zero or negative."""


class RootNotLeaf(TreeGapError):
    """The requested root has degree other than one."""


class UnknownVertex(TreeGapError):
    """A vertex label is not part of the host."""


class UnknownEdge(TreeGapError):
    """An oriented edge is not part of the tree."""


class EmptyVertexSet(TreeGapError):
    """A vertex subset that must be nonempty is empty."""


# ---------------------------------------------------------------- parsing


class NewickSyntaxError(TreeGapError):
    """Malformed Newick text. ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ParseError(TreeGapError):
    """Malformed edge-list or eta-list text. ``line`` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class NonPositiveBranchLength(TreeGapError):
    """A branch length in the input is zero or negative."""


class EmptyTree(TreeGapError):
    """The input describes no vertices at all."""


# ---------------------------------------------------------------- simplexes


class DuplicateVertex(TreeGapError):
    """The same vertex appears twice in a team or point list."""


class EmptyTeam(TreeGapError):
    """A simplex team is empty."""


class NonPositiveLoad(TreeGapError):
    """A load vector entry is zero or negative."""


class NotNormalized(TreeGapError):
    """Team weights do not sum to one within tolerance."""


class NotATreeHost(TreeGapError):
    """A tree-only operation was applied to a simplex hosted by a plain metric."""


class EdgeNotInMinimalSubtree(TreeGapError):
    """The edge lies outside the simplex's minimal subtree."""


class ZeroVector(TreeGapError):
    """A signed-weight vector is identically zero."""


class NonZeroSum(TreeGapError):
    """A signed-weight vector does not sum to zero within tolerance."""


# ---------------------------------------------------------------- gaps


class TooFewVertices(TreeGapError):
    """The tree has too few vertices for the requested operation."""


class NoEdges(TreeGapError):
    """The tree has no edges, so gap quantities are undefined."""


class NotPrunable(TreeGapError):
    """The edge does not satisfy either pruning condition."""


# ---------------------------------------------------------------- metrics


class InvalidMetric(TreeGapError):
    """The matrix is not a metric (symmetry, diagonal, positivity, triangle)."""


class InvalidExponent(TreeGapError):
    """The exponent p is negative (or otherwise out of range)."""


class DegenerateMetric(TreeGapError):
    """All nonzero distances coincide, so the interval bound is undefined."""


class TooFewPoints(TreeGapError):
    """The metric space has too few points for the requested operation."""


class TooSmall(TreeGapError):
    """A size parameter is below the smallest supported value."""


class TooFewLeaves(TreeGapError):
    """A star needs at least two leaves."""


class CapReached(TreeGapError):
    """The doubling phase hit the exponent cap without finding a failure."""

    def __init__(self, cap: float):
        super().__init__(
            f"p-negative type holds at p = {cap}; the supremum is at least "
            f"{cap} and cannot be certified by the search"
        )
        self.cap = cap


# ---------------------------------------------------------------- sizes


class TooLarge(TreeGapError):
    """The instance exceeds a size cap: exhaustive enumeration or an n x n matrix."""


def check_finite(value: float, name: str, error: type, positive: bool = False) -> float:
    """``value`` as a float; ``error`` on NaN, +-inf, negatives and (if ``positive``) zero."""
    x = float(value)
    if not math.isfinite(x) or x < 0.0 or (positive and x == 0.0):
        kind = "positive" if positive else "nonnegative"
        raise error(f"{name} = {value!r} must be finite and {kind}")
    return x
