"""Finite metric trees with positive edge weights, oriented toward a root leaf.

A tree is stored with every edge pointing at the root: the *left* endpoint of
an oriented edge is the one farther from the root, the *right* endpoint is its
parent.  Distances are geodesic sums of edge weights.

:class:`MetricTree` holds the tree as preorder arrays and nothing else;
every query, and every layer above this module, reads those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CycleDetected,
    Disconnected,
    EmptyVertexSet,
    NonPositiveWeight,
    RootNotLeaf,
    UnknownEdge,
    UnknownVertex,
    check_finite,
)

__all__ = [
    "VertexId",
    "OrientedEdge",
    "MetricTree",
    "LevelAssignment",
    "build_tree",
    "minimal_subtree",
    "level_assignment",
    "left_right_sets",
]

VertexId = Hashable


def label_key(v: VertexId) -> str:
    """Deterministic ordering key: labels compare by their string form."""
    return str(v)


class OrientedEdge(NamedTuple):
    """Edge (left, right, weight) with ``left`` strictly farther from the root."""

    left: VertexId
    right: VertexId
    weight: float


@dataclass(frozen=True)
class LevelAssignment:
    """Hop levels counted downward from the deepest vertex.

    ``k0`` is the largest hop distance from the root; a vertex at hop
    distance h sits at level ``k0 - h``, so the root is the unique vertex
    at level ``k0`` and the deepest vertices are at level 0.
    """

    k0: int
    level: Dict[VertexId, int]


class MetricTree:
    """Immutable rooted metric tree.  Build through :func:`build_tree`.

    Its preorder arrays are its only representation.  ``preorder`` lists
    the vertices depth first, children in label order, so the subtree at
    position i is positions i to ``subtree_end[i]`` (exclusive) and the
    children of i are i + 1, then each next ``subtree_end``.
    ``parent_position``, ``up_weight`` and ``hop`` give the parent, the
    weight of the edge above and the hop count to the root of each
    position (-1, 0 and 0 at the root); ``position`` maps labels back.
    """

    def __init__(
        self,
        vertices: Tuple[VertexId, ...],
        preorder: Tuple[VertexId, ...],
        parent_position: Tuple[int, ...],
        up_weight: Tuple[float, ...],
        hop: Tuple[int, ...],
    ):
        self.vertices = vertices
        self.root = preorder[0]
        self.preorder = preorder
        self.position: Dict[VertexId, int] = {v: i for i, v in enumerate(preorder)}
        self.parent_position = parent_position
        self.up_weight = up_weight
        self.hop = hop
        sizes = self.subtree_sums([1.0] * len(preorder))
        self.subtree_end = tuple(i + int(size) for i, size in enumerate(sizes))
        self.edges: Tuple[OrientedEdge, ...] = tuple(
            self._edge_at(self.position[v]) for v in vertices if v != self.root
        )

    # -- basic queries ----------------------------------------------------

    def __contains__(self, v: VertexId) -> bool:
        return v in self.position

    def __len__(self) -> int:
        return len(self.vertices)

    def check_vertex(self, v: VertexId) -> int:
        """The preorder position of ``v``; :class:`UnknownVertex` if absent."""
        if v not in self.position:
            raise UnknownVertex(f"vertex {v!r} is not in the tree")
        return self.position[v]

    def _child_positions(self, i: int) -> List[int]:
        """Preorder positions of the children of position i, in label order."""
        out = []
        j = i + 1
        while j < self.subtree_end[i]:
            out.append(j)
            j = self.subtree_end[j]
        return out

    def degree(self, v: VertexId) -> int:
        i = self.check_vertex(v)
        return len(self._child_positions(i)) + (0 if i == 0 else 1)

    def is_leaf(self, v: VertexId) -> bool:
        return self.degree(v) == 1 or len(self.vertices) == 1

    def leaves(self) -> Tuple[VertexId, ...]:
        if len(self.vertices) == 1:
            return (self.root,)
        return tuple(v for v in self.vertices if self.degree(v) == 1)

    def neighbors(self, v: VertexId) -> Tuple[VertexId, ...]:
        i = self.check_vertex(v)
        out = self._child_positions(i)
        if i != 0:
            out.append(self.parent_position[i])
        return tuple(sorted((self.preorder[j] for j in out), key=label_key))

    def children(self, v: VertexId) -> Tuple[VertexId, ...]:
        return tuple(self.preorder[j] for j in self._child_positions(self.check_vertex(v)))

    def _edge_at(self, i: int) -> OrientedEdge:
        right = self.preorder[self.parent_position[i]]
        return OrientedEdge(self.preorder[i], right, self.up_weight[i])

    def edge_position(self, edge: OrientedEdge) -> int:
        """Left endpoint's position if ``edge``, weight included, is a tree edge, else 0."""
        i = self.position.get(edge.left, 0)
        return i if i and self._edge_at(i) == edge else 0

    def edge_above(self, v: VertexId) -> OrientedEdge:
        """The unique oriented edge whose left endpoint is ``v``."""
        i = self.check_vertex(v)
        if i == 0:
            raise UnknownEdge("the root has no edge above it")
        return self._edge_at(i)

    def hop_depth(self, v: VertexId) -> int:
        return self.hop[self.check_vertex(v)]

    def total_weight(self) -> float:
        return sum(e.weight for e in self.edges)

    # -- geometry ---------------------------------------------------------

    def distance(self, u: VertexId, v: VertexId) -> float:
        """Geodesic distance: sum of edge weights on the unique u-v path."""
        a, b = self.check_vertex(u), self.check_vertex(v)
        dist = 0.0
        while a != b:
            if self.hop[a] >= self.hop[b]:
                dist += self.up_weight[a]
                a = self.parent_position[a]
            else:
                dist += self.up_weight[b]
                b = self.parent_position[b]
        return dist

    def path_vertices(self, u: VertexId, v: VertexId) -> Tuple[VertexId, ...]:
        """Vertices on the u-v geodesic, endpoints included."""
        a, b = self.check_vertex(u), self.check_vertex(v)
        up, down = [a], [b]
        while a != b:
            if self.hop[a] >= self.hop[b]:
                a = self.parent_position[a]
                up.append(a)
            else:
                b = self.parent_position[b]
                down.append(b)
        return tuple(self.preorder[i] for i in up[:-1] + down[::-1])

    def subtree_vertices(self, v: VertexId) -> FrozenSet[VertexId]:
        """``v`` together with everything below it (away from the root)."""
        i = self.check_vertex(v)
        return frozenset(self.preorder[i : self.subtree_end[i]])

    def subtree_sums(self, values: Sequence[float]) -> np.ndarray:
        """Sum of ``values`` (indexed by preorder position) over each subtree."""
        sums = [float(x) for x in values]
        for i in range(len(sums) - 1, 0, -1):
            sums[self.parent_position[i]] += sums[i]
        return np.array(sums)

    def path_sums(self, values: Sequence[float]) -> np.ndarray:
        """Sum of ``values`` (indexed by preorder position) along each root path."""
        sums = [float(x) for x in values]
        for i in range(1, len(sums)):
            sums[i] += sums[self.parent_position[i]]
        return np.array(sums)

    def __repr__(self) -> str:
        return (
            f"MetricTree({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges, root={self.root!r})"
        )


def build_tree(
    vertex_ids: Iterable[VertexId],
    edges: Iterable[Tuple[VertexId, VertexId, float]],
    root: Optional[VertexId] = None,
) -> MetricTree:
    """Validate an undirected weighted edge list and orient it toward a root.

    The root defaults to the lexicographically smallest leaf.  An explicit
    root must be a leaf (single-vertex trees are the only exception, where
    the lone vertex is its own root).
    """
    vertices = tuple(sorted(set(vertex_ids), key=label_key))
    if not vertices:
        raise EmptyVertexSet("a tree needs at least one vertex")
    vertex_set = set(vertices)

    adjacency: Dict[VertexId, Dict[VertexId, float]] = {v: {} for v in vertices}
    n_edges = 0
    for u, v, w in edges:
        if u not in vertex_set:
            raise UnknownVertex(f"edge endpoint {u!r} is not a declared vertex")
        if v not in vertex_set:
            raise UnknownVertex(f"edge endpoint {v!r} is not a declared vertex")
        check_finite(w, f"weight of edge ({u!r}, {v!r})", NonPositiveWeight, positive=True)
        if u == v:
            raise CycleDetected(f"self-loop at {u!r}")
        if v in adjacency[u]:
            raise CycleDetected(f"edge ({u!r}, {v!r}) appears more than once")
        adjacency[u][v] = float(w)
        adjacency[v][u] = float(w)
        n_edges += 1

    if n_edges >= len(vertices) and len(vertices) > 1:
        raise CycleDetected(
            f"{n_edges} edges on {len(vertices)} vertices cannot be acyclic"
        )

    # Pick the root before traversal so orientation happens once.
    if root is None:
        if len(vertices) == 1:
            root = vertices[0]
        else:
            leaf_candidates = [v for v in vertices if len(adjacency[v]) == 1]
            if not leaf_candidates:
                raise CycleDetected("no leaf exists; the graph contains a cycle")
            root = min(leaf_candidates, key=label_key)
    else:
        if root not in vertex_set:
            raise UnknownVertex(f"root {root!r} is not a declared vertex")
        if len(vertices) > 1 and len(adjacency[root]) != 1:
            raise RootNotLeaf(
                f"root {root!r} has degree {len(adjacency[root])}, expected 1"
            )

    # One depth-first pass, children in label order, emits a row per
    # vertex: (vertex, parent position, weight above, hop).  A vertex is
    # marked when it is pushed, so meeting a marked vertex other than the
    # parent closes a cycle.
    rows: List[Tuple[VertexId, int, float, int]] = []
    stack = [(root, -1, 0.0, 0)]
    seen = {root}
    while stack:
        row = x, parent, _weight, hop = stack.pop()
        rows.append(row)
        for y in reversed(sorted(adjacency[x], key=label_key)):
            if y not in seen:
                seen.add(y)
                stack.append((y, len(rows) - 1, adjacency[x][y], hop + 1))
            elif parent < 0 or y != rows[parent][0]:
                raise CycleDetected(f"cycle through ({x!r}, {y!r})")

    if len(rows) != len(vertices):
        missing = sorted(vertex_set - seen, key=label_key)
        raise Disconnected(f"vertices {missing!r} are not reachable from {root!r}")

    return MetricTree(vertices, *zip(*rows))


def minimal_subtree(tree: MetricTree, subset: Iterable[VertexId]) -> MetricTree:
    """Smallest subtree containing every vertex of ``subset``.

    It is the tree itself when every vertex is kept.  When the host root lies
    in the subtree it stays the root, so edge orientations carry over
    unchanged (the host root is a leaf, and a geodesic only reaches a leaf as
    an endpoint, so it is a valid choice).  Otherwise the result is re-rooted
    at its lexicographically smallest leaf, which is always a member.
    """
    points = tuple(subset)
    if not points:
        raise EmptyVertexSet("the vertex subset is empty")
    for v in points:
        tree.check_vertex(v)
    members = set(points)
    if len(members) == len(tree):
        return tree

    # The edge above a vertex is kept when its subtree holds some members
    # but not all; the deepest vertex whose subtree holds them all tops it.
    indicator = np.zeros(len(tree))
    indicator[[tree.position[v] for v in members]] = 1.0
    count = tree.subtree_sums(indicator)
    top = int(np.flatnonzero(count == len(members))[-1])
    inner = np.flatnonzero((count > 0) & (count < len(members)))
    if len(inner) + 1 == len(tree):
        return tree
    keep = [tree.preorder[i] for i in inner] + [tree.preorder[top]]
    sub_edges = [
        (tree.preorder[i], tree.preorder[tree.parent_position[i]], tree.up_weight[i])
        for i in inner
    ]
    return build_tree(keep, sub_edges, root=tree.root if top == 0 else None)


def level_assignment(tree: MetricTree) -> LevelAssignment:
    """Levels counted from the deepest vertex: level(v) = k0 - hops-to-root."""
    k0 = max(tree.hop)
    level = {v: k0 - tree.hop[tree.position[v]] for v in tree.vertices}
    return LevelAssignment(k0=k0, level=level)


def left_right_sets(
    tree: MetricTree, edge: OrientedEdge
) -> Tuple[FrozenSet[VertexId], FrozenSet[VertexId], FrozenSet[VertexId], FrozenSet[VertexId]]:
    """Partition of the vertex set induced by deleting ``edge``.

    Returns ``(L, R, L_strict, R_strict)``: the left side contains the left
    endpoint and everything below it, the right side the rest; the strict
    variants drop the respective endpoint.
    """
    if not tree.edge_position(edge):
        raise UnknownEdge(f"{edge!r} is not an oriented edge of the tree")
    left = tree.subtree_vertices(edge.left)
    right = frozenset(tree.vertices) - left
    return left, right, left - {edge.left}, right - {edge.right}
