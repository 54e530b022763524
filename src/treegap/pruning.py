"""Edge contraction steps that reduce any loaded simplex to a generic one.

An edge of the minimal subtree can be pruned when it joins two same-team
vertices or has an endpoint carrying no team at all.  Contracting it (the
deeper endpoint melts into the shallower one, which keeps its label) lowers
the gap by exactly that edge's contribution and leaves every other edge's
partition sums untouched.  Iterating always terminates in a generically
labeled simplex.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from .errors import NotPrunable
from .simplex import (
    NormalizedLoadVector,
    Simplex,
    _team_loads,
    edge_contribution,
    gap_by_edges,
    make_simplex,
)
from .tree import OrientedEdge, VertexId, build_tree, label_key

__all__ = ["PruneStep", "prunable_edges", "prune", "prune_to_generic"]


class PruneStep(NamedTuple):
    contracted_edge: OrientedEdge
    gap_decrease: float
    merged_vertex: VertexId


def prunable_edges(simplex: Simplex) -> Tuple[OrientedEdge, ...]:
    """Minimal-subtree edges satisfying either pruning condition."""
    simplex.require_tree_host()
    sub = simplex.subtree
    out = []
    for e in sub.edges:
        px = simplex.parity(e.left)
        py = simplex.parity(e.right)
        if px is None or py is None or px == py:
            out.append(e)
    return tuple(out)


def prune(
    simplex: Simplex, load: NormalizedLoadVector, edge: OrientedEdge
) -> Tuple[Simplex, NormalizedLoadVector, PruneStep]:
    """Contract one prunable edge of the minimal subtree.

    The deeper endpoint x melts into the shallower endpoint y.  When both
    are on one team, x's load moves onto y; when x alone is on a team, y
    takes x's place in it; a teamless x simply drops out.  The new gap
    equals the old gap minus the contracted edge's contribution, which is
    verified here to 1e-10 relative.
    """
    simplex.require_tree_host()
    sub = simplex.subtree
    simplex.edge_position(edge)
    x, y = edge.left, edge.right
    px, py = simplex.parity(x), simplex.parity(y)
    if not (px is None or py is None or px == py):
        raise NotPrunable(
            f"({x!r}, {y!r}) joins opposite teams; it cannot be contracted"
        )

    old_gap = gap_by_edges(simplex, load)
    decrease = edge_contribution(simplex, load, edge)

    new_vertices = [v for v in sub.vertices if v != x]
    new_edges = []
    for e in sub.edges:
        if e == edge:
            continue
        left = y if e.left == x else e.left
        right = y if e.right == x else e.right
        new_edges.append((left, right, e.weight))
    root = sub.root if sub.root != x else None
    if root is not None and len(new_vertices) > 1:
        degree = sum(1 for l, r, _w in new_edges if root in (l, r))
        if degree != 1:
            root = None
    new_tree = build_tree(new_vertices, new_edges, root=root)

    teams = _team_loads(simplex, load)
    for team in teams:
        if x in team and y in team:
            team[y] += team.pop(x)
    a_load, b_load = ({y if v == x else v: w for v, w in team.items()} for team in teams)

    new_simplex = make_simplex(new_tree, list(a_load), list(b_load))
    new_load = NormalizedLoadVector(list(a_load.values()), list(b_load.values()))
    new_gap = gap_by_edges(new_simplex, new_load)
    if abs(new_gap - (old_gap - decrease)) > 1e-10 * old_gap:
        raise AssertionError(
            f"contraction changed the gap by {old_gap - new_gap!r}, "
            f"expected {decrease!r}"
        )
    step = PruneStep(contracted_edge=edge, gap_decrease=decrease, merged_vertex=y)
    return new_simplex, new_load, step


def prune_to_generic(
    simplex: Simplex, load: NormalizedLoadVector
) -> Tuple[Simplex, NormalizedLoadVector, Tuple[PruneStep, ...]]:
    """Contract prunable edges, deepest first, until none remain.

    The result is generically labeled; its gap is the starting gap minus
    the recorded decreases.
    """
    steps: List[PruneStep] = []
    current, weights = simplex, load
    while True:
        candidates = prunable_edges(current)
        if not candidates:
            break
        sub = current.subtree
        chosen = sorted(
            candidates,
            key=lambda e: (-sub.hop_depth(e.left), label_key(e.left), label_key(e.right)),
        )[0]
        current, weights, step = prune(current, weights, chosen)
        steps.append(step)
    return current, weights, tuple(steps)
