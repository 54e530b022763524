"""Independent cross-checks for the closed-form gap results.

No minimum here comes from the closed form or the generic weighting
construction, and nothing here computes either: ``kkt_check_generic``
takes the exact partial derivatives at the witness it is handed.  Each
other check minimizes a quadratic in the signed load u (the a-team weights, and
minus the b-team weights) over the product of two probability simplexes.
A face of that product is a pair of supports, one per team; its stationary
point, with both team sums held at one, solves one KKT system, and
``_face_solve`` solves a stack of faces, rows of ``_face_table``, with a
single ``np.linalg.solve``.

- ``minimize_gap_over_loads`` solves one face, the full one: every point
  of the simplex, in its own team.  On a tree host that stationary point
  is the electrical flow described below, and two facts make it the
  minimum over the closed simplex product.  By the maximum principle every
  point's load is at least zero, so it is feasible; by Rayleigh
  monotonicity no smaller face, which leaves some points free, does
  better.
- ``brute_force_gamma`` and ``gamma_p_estimate`` take every labeled face,
  the rows of ``_face_table``.  The minimum over a polytope is the
  stationary point of the face whose relative interior holds it, so the
  least value over the feasible face solutions is exact, convex or not.
  Singular faces can be skipped: a minimum on one is also reached on a
  smaller face.  ``gamma_p_estimate`` solves the faces of -D^p/2 with
  ``_face_solve``.

On a tree the gap is the edge form sum_e w_e * x_e^2, with x_e the signed
load below edge e, and it is strictly convex on every face (trees have
strict 1-negative type).  The face systems of ``minimize_gap_over_loads``
carry the sqrt(w)-scaled edge map F itself, never F'F, whose entries add
light edges to heavy ones and can round them away, and its value is the
edge form at the clipped and renormalized solution: taken at a feasible
point, so a true upper bound on the minimum, and never negative.
``brute_force_gamma`` eliminates the same systems along the tree instead
(``_tree_faces``): a face's stationary point is the flow that conductances
1 / w_e carry from the a-team, held at potential 1, to the b-team, held
at 0, so a few O(n) array passes solve every face at once.  Its value is
sum_e w_e * i_e^2 / I^2 over the edge currents i_e and the total current
I.  Since I is at most sum_e |i_e|, Cauchy-Schwarz keeps that value at or
above (sum_e 1 / w_e)^-1 whatever rounding does to the currents, and on
the winning face, which holds every vertex, each current is exactly
+-1 / w_e.  The partials of the edge form are edge sums too, which is
what ``kkt_check_generic`` reads.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from ._lazy import np
from .errors import TooFewPoints, TooFewVertices, TooLarge
# gamma_T is unused here, but perfbench/tracing.py wraps this binding (ROADMAP item 2).
from .generic import GapReport, gamma_T  # noqa: F401
from .metric import FiniteMetric, power_matrix
# Unused here, but perfbench/tracing.py wraps this binding (ROADMAP item 2).
from .metric import metric_from_tree  # noqa: F401
# extended_gap is unused here, but perfbench/tracing.py counts calls through it.
from .simplex import Simplex, extended_gap  # noqa: F401
from .tree import MetricTree, VertexId

__all__ = [
    "MinimizationResult",
    "BruteForceResult",
    "KktReport",
    "minimize_gap_over_loads",
    "brute_force_gamma",
    "gamma_p_estimate",
    "kkt_check_generic",
]

FACE_BATCH = 1024
BRUTE_FORCE_CAP = 9
GAMMA_P_CAP = 8
STATIONARITY_RTOL = 1e-5
ORACLE_RTOL = 1e-7


class MinimizationResult(NamedTuple):
    """Outcome of the full-face solve.

    ``argmin_m`` / ``argmin_n`` live in the closed simplex product, so
    entries may be exactly zero (unlike a strict load vector).
    ``iterations`` counts face solves and is always 1; ``converged`` says
    that the face system was nonsingular, so its solution is finite.
    """

    value: float
    argmin_m: np.ndarray
    argmin_n: np.ndarray
    iterations: int
    converged: bool


class BruteForceResult(NamedTuple):
    value: float
    a_team: Tuple[VertexId, ...]
    b_team: Tuple[VertexId, ...]
    argmin_m: np.ndarray
    argmin_n: np.ndarray


class KktReport(NamedTuple):
    """The witness's partial derivatives: their mean and spread per team."""

    lambda_a: float
    lambda_b: float
    spread_a: float
    spread_b: float
    gamma: float
    consistent: bool


def _face_solve(
    factor: np.ndarray, quadratic: Optional[np.ndarray], signs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stationary points of |Fu|^2 + u'Hu on a stack of ``_face_table`` rows.

    Each row of ``signs`` (r, n) solves, in the residual -Fz, the unsigned
    loads z and the team multipliers, the augmented system
    [[I, F_s, 0], [F_s', -H_s, C'], [0, C, 0]], with F and H times the signs
    and C summing each team.  That zeroes the column of a point off the
    face, whose row is then z_j = 0.  Returns z (r, n) and which rows are
    feasible (z >= 0).  A singular system gives a row of NaN, which is
    never feasible.
    """
    r, n = signs.shape
    e = factor.shape[0]
    block = factor * signs[:, None, :]
    kkt = np.zeros((r, e + n + 2, e + n + 2))
    kkt[:, :e, :e] = np.eye(e)
    kkt[:, :e, e : e + n] = block
    kkt[:, e : e + n, :e] = block.transpose(0, 2, 1)
    points = np.arange(e, e + n)
    kkt[:, points, points] = signs == 0
    if quadratic is not None:
        kkt[:, e : e + n, e : e + n] -= quadratic * signs[:, :, None] * signs[:, None, :]
    kkt[:, e : e + n, e + n] = kkt[:, e + n, e : e + n] = signs > 0
    kkt[:, e : e + n, e + n + 1] = kkt[:, e + n + 1, e : e + n] = signs < 0
    rhs = np.zeros((r, e + n + 2, 1))
    rhs[:, e + n :] = 1.0
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        solution = np.full(rhs.shape, np.nan)
        for i in range(r):
            try:
                solution[i] = np.linalg.solve(kkt[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    z = solution[:, e : e + n, 0]
    return z, np.all(z >= 0.0, axis=1)


def _renormalized(z: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Clip the loads at zero and scale each team back to sum one."""
    z = np.maximum(z, 0.0)
    a_team = signs > 0
    a_sum = np.where(a_team, z, 0.0).sum(axis=-1, keepdims=True)
    b_sum = np.where(a_team, 0.0, z).sum(axis=-1, keepdims=True)
    return z / np.where(a_team, a_sum, b_sum)


def _edge_form(
    tree: MetricTree, positions: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge map, edge weights and weighted edge map of some points.

    ``below[e, j]`` is 1 when point j (at preorder position ``positions[j]``)
    lies under the edge above position e + 1, so ``below @ u`` is the signed
    load below each edge.  The factor scales row e by sqrt(w_e / w_mid), with
    w_mid the geometric mean of the lightest and heaviest weight, so that
    |factor @ u|^2 is the gap over w_mid.  Against the identity block of the
    face system this keeps light edges under heavy ones accurate in any
    unit of length (scaling by the heaviest weight does not), and no ratio
    of two finite weights overflows.
    """
    pos = np.asarray(positions)[None, :]
    starts = np.arange(1, len(tree))[:, None]
    ends = np.asarray(tree.subtree_end[1:])[:, None]
    below = ((pos >= starts) & (pos < ends)).astype(float)
    weight = np.asarray(tree.up_weight[1:])
    return below, weight, np.sqrt(_middle_units(weight)[0])[:, None] * below


def _middle_units(weight: Sequence[float]) -> Tuple[np.ndarray, float]:
    """Edge weights over w_mid, the geometric mean of the lightest and the
    heaviest, and w_mid itself."""
    weight = np.asarray(weight)
    middle = float(np.sqrt(weight.min()) * np.sqrt(weight.max()))
    return weight / middle, middle


def _edge_values(u: np.ndarray, below: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum_e w_e * x_e^2 for each signed load (row) of u."""
    return ((u @ below.T) ** 2) @ weight


def minimize_gap_over_loads(simplex: Simplex) -> MinimizationResult:
    """Minimize the extended gap over the closed simplex product.

    One ``_face_solve`` on the full face: every point, with its team's
    sign.  Its stationary point holds the a-team at potential 1 and the
    b-team at 0, so by the maximum principle no load is negative, and by
    Rayleigh monotonicity no smaller face has a lower gap; the solution is
    the minimum.  The loads are clipped at zero and renormalized, and the
    value is the edge form there.
    """
    simplex.require_tree_host()
    q, t = simplex.q, simplex.t
    positions = np.concatenate([simplex.a_positions, simplex.b_positions])
    below, weight, factor = _edge_form(simplex.subtree, positions)
    signs = np.concatenate([np.ones(q), -np.ones(t)])
    z, _feasible = _face_solve(factor, None, signs[None, :])
    x = _renormalized(z[0], signs)
    return MinimizationResult(
        value=float(_edge_values(signs * x, below, weight)),
        argmin_m=x[:q],
        argmin_n=x[q:],
        iterations=1,
        converged=bool(np.isfinite(z).all()),
    )


@functools.lru_cache(maxsize=None)
def _face_table(n: int) -> np.ndarray:
    """Every labeled face of n points, both teams nonempty, up to a team swap.

    One row per face and one column per point: +1 on the a-team, -1 on the
    b-team, 0 off the face, as ``_face_solve`` takes them (``_tree_faces``
    takes them as columns).  Putting the first point of each support in the
    a-team counts every face once: (3^n - 2^(n+1) + 1) / 2 rows, ordered by
    face size.  Built once per n, and read-only.
    """
    codes = np.indices((3,) * n, dtype=np.int8).reshape(n, -1).T  # 0 out, 1 a, 2 b
    first = codes[np.arange(len(codes)), np.argmax(codes > 0, axis=1)]
    codes = codes[(first == 1) & (codes == 2).any(axis=1)]
    table = np.where(codes == 2, -1, codes).astype(np.int8)
    table = table[np.argsort((codes > 0).sum(axis=1), kind="stable")]
    table.setflags(write=False)
    return table


def _least_face(
    factor: np.ndarray,
    quadratic: Optional[np.ndarray],
    values_at: Callable[[np.ndarray], np.ndarray],
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Least value over the feasible stationary points of every labeled face.

    ``FACE_BATCH`` rows of ``_face_table`` at a time, which bounds the memory
    of one stacked solve.  ``values_at`` maps signed loads (rows over all
    points) to values.  Returns the value and the winning row and loads.
    """
    table = _face_table(factor.shape[1])
    best = (np.inf, None, None)
    for start in range(0, len(table), FACE_BATCH):
        signs = table[start : start + FACE_BATCH]
        z, feasible = _face_solve(factor, quadratic, signs)
        if not feasible.any():
            continue
        signs = signs[feasible]
        z = _renormalized(z[feasible], signs)
        values = values_at(signs * z)
        row = int(np.argmin(values))
        if values[row] < best[0]:
            best = (float(values[row]), signs[row], z[row])
    return best


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

    Three n x r arrays serve every pass, since fresh ones freed together at
    the heap top go back to the system and fault in again on the next call:
    each potential overwrites the pull it reads last, the drops the subtree
    conductances, and the signed loads the potentials.
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
    potential = pull
    # Conductances that round to zero or overflow leave NaN or infinite gaps,
    # and those faces never win.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        potential[0] = np.where(clamped[0], high[0], pull[0] / below[0])
        for i in range(1, n):
            c = conductance[i]
            free = (c * potential[parent[i]] + pull[i]) / (c + below[i])
            potential[i] = np.where(clamped[i], high[i], free)
        drop = np.take(potential, parent[1:], axis=0, out=below[1:])
        np.subtract(potential[1:], drop, out=drop)
        # outflow[j] = current up from j minus the currents up into j.
        incidence = np.zeros((n, n - 1))
        incidence[np.arange(1, n), np.arange(n - 1)] = conductance[1:]
        incidence[parent[1:], np.arange(n - 1)] = -conductance[1:]
        outflow = incidence @ drop
        total = np.einsum("ir,ir->r", high, outflow)
        gaps = np.einsum("e,er,er->r", conductance[1:], drop, drop) / total / total
        loads = np.multiply(signs, outflow, out=potential)
    feasible = np.all(loads >= 0.0, axis=0) & (gaps >= 0.0)
    return np.where(feasible, gaps, np.inf), outflow


def brute_force_gamma(tree: MetricTree) -> BruteForceResult:
    """Minimal gap over every labeling of every vertex subset of size >= 2.

    Every labeled subset is a face (A, B) of the vertices.  Each face's
    stationary point comes from one elimination along the preorder arrays
    (``_tree_faces``), ``FACE_BATCH`` faces at a time, and the least gap
    over the feasible faces is exact.  The teams reported are the winning
    face.  Exponential in the vertex count, hence ``BRUTE_FORCE_CAP``.
    """
    n = len(tree.vertices)
    if n < 2:
        raise TooFewVertices("the search needs at least two vertices")
    if n > BRUTE_FORCE_CAP:
        raise TooLarge(f"{n} vertices exceeds the cap of {BRUTE_FORCE_CAP}")
    labels = tree.vertices
    positions = [tree.position[v] for v in labels]
    table = np.ascontiguousarray(_face_table(n)[:, np.argsort(positions)].T)
    parent = np.asarray(tree.parent_position)
    weight, middle = _middle_units(tree.up_weight[1:])
    conductance = np.concatenate([[0.0], 1.0 / weight])
    best = (np.inf, None, None)
    for start in range(0, table.shape[1], FACE_BATCH):
        signs = table[:, start : start + FACE_BATCH]
        gaps, outflow = _tree_faces(parent, conductance, signs)
        row = int(np.argmin(gaps))
        if gaps[row] < best[0]:
            best = (float(gaps[row]), signs[:, row], outflow[:, row])
    value, signs, outflow = best
    signs, outflow = signs[positions], outflow[positions]
    face = signs != 0
    z = _renormalized(signs[face] * outflow[face], signs[face])
    a_team = signs[face] > 0
    return BruteForceResult(
        value=value * middle,
        a_team=tuple(v for v, s in zip(labels, signs) if s > 0),
        b_team=tuple(v for v, s in zip(labels, signs) if s < 0),
        argmin_m=z[a_team],
        argmin_n=z[~a_team],
    )


def gamma_p_estimate(metric: FiniteMetric, p: float) -> float:
    """Minimal gap of a finite metric at exponent p, over every labeling.

    The same faces as :func:`brute_force_gamma`, on the p-gap -u'(D^p)u / 2,
    whose least feasible face solution is the exact minimum, convex or not.
    Its sign means something only beyond rounding, about 1e-16 * max d^p: a
    minimum of 0, as on the unit square at p = 2, can come out below 0.
    """
    n = len(metric)
    if n < 2:
        raise TooFewPoints("the estimate needs at least two points")
    if n > GAMMA_P_CAP:
        raise TooLarge(f"{n} points exceeds the cap of {GAMMA_P_CAP}")
    mp = power_matrix(metric.matrix, p)
    return _least_face(
        np.zeros((0, n)), -mp / mp.max(), lambda u: -0.5 * np.einsum("ij,ij->i", u @ mp, u)
    )[0]


def kkt_check_generic(tree: MetricTree, report: GapReport) -> KktReport:
    """Check the first-order conditions of ``report``'s witness with exact partials.

    At the gap-attaining weighting all partial derivatives of the extended
    gap with respect to the a-team weights share one value, those for the
    b-team share another, and the two values average to the gap itself.
    With x_e the signed load below edge e, the partial in an a-team weight
    at v is 2 * (sum of w_e * x_e over the edges above v) - sum_e w_e * x_e,
    and a b-team partial is the negative of that: O(n) in all.  The spreads
    and the average are compared with ``STATIONARITY_RTOL`` relative to the
    gap, so the check does not depend on the unit of length.
    """
    moments = np.asarray(tree.up_weight) * tree.subtree_sums(report.signed)
    partials = 2.0 * np.asarray(tree.path_sums(moments)) - moments.sum()
    a_team = np.asarray(report.signed) > 0.0
    partials_a = partials[a_team]
    partials_b = -partials[~a_team]
    lambda_a = float(np.mean(partials_a))
    lambda_b = float(np.mean(partials_b))
    spread_a = float(np.max(np.abs(partials_a - lambda_a)))
    spread_b = float(np.max(np.abs(partials_b - lambda_b)))
    gamma, tol = report.gamma, STATIONARITY_RTOL * report.gamma
    mean = (lambda_a + lambda_b) / 2.0
    consistent = spread_a <= tol and spread_b <= tol and abs(mean - gamma) <= tol
    return KktReport(lambda_a, lambda_b, spread_a, spread_b, gamma, consistent)
