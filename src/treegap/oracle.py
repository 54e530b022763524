"""Independent cross-checks for the closed-form gap results.

No minimum here comes from the closed form or the generic weighting
construction; only ``kkt_check_generic`` calls ``gamma_T``, on purpose,
because it takes the exact partial derivatives at that witness.  Each
other check minimizes a quadratic in the signed load u (the a-team weights, and
minus the b-team weights) over the product of two probability simplexes.
A face of that product is a pair of supports, one per team; its stationary
point, with both team sums held at one, solves one KKT system, and
``_face_solve`` solves a stack of equal-size faces with a single
``np.linalg.solve``.

- ``minimize_gap_over_loads`` is a primal active-set method (Lawson and
  Hanson, *Solving Least Squares Problems*, 1974): one face per step,
  stepping back to the boundary and dropping a coordinate when the
  solution leaves the simplexes, adding the coordinate with the most
  negative multiplier otherwise.
- ``brute_force_gamma`` and ``gamma_p_estimate`` solve every labeled face.
  The minimum over a polytope is the stationary point of the face whose
  relative interior holds it, so the least value over the feasible face
  solutions is exact, convex or not.  Singular faces can be skipped: a
  minimum on one is also reached on a smaller face.

On a tree the gap is the edge form sum_e w_e * x_e^2, with x_e the signed
load below edge e, and it is strictly convex on every face (trees have
strict 1-negative type).  The face systems carry the sqrt(w)-scaled edge
map F itself, never F'F, whose entries add light edges to heavy ones and
can round them away.  Every reported tree value is the edge form at the
clipped and renormalized solution: taken at a feasible point, so a true
upper bound on the minimum, and never negative.  The partials of the
edge form are edge sums too, which is what ``kkt_check_generic`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import TooFewPoints, TooFewVertices, TooLarge
# perfbench/tracing.py also wraps this binding.
from .generic import gamma_T
from .metric import FiniteMetric, power_matrix
# Unused here, but perfbench/tracing.py wraps this binding (ROADMAP item 5).
from .metric import metric_from_tree  # noqa: F401
# extended_gap is unused here, but perfbench/tracing.py counts calls through it.
from .simplex import LoadVector, Simplex, extended_gap  # noqa: F401
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

KKT_TOL = 1e-11
MAX_STEPS = 10_000
FACE_BATCH = 128
BRUTE_FORCE_CAP = 9
GAMMA_P_CAP = 8
STATIONARITY_RTOL = 1e-5
ORACLE_RTOL = 1e-7


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of one active-set run.

    ``argmin_m`` / ``argmin_n`` live in the closed simplex product, so
    entries may be exactly zero (unlike a strict load vector).
    ``iterations`` counts face solves, and ``converged`` says that the
    KKT conditions hold at the argmin.
    """

    value: float
    argmin_m: np.ndarray
    argmin_n: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True)
class BruteForceResult:
    value: float
    a_team: Tuple[VertexId, ...]
    b_team: Tuple[VertexId, ...]
    argmin_m: np.ndarray
    argmin_n: np.ndarray


@dataclass(frozen=True)
class KktReport:
    """The witness's partial derivatives: their mean and spread per team."""

    lambda_a: float
    lambda_b: float
    spread_a: float
    spread_b: float
    gamma: float
    consistent: bool


def _face_solve(
    factor: np.ndarray,
    quadratic: Optional[np.ndarray],
    faces: np.ndarray,
    signs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stationary points of |Fu|^2 + u'Hu on a stack of faces of one size k.

    ``faces`` (r, k) indexes the points of each face and ``signs`` is +1 on
    the a-team, -1 on the b-team.  Each face solves, in the residual -Fz,
    the unsigned loads z and the team multipliers, the augmented system
    [[I, F_z, 0], [F_z', -H_z, C'], [0, C, 0]], where C sums each team.
    Returns z (r, k), the multipliers (r, 2), which on the face equal half
    the gradient, and which rows are feasible (z >= 0).  A singular system
    gives a row of NaN, which is never feasible.
    """
    r, k = faces.shape
    e = factor.shape[0]
    a_team = (signs > 0).astype(float)
    block = factor[:, faces].transpose(1, 0, 2) * signs[:, None, :]
    kkt = np.zeros((r, e + k + 2, e + k + 2))
    kkt[:, :e, :e] = np.eye(e)
    kkt[:, :e, e : e + k] = block
    kkt[:, e : e + k, :e] = block.transpose(0, 2, 1)
    if quadratic is not None:
        square = quadratic[faces[:, :, None], faces[:, None, :]]
        kkt[:, e : e + k, e : e + k] = -square * signs[:, :, None] * signs[:, None, :]
    kkt[:, e : e + k, e + k] = kkt[:, e + k, e : e + k] = a_team
    kkt[:, e : e + k, e + k + 1] = kkt[:, e + k + 1, e : e + k] = 1.0 - a_team
    rhs = np.zeros((r, e + k + 2, 1))
    rhs[:, e + k :] = 1.0
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        solution = np.full(rhs.shape, np.nan)
        for i in range(r):
            try:
                solution[i] = np.linalg.solve(kkt[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    z, multipliers = solution[:, e : e + k, 0], solution[:, e + k :, 0]
    return z, multipliers, np.all(z >= 0.0, axis=1)


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
    middle = np.sqrt(weight.min()) * np.sqrt(weight.max())
    return below, weight, np.sqrt(weight / middle)[:, None] * below


def _edge_values(u: np.ndarray, below: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum_e w_e * x_e^2 for each signed load (row) of u."""
    return ((u @ below.T) ** 2) @ weight


def minimize_gap_over_loads(
    simplex: Simplex, start: Optional[LoadVector] = None
) -> MinimizationResult:
    """Minimize the extended gap over the closed simplex product.

    Primal active set from the uniform load (or ``start``) and its support,
    at most ``MAX_STEPS`` face solves.  It stops when no coordinate off the
    face has a multiplier below ``-KKT_TOL`` times the value there, or when the
    coordinate added last comes back nonpositive, which in exact arithmetic
    cannot happen, so its multiplier was rounding noise.
    """
    simplex.require_tree_host()
    q, t = simplex.q, simplex.t
    positions = np.concatenate([simplex.a_positions, simplex.b_positions])
    below, weight, factor = _edge_form(simplex.subtree, positions)
    signs = np.concatenate([np.ones(q), -np.ones(t)])
    if start is None:
        x = np.concatenate([np.full(q, 1.0 / q), np.full(t, 1.0 / t)])
    else:
        x = _renormalized(np.concatenate([start.m, start.n]), signs)
    support = x > 0
    added = -1
    converged = False
    iterations = 0
    while iterations < MAX_STEPS:
        iterations += 1
        face = np.flatnonzero(support)
        y, multipliers, feasible = _face_solve(factor, None, face[None, :], signs[None, face])
        y, multipliers = y[0], multipliers[0]
        if not np.isfinite(y).all():
            break
        if added >= 0 and y[np.searchsorted(face, added)] <= 0.0:
            converged = True
            break
        if not feasible[0]:
            current = x[face]
            leaving = np.flatnonzero(y < 0.0)
            ratios = current[leaving] / (current[leaving] - y[leaving])
            x[face] = current + ratios.min() * (y - current)
            x[face[leaving[np.argmin(ratios)]]] = 0.0
            x = np.maximum(x, 0.0)
            support = x > 0
            added = -1
            continue
        x = np.zeros_like(x)
        x[face] = y
        gradient = signs * (factor.T @ (factor @ (signs * x)))
        slack = gradient - np.where(signs > 0, multipliers[0], multipliers[1])
        slack[face] = np.inf
        added = int(np.argmin(slack))
        if not slack[added] < -KKT_TOL * float(x @ gradient):
            converged = True
            break
        support[added] = True
    x = _renormalized(x, signs)
    return MinimizationResult(
        value=float(_edge_values(signs * x, below, weight)),
        argmin_m=x[:q],
        argmin_n=x[q:],
        iterations=iterations,
        converged=converged,
    )


def _faces(n: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every labeled face of n points, both teams nonempty, up to a team swap.

    Yields (faces, signs) stacks of one face size k = 2..n, as
    ``_face_solve`` takes them, at most ``FACE_BATCH`` faces each, which
    bounds the memory of one stacked solve.  Putting the first point of each
    support in the a-team counts every face once: (3^n - 2^(n+1) + 1) / 2.
    """
    codes = np.indices((3,) * n, dtype=np.int8).reshape(n, -1).T  # 0 out, 1 a, 2 b
    first = codes[np.arange(len(codes)), np.argmax(codes > 0, axis=1)]
    codes = codes[(first == 1) & (codes == 2).any(axis=1)]
    size = (codes > 0).sum(axis=1)
    for k in range(2, n + 1):
        block = codes[size == k]
        faces = np.nonzero(block)[1].reshape(-1, k)
        signs = (3.0 - 2.0 * block[block > 0]).reshape(-1, k)
        for i in range(0, len(faces), FACE_BATCH):
            yield faces[i : i + FACE_BATCH], signs[i : i + FACE_BATCH]


def _least_face(
    factor: np.ndarray,
    quadratic: Optional[np.ndarray],
    values_at: Callable[[np.ndarray], np.ndarray],
) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Least value over the feasible stationary points of every labeled face.

    ``values_at`` maps signed loads (rows over all points) to values.
    Returns the value and the winning face's points, signs and loads.
    """
    n = factor.shape[1]
    best = (np.inf, None, None, None)
    for faces, signs in _faces(n):
        z, _multipliers, feasible = _face_solve(factor, quadratic, faces, signs)
        if not feasible.any():
            continue
        faces, signs = faces[feasible], signs[feasible]
        z = _renormalized(z[feasible], signs)
        u = np.zeros((len(faces), n))
        np.put_along_axis(u, faces, signs * z, axis=1)
        values = values_at(u)
        row = int(np.argmin(values))
        if values[row] < best[0]:
            best = (float(values[row]), faces[row], signs[row], z[row])
    return best


def brute_force_gamma(tree: MetricTree) -> BruteForceResult:
    """Minimal gap over every labeling of every vertex subset of size >= 2.

    Every labeled subset is a face (A, B) of the vertices; each face's
    stationary point is one row of a stacked KKT solve, and the least gap
    over the feasible rows is exact.  The teams reported are the winning
    face.  Exponential in the vertex count, hence ``BRUTE_FORCE_CAP``.
    """
    n = len(tree.vertices)
    if n < 2:
        raise TooFewVertices("the search needs at least two vertices")
    if n > BRUTE_FORCE_CAP:
        raise TooLarge(f"{n} vertices exceeds the cap of {BRUTE_FORCE_CAP}")
    labels = tree.vertices
    below, weight, factor = _edge_form(tree, [tree.position[v] for v in labels])
    value, face, signs, z = _least_face(
        factor, None, lambda u: _edge_values(u, below, weight)
    )
    a_team = signs > 0
    return BruteForceResult(
        value=value,
        a_team=tuple(labels[i] for i in face[a_team]),
        b_team=tuple(labels[i] for i in face[~a_team]),
        argmin_m=z[a_team],
        argmin_n=z[~a_team],
    )


def gamma_p_estimate(metric: FiniteMetric, p: float) -> float:
    """Minimal gap of a finite metric at exponent p, over every labeling.

    The same face enumeration as :func:`brute_force_gamma`, on the p-gap
    -u'(D^p)u / 2.  For p beyond 1 that quadratic need not be convex, but the
    least value over the feasible face solutions is still the exact minimum.
    A negative value certifies that p-negative type fails.
    """
    n = len(metric)
    if n < 2:
        raise TooFewPoints("the estimate needs at least two points")
    if n > GAMMA_P_CAP:
        raise TooLarge(f"{n} points exceeds the cap of {GAMMA_P_CAP}")
    mp = power_matrix(metric.matrix, p)
    value, _face, _signs, _z = _least_face(
        np.zeros((0, n)), -mp / mp.max(), lambda u: -0.5 * np.einsum("ij,ij->i", u @ mp, u)
    )
    return value


def kkt_check_generic(tree: MetricTree) -> KktReport:
    """Check the witness's first-order conditions with exact partials.

    At the gap-attaining weighting all partial derivatives of the extended
    gap with respect to the a-team weights share one value, those for the
    b-team share another, and the two values average to the gap itself.
    With x_e the signed load below edge e, the partial in an a-team weight
    at v is 2 * (sum of w_e * x_e over the edges above v) - sum_e w_e * x_e,
    and a b-team partial is the negative of that: O(n) in all.  The spreads
    and the average are compared with ``STATIONARITY_RTOL`` relative to the
    gap, so the check does not depend on the unit of length.
    """
    report = gamma_T(tree)
    moments = np.asarray(tree.up_weight) * tree.subtree_sums(report.signed)
    partials = 2.0 * tree.path_sums(moments) - moments.sum()
    a_team = report.signed > 0.0
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
