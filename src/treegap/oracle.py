"""Independent cross-checks for the closed-form gap results.

Nothing in this module uses the closed form or the generic weighting
construction.  Gaps are minimized numerically: projected-gradient descent
with momentum (restarted on any objective increase) over the product of two
probability simplexes, with the exact sort-based projection and step 1/L.
Every iterate is feasible, so every recorded value is a true upper bound on
the labeling's minimal gap; the reported value per row is the best seen.

Sign patterns let all labelings share a single quadratic: writing
u = sign * omega turns every labeled objective into the same function of u,
so whole batches of labelings run as rows of one array.  For the brute
force the quadratic is the distance matrix itself (the eta form of the
gap).  Only full sign patterns are needed, one team for every point: a
labeling of a smaller subset has a feasible region that is a face of the
closed simplex product of any full pattern extending it, with the same
objective there, so the minimum over the 2^(n-1) - 1 full patterns is the
minimum over every labeled subset.  A rank-one ridge along the all-ones
direction makes that matrix positive semidefinite without changing values
on the feasible set, where team sums cancel exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import TooFewPoints, TooFewVertices, TooLarge
from .generic import gamma_T
from .metric import FiniteMetric, metric_from_tree, power_matrix
from .simplex import LoadVector, Simplex, extended_gap
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

GRAD_TOL = 1e-11
MAX_ITERATIONS = 10**6
BRUTE_FORCE_TOL = 1e-10
BRUTE_FORCE_ITERATIONS = 30_000


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of one projected-gradient run.

    ``argmin_m`` / ``argmin_n`` live in the closed simplex product, so
    entries may be exactly zero (unlike a strict load vector).
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
    """Finite-difference check of the stationarity conditions at the witness."""

    lambda_a: float
    lambda_b: float
    spread_a: float
    spread_b: float
    gamma: float
    consistent: bool


def _project_rows(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Project each row's masked coordinates onto the probability simplex.

    Off-mask coordinates come back as zero.  Sort-based exact projection,
    O(k log k) per row, vectorized across rows; masked-out entries are sent
    to -inf so they sort to the tail and never enter the threshold.
    """
    r, k = values.shape
    guarded = np.where(mask, values, -np.inf)
    descending = -np.sort(-guarded, axis=1)
    finite = np.isfinite(descending)
    csum = np.cumsum(np.where(finite, descending, 0.0), axis=1)
    counts = np.arange(1, k + 1)
    thresholds = (csum - 1.0) / counts
    admissible = np.where(finite, thresholds < descending, False)
    last = k - 1 - np.argmax(admissible[:, ::-1], axis=1)
    theta = thresholds[np.arange(r), last]
    out = np.clip(values - theta[:, None], 0.0, None)
    out[~mask] = 0.0
    return out


def _project_product(omega: np.ndarray, signs: np.ndarray) -> np.ndarray:
    a_mask = signs > 0
    b_mask = signs < 0
    return np.where(a_mask, _project_rows(omega, a_mask), _project_rows(omega, b_mask))


def _row_values(quadratic: np.ndarray, signs: np.ndarray, omega: np.ndarray) -> np.ndarray:
    u = signs * omega
    return 0.5 * np.einsum("ij,ij->i", u @ quadratic, u)


def _descend(
    quadratic: np.ndarray,
    signs: np.ndarray,
    omega: np.ndarray,
    lipschitz: float,
    tol: float,
    max_iter: int,
) -> Tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Minimize 0.5 * (s*w)' Q (s*w) per row over the simplex product.

    Momentum is reset per row whenever its objective rises, and the best
    feasible iterate per row is what is returned, so values never regress.
    A row counts as converged once its gradient-mapping norm (lipschitz
    times the step length from the extrapolated point) drops to tol.
    """
    rows = omega.shape[0]
    step = 1.0 / lipschitz
    # Converged rows leave the batch; `alive` maps batch rows back to
    # original positions so stragglers iterate on ever-smaller arrays.
    alive = np.arange(rows)
    live_signs = signs
    x = omega
    y = omega
    momentum = np.ones(rows)
    previous = _row_values(quadratic, signs, x)
    best_values = previous.copy()
    best_x = x.copy()
    converged = np.zeros(rows, dtype=bool)
    iterations = 0
    while iterations < max_iter and alive.size:
        iterations += 1
        grad = live_signs * ((live_signs * y) @ quadratic)
        advanced = _project_product(y - step * grad, live_signs)
        moved = lipschitz * np.sqrt(((advanced - y) ** 2).sum(axis=1))
        values = _row_values(quadratic, live_signs, advanced)
        improved = values < best_values[alive]
        targets = alive[improved]
        best_values[targets] = values[improved]
        best_x[targets] = advanced[improved]
        done = moved <= tol
        if done.any():
            converged[alive[done]] = True
            keep = ~done
            alive = alive[keep]
            if not alive.size:
                break
            live_signs = live_signs[keep]
            advanced = advanced[keep]
            values = values[keep]
            x = x[keep]
            momentum = momentum[keep]
            previous = previous[keep]
        restart = values > previous
        bumped = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = np.where(restart, 0.0, (momentum - 1.0) / bumped)
        momentum = np.where(restart, 1.0, bumped)
        y = advanced + beta[:, None] * (advanced - x)
        x = advanced
        previous = values
    return best_x, best_values, iterations, converged


def _curvature_bound(quadratic: np.ndarray) -> float:
    eigenvalues = np.linalg.eigvalsh((quadratic + quadratic.T) / 2.0)
    return max(float(np.max(np.abs(eigenvalues))), 1e-12)


def minimize_gap_over_loads(
    simplex: Simplex,
    tol: float = GRAD_TOL,
    max_iter: int = MAX_ITERATIONS,
    start: Optional[LoadVector] = None,
) -> MinimizationResult:
    """Minimize the extended gap over the closed simplex product.

    Projected-gradient descent from the uniform load (or ``start``), step
    1/L with L the largest Hessian eigenvalue, until the projected-gradient
    norm drops to ``tol`` or ``max_iter`` iterations pass.
    """
    simplex.require_tree_host()
    q, t = simplex.q, simplex.t
    # Entry (i, j) weighs the minimal-subtree edges with points i and j on
    # one side: all of them (W) but the edges of their geodesic.
    quadratic = simplex.subtree.total_weight() - simplex.point_distances
    lipschitz = _curvature_bound(quadratic)
    signs = np.concatenate([np.ones(q), -np.ones(t)])[None, :]
    if start is None:
        omega0 = np.concatenate([np.full(q, 1.0 / q), np.full(t, 1.0 / t)])
    else:
        omega0 = np.concatenate(
            [np.asarray(start.m, dtype=float), np.asarray(start.n, dtype=float)]
        )
    omega0 = _project_product(omega0[None, :], signs)
    omega, values, iterations, converged = _descend(
        quadratic, signs, omega0, lipschitz, tol, max_iter
    )
    return MinimizationResult(
        value=float(values[0]),
        argmin_m=omega[0, :q].copy(),
        argmin_n=omega[0, q:].copy(),
        iterations=iterations,
        converged=bool(converged[0]),
    )


def _sign_rows(k: int) -> np.ndarray:
    """All bipartitions of k positions into two nonempty teams, up to swap.

    Position 0 is pinned to the a-team, so rows are the 2^(k-1) - 1 masks
    of the remaining positions with at least one b-team member.
    """
    masks = np.arange(1, 2 ** (k - 1))
    bits = (masks[:, None] >> np.arange(k - 1)) & 1
    return np.hstack([np.ones((masks.size, 1)), 1.0 - 2.0 * bits])


def _ridged_distance_quadratic(dist: np.ndarray) -> Tuple[np.ndarray, float]:
    """-dist plus a ridge along the all-ones direction, made PSD.

    The ridge term c*(sum u)^2 vanishes for every feasible signed load
    (team sums are both 1), so values on the feasible set are unchanged.
    """
    base = -dist
    scale = float(np.abs(dist).max()) or 1.0
    ridge = scale
    ones = np.ones_like(dist)
    for _ in range(64):
        candidate = base + ridge * ones
        smallest = float(np.linalg.eigvalsh((candidate + candidate.T) / 2.0)[0])
        if smallest >= -1e-9 * scale:
            return candidate, _curvature_bound(candidate)
        ridge *= 2.0
    return candidate, _curvature_bound(candidate)


def brute_force_gamma(
    tree: MetricTree,
    max_vertices: int = 9,
    tol: float = BRUTE_FORCE_TOL,
    max_iter: int = BRUTE_FORCE_ITERATIONS,
) -> BruteForceResult:
    """Minimal gap over every labeling of every vertex subset of size >= 2.

    Every full sign pattern is a row of one batched descent on the shared
    distance quadratic, which covers every smaller labeled subset as a face
    of some row's feasible region.  Each row's value is a true upper bound
    for its labeling (iterates stay feasible), and the row whose feasible
    region holds the tree's overall minimum converges to it, so the reduced
    minimum is the tree's gap.  The teams reported are the strictly positive
    support of the winning row.  Exponential in the vertex count, hence the
    size cap.
    """
    n = len(tree.vertices)
    if n < 2:
        raise TooFewVertices("the search needs at least two vertices")
    if n > max_vertices:
        raise TooLarge(f"{n} vertices exceeds the cap of {max_vertices}")
    labels = tree.vertices
    dist = metric_from_tree(tree).matrix
    quadratic, lipschitz = _ridged_distance_quadratic(dist)
    signs = _sign_rows(n)
    omega0 = _normalize_teams(np.ones(signs.shape), signs)
    omega, values, _iters, _conv = _descend(
        quadratic, signs, omega0, lipschitz, tol, max_iter
    )
    row = int(np.argmin(values))
    a_mask = (signs[row] > 0) & (omega[row] > 0)
    b_mask = (signs[row] < 0) & (omega[row] > 0)
    return BruteForceResult(
        value=float(values[row]),
        a_team=tuple(v for v, keep in zip(labels, a_mask) if keep),
        b_team=tuple(v for v, keep in zip(labels, b_mask) if keep),
        argmin_m=omega[row, a_mask].copy(),
        argmin_n=omega[row, b_mask].copy(),
    )


def gamma_p_estimate(
    metric: FiniteMetric,
    p: float,
    grid_resolution: int = 3,
    restarts: int = 4,
    seed: int = 0,
    max_points: int = 8,
    tol: float = BRUTE_FORCE_TOL,
    max_iter: int = 5_000,
) -> float:
    """Upper estimate of the minimal gap of a finite metric at exponent p.

    For p beyond 1 the objective is no longer convex, so this is a
    multi-start heuristic: every full sign pattern is descended from the
    uniform load, from corner-biased loads (one per coordinate, weight
    1 - 1/grid_resolution on the corner), and from ``restarts`` seeded
    random loads.  The smallest value found is an upper bound on the true
    minimum; a negative estimate certifies that p-negative type fails.
    """
    n = len(metric)
    if n < 2:
        raise TooFewPoints("the estimate needs at least two points")
    if n > max_points:
        raise TooLarge(f"{n} points exceeds the cap of {max_points}")
    mp = power_matrix(metric.matrix, p)
    quadratic = -mp
    lipschitz = _curvature_bound(quadratic)
    signs = _sign_rows(n)
    rng = np.random.default_rng(seed)

    starts = [np.ones(signs.shape)]
    if grid_resolution >= 2:
        bias = 1.0 - 1.0 / grid_resolution
        for corner in range(n):
            raw = np.full(signs.shape, 1.0 - bias)
            raw[:, corner] = bias * n
            starts.append(raw)
    for _ in range(max(restarts, 0)):
        starts.append(rng.standard_exponential(signs.shape))

    all_signs = np.tile(signs, (len(starts), 1))
    omega0 = _normalize_teams(np.vstack(starts), all_signs)
    _omega, values, _iters, _conv = _descend(
        quadratic, all_signs, omega0, lipschitz, tol, max_iter
    )
    return float(values.min())


def _normalize_teams(raw: np.ndarray, signs: np.ndarray) -> np.ndarray:
    a_mask = signs > 0
    b_mask = signs < 0
    pos = np.where(a_mask, raw, 0.0).sum(axis=1, keepdims=True)
    neg = np.where(b_mask, raw, 0.0).sum(axis=1, keepdims=True)
    return np.where(a_mask, raw / pos, 0.0) + np.where(b_mask, raw / neg, 0.0)


def kkt_check_generic(
    tree: MetricTree, step: float = 1e-6, tol: float = 1e-5
) -> KktReport:
    """Check the witness's first-order conditions by central differences.

    At the gap-attaining weighting all partial derivatives of the extended
    gap with respect to the a-team weights share one value, those for the
    b-team share another, and the two values average to the gap itself.
    The spreads and that average are compared with ``tol`` relative to the
    gap, so the check does not depend on the unit of length.
    """
    report = gamma_T(tree)
    simplex, load = report.simplex, report.weights
    h = min(step, float(min(load.m.min(), load.n.min())) / 2.0)

    def value(m: np.ndarray, n: np.ndarray) -> float:
        return extended_gap(simplex, LoadVector(m, n))

    partials_a = []
    for j in range(simplex.q):
        up = load.m.copy()
        down = load.m.copy()
        up[j] += h
        down[j] -= h
        partials_a.append((value(up, load.n) - value(down, load.n)) / (2.0 * h))
    partials_b = []
    for j in range(simplex.t):
        up = load.n.copy()
        down = load.n.copy()
        up[j] += h
        down[j] -= h
        partials_b.append((value(load.m, up) - value(load.m, down)) / (2.0 * h))

    lambda_a = float(np.mean(partials_a))
    lambda_b = float(np.mean(partials_b))
    spread_a = float(np.max(np.abs(np.array(partials_a) - lambda_a)))
    spread_b = float(np.max(np.abs(np.array(partials_b) - lambda_b)))
    gamma = report.gamma
    consistent = (
        spread_a <= tol * gamma
        and spread_b <= tol * gamma
        and abs((lambda_a + lambda_b) / 2.0 - gamma) <= tol * gamma
    )
    return KktReport(
        lambda_a=lambda_a,
        lambda_b=lambda_b,
        spread_a=spread_a,
        spread_b=spread_b,
        gamma=gamma,
        consistent=consistent,
    )
