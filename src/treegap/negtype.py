"""Negative-type verdicts, maximal exponents, and interval bounds.

A finite metric space has p-negative type when the matrix of distances
raised to the p-th power is negative semidefinite on the hyperplane of
mean-zero vectors; strictness means negative definite there.  The verdict
comes from the largest restricted eigenvalue, computed without
eigenvectors; a verdict that is not strict gets its certificate from one
shifted linear solve.  The supremum of admissible exponents is located by
bisection on the sign of that eigenvalue against the band, each sign read
from whether one Cholesky factorization succeeds; for metric trees
explicit strictness intervals around p = 1 and closed-form star values
are available.
"""

from __future__ import annotations

import math
import random
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ._lazy import np
from .errors import (
    CapReached,
    DegenerateMetric,
    DuplicateVertex,
    InvalidExponent,
    NonZeroSum,
    TooFewLeaves,
    TooFewPoints,
    TooSmall,
    ZeroVector,
    check_finite,
)
from .generic import gamma_T, generic_delta
from .metric import FiniteMetric, power_matrix
from .simplex import signed_weights
from .tree import MetricTree, VertexId, build_tree

__all__ = [
    "NegTypeVerdict",
    "MaxPEstimate",
    "has_p_negative_type",
    "generalized_roundness_check",
    "max_negative_type",
    "zeta_lower_bound",
    "tree_maxp_lower_bound",
    "star_max_p",
    "build_star",
    "build_necklace",
    "verify_enhanced_inequality",
    "is_equality_witness",
]

EIG_TOL = 1e-9
P_STAR_TOL = 1e-6
BISECTION_CAP = 64.0
EQUALITY_RTOL = 1e-9
STAR_CENTER = "r"
STAR_LEAF_PREFIX = "l"


class NegTypeVerdict(NamedTuple):
    """Outcome of the restricted-eigenvalue test at one exponent.

    ``status`` is one of ``strict`` (largest eigenvalue clearly negative),
    ``fails`` (clearly positive), ``non_strict`` (zero up to rounding noise,
    so the form holds without being strict), or ``marginal`` (inside the
    tolerance band but positive beyond rounding noise: too close to zero to
    call).  ``certificate`` is a mean-zero unit vector achieving
    ``lambda_max``, aligned with the metric's labels, with its
    largest-magnitude entry positive; None when strict.  When the top
    eigenvalue is repeated it is one unit vector of that eigenspace.
    """

    status: str
    lambda_max: float
    certificate: Optional[np.ndarray]


class MaxPEstimate(NamedTuple):
    """Bracketed p*, with the status and ``lambda_max`` of the verdict there."""

    p_star: float
    bracket_width: float
    status_at_p_star: str
    lambda_max_at_p_star: float


def _restricted(mp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A symmetric matrix's form on the mean-zero hyperplane, in O(n^2).

    The reflector H = I - v v^T maps the unit all-ones vector to e_1, so its
    columns 2..n are an orthonormal basis of the hyperplane and the form
    there is the trailing block of H mp H = mp - v q^T - q v^T, with
    q = mp v - (v^T mp v / 2) v.  Every entry of v but the first is the
    same c, so that block is mp[1:, 1:] - c (q_i + q_k).  Returns the block
    and v; a block vector y maps back to H (0, y).
    """
    n = mp.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    v[0] -= 1.0
    v *= math.sqrt(2.0) / np.linalg.norm(v)
    w = mp @ v
    q = w - (0.5 * float(v @ w)) * v
    block = q[1:, None] + q[None, 1:]
    block *= -v[1]
    block += mp[1:, 1:]
    return block, v


def _in_units(value: float, unit: float, p: float) -> float:
    """``value * unit**p``, overflowing to an infinity instead of raising."""
    if value == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(value * np.float64(unit) ** p)


def _certificate(block: np.ndarray, lam: float, v: np.ndarray) -> np.ndarray:
    """A mean-zero unit vector on which the form is ``lam``, the block's top eigenvalue.

    One step of inverse iteration: y solving (block - sigma I) y = x0 is
    x0's expansion in eigenvectors, each weighted by 1/(lambda_i - sigma).
    With sigma = lam + 4 m eps max|block| (m the block's order, eps the
    machine epsilon), at least 4 eps ||block||_2 and so several times
    eigvalsh's usual rounding error above ``lam``, the top eigenspace
    outweighs an eigenvalue g below it by about g / (sigma - lam).  The
    start x0 = (sin 1, ..., sin m) is fixed, so equal inputs give equal
    bytes, and no two of its entries are equal or opposite, so it is not
    orthogonal to a difference or sum of two block coordinates.  y maps
    back as H (0, y), scaled to unit norm with its largest-magnitude entry
    positive.  Overwrites ``block``.
    """
    m = block.shape[0]
    sigma = lam + 4.0 * m * np.finfo(float).eps * float(np.abs(block).max())
    block.flat[:: m + 1] -= sigma
    eta = np.concatenate(([0.0], np.linalg.solve(block, np.sin(np.arange(1.0, m + 1.0)))))
    eta -= float(v @ eta) * v
    eta -= eta.mean()
    eta /= np.linalg.norm(eta)
    if eta[np.argmax(np.abs(eta))] < 0.0:
        eta = -eta
    eta.setflags(write=False)
    return eta


def _band(lam: float, unit: float, p: float) -> Tuple[str, float]:
    """The status for top eigenvalue ``lam`` of the unit-free form, and ``lam * unit**p``."""
    reported = _in_units(lam, unit, p)
    if lam < -EIG_TOL:
        return "strict", reported
    if lam > EIG_TOL:
        return "fails", reported
    # Exact zero eigenvalues land within a few ulps of 0 after eigvalsh, far
    # below any sensible band, so they can be named without guessing.
    if lam <= 1e-12:
        # Rounding noise times a huge unit**p can overflow; it stands for 0.
        return "non_strict", reported if math.isfinite(reported) else 0.0
    return "marginal", reported


def has_p_negative_type(metric: FiniteMetric, p: float) -> NegTypeVerdict:
    """Classify the p-th power distance form on mean-zero vectors.

    The band ``[-EIG_TOL*s, EIG_TOL*s]`` around zero, with s the largest
    matrix entry, is treated as numerically indistinguishable from zero.  The
    form is evaluated on distances divided by the largest one, so the
    verdict does not depend on the unit of length; ``lambda_max`` is scaled
    back by that distance to the power p.  The eigenvalues come from
    ``np.linalg.eigvalsh``; only a verdict that is not strict makes one
    more O(n^3) step, a shifted ``np.linalg.solve`` for its certificate.
    """
    p = check_finite(p, "exponent p", InvalidExponent)
    if len(metric) < 2:
        raise TooFewPoints("the verdict needs at least two points")
    unit = float(metric.matrix.max())
    restricted, v = _restricted(power_matrix(metric.matrix / unit, p))
    lam = float(np.linalg.eigvalsh(restricted)[-1])
    status, reported = _band(lam, unit, p)
    certificate = None if status == "strict" else _certificate(restricted, lam, v)
    return NegTypeVerdict(status, reported, certificate)


def _draws(seed: int, trials: int, cap: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each trial's team size in 1..cap, then each trial's 2 cap points in 0..n-1.

    Draw i, the i-th little-endian 32-bit word w of one ``randbytes`` call,
    maps into m values as floor(w m / 2**32).  A negative seed raises
    ValueError, which ``random.Random`` would take as its absolute value.
    """
    if seed < 0:
        raise ValueError(f"seed = {seed} must be nonnegative")
    raw = random.Random(seed).randbytes(4 * trials * (1 + 2 * cap))
    words = np.frombuffer(raw, "<u4").astype(np.uint64)
    sizes = 1 + (words[:trials] * cap >> 32)
    points = words[trials:] * n >> 32
    return sizes, points.astype(np.intp).reshape(trials, 2 * cap)


def generalized_roundness_check(
    metric: FiniteMetric,
    p: float,
    trials: int = 200,
    seed: int = 0,
    max_team: int = 6,
) -> Tuple[bool, float]:
    """Randomized two-team inequality check with repetitions allowed.

    Samples random equal-size multisets (a_1..a_k), (b_1..b_k) of points
    and compares within-team against cross-team p-th power distance sums.
    Returns (all margins nonnegative up to ``EIG_TOL`` times the largest
    entry, worst margin).  As in :func:`has_p_negative_type`, the sums are taken
    on distances divided by the largest one and the margin is scaled back.
    The standard library's generator seeded with ``seed`` (:func:`_draws`)
    draws every trial's k, then every trial's a's and b's, each team as
    many points as the largest k; a team's first k points count and the
    rest get weight 0, so one gather of the p-th powers and one quadratic
    form per trial in the weights (+1 or 0 on the a's, -1 or 0 on the b's)
    give every margin at once.  A negative worst margin certifies failure of
    p-negative type: the signed weighting +1 on the a's and -1 on the b's
    is mean-zero precisely because the teams have equal size, and its
    quadratic form is twice the negated margin.  Unequal unweighted teams
    admit negative margins even on spaces of strict p-negative type, so
    they are never sampled.  The converse direction is only evidence,
    not proof.
    """
    p = check_finite(p, "exponent p", InvalidExponent)
    n = len(metric)
    if n < 2:
        raise TooFewPoints("sampling needs at least two points")
    unit = float(metric.matrix.max())
    dp = power_matrix(metric.matrix / unit, p)
    cap = min(n + 2, max_team)
    trials = max(trials, 0)
    sizes, flat = _draws(seed, trials, cap, n)
    member = (np.arange(cap) < sizes[:, None]).astype(float)
    eta = np.concatenate((member, -member), axis=1)
    block = dp[flat[:, :, None], flat[:, None, :]]
    # eta^T block eta is the within-team sums (each pair twice, dp's
    # diagonal being zero) less twice the cross-team sum.
    # One einsum: the same product as a stacked matmul raised peak memory.
    margins = -0.5 * np.einsum("ti,tij,tj->t", eta, block, eta)
    worst = float(np.min(margins, initial=math.inf))
    return bool(worst >= -EIG_TOL), _in_units(worst, unit, p)


def _below(scaled: np.ndarray, p: float, level: float) -> bool:
    """Whether the restricted form of ``scaled``**p has every eigenvalue below ``level``.

    That holds exactly when level I - A is positive definite, A the block
    of :func:`_restricted`, which is when its Cholesky factorization
    succeeds (up to a backward error of a few n u ||A||, Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 10).
    """
    block, _ = _restricted(power_matrix(scaled, p))
    block *= -1.0
    block.flat[:: block.shape[0] + 1] += level
    try:
        np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return False
    return True


def max_negative_type(metric: FiniteMetric) -> MaxPEstimate:
    """Estimate of the supremum p* of exponents with p-negative type.

    A finite metric space has strict p-negative type on [0, p*) and fails
    it above p* (Li & Weston, Positivity 2010), so the largest eigenvalue
    lambda(p) that :func:`has_p_negative_type` compares with its band
    crosses ``EIG_TOL`` once, and the search asks only its sign, one
    Cholesky factorization per question.  The upper end starts at 2 and
    doubles until the verdict fails; if it still holds at 64 the search
    aborts with :class:`CapReached`.  An end that holds without being
    strict (lambda >= -EIG_TOL) can only be p* itself, so ``P_STAR_TOL``/2
    above it is probed before doubling: if that fails it is the bracket's
    upper end, and if it holds it is the lower end and doubling goes on.
    The bracket [lo, hi], where lo holds and hi fails, is then bisected
    until its width is at most ``P_STAR_TOL``.  The midpoint gets the one
    eigenvalue computation, whose status and ``lambda_max`` are those of
    :func:`has_p_negative_type` there, bit for bit; no certificate is
    solved for.
    """
    if len(metric) < 2:
        raise TooFewPoints("the verdict needs at least two points")
    unit = float(metric.matrix.max())
    scaled = metric.matrix / unit
    # D^0 is 11^T - I, which is -I on the mean-zero hyperplane.
    lo, hi = 0.0, 2.0
    while _below(scaled, hi, EIG_TOL):
        lo = hi
        hi *= 2.0
        if hi > BISECTION_CAP:
            raise CapReached(BISECTION_CAP)
        if not _below(scaled, lo, -EIG_TOL):
            probe = lo + P_STAR_TOL / 2.0
            if not _below(scaled, probe, EIG_TOL):
                hi = probe
                break
            lo = probe
    while hi - lo > P_STAR_TOL:
        p = (lo + hi) / 2.0
        if _below(scaled, p, EIG_TOL):
            lo = p
        else:
            hi = p
    p_star = (lo + hi) / 2.0
    restricted, _ = _restricted(power_matrix(scaled, p_star))
    status, reported = _band(float(np.linalg.eigvalsh(restricted)[-1]), unit, p_star)
    return MaxPEstimate(p_star, hi - lo, status, reported)


def zeta_lower_bound(metric: FiniteMetric, gamma: float) -> float:
    """Half-width of a strictness interval around p = 1.

    Given the 1-negative-type gap of the space, strict p-negative type
    holds for every p in (1 - zeta, 1 + zeta).  The space is first rescaled
    so its smallest nonzero distance is 1 (the gap scales along); the bound
    needs the largest distance to exceed the smallest.
    """
    n = len(metric)
    if n < 3:
        raise TooFewPoints("the interval bound needs at least three points")
    gamma = check_finite(gamma, "gamma", InvalidExponent, positive=True)
    # Past its first entry, the matrix falls into n - 1 runs of n + 1
    # entries, each ending on the diagonal: the first n of every run are the
    # off-diagonal entries, a view with no copy.
    off = metric.matrix.ravel()[1:].reshape(n - 1, n + 1)[:, :n]
    smallest = float(off.min())
    largest = float(off.max())
    if largest <= smallest * (1.0 + 1e-12):
        raise DegenerateMetric("all nonzero distances coincide")
    w = largest / smallest
    g = gamma / smallest
    return math.log(1.0 + g / (2.0 * w * (n - 1) * (n - 2))) / math.log(w)


def tree_maxp_lower_bound(n: int) -> float:
    """Lower bound on the maximal exponent of any unweighted n-vertex tree."""
    if n < 3:
        raise TooFewPoints("the bound needs at least three vertices")
    return 1.0 + math.log(1.0 + 1.0 / ((n - 1) ** 3 * (n - 2))) / math.log(n - 1.0)


def star_max_p(n: int) -> float:
    """Exact maximal exponent of the unit star with n leaves."""
    if n < 2:
        raise TooFewLeaves("the star formula needs at least two leaves")
    return 1.0 + math.log(1.0 + 1.0 / (n - 1.0)) / math.log(2.0)


def build_star(n: int) -> MetricTree:
    """Unit star: internal vertex ``r`` joined to leaves ``l1`` .. ``ln``."""
    if n < 2:
        raise TooFewLeaves("a star needs at least two leaves")
    leaves = [f"{STAR_LEAF_PREFIX}{k}" for k in range(1, n + 1)]
    return build_tree([STAR_CENTER] + leaves, [(leaf, STAR_CENTER, 1.0) for leaf in leaves])


def build_necklace(n: int) -> MetricTree:
    """Chain of unit stars with 2..n leaves, joined center to center.

    Star k contributes internal vertex ``r{k}`` and leaves ``r{k}_l{j}``;
    consecutive internal vertices are joined by unit edges.
    """
    if n < 2:
        raise TooSmall("a necklace needs at least the 2-leaf star")
    vertices: List[str] = []
    edges: List[Tuple[str, str, float]] = []
    for k in range(2, n + 1):
        hub = f"r{k}"
        vertices.append(hub)
        for j in range(1, k + 1):
            leaf = f"r{k}_l{j}"
            vertices.append(leaf)
            edges.append((leaf, hub, 1.0))
        if k > 2:
            edges.append((f"r{k - 1}", hub, 1.0))
    return build_tree(vertices, edges)


def verify_enhanced_inequality(
    tree: MetricTree, points: Sequence[VertexId], eta: Sequence[float]
) -> float:
    """Margin of the gap-strengthened inequality for one signed weighting.

    For mean-zero eta on distinct vertices the quantity

        -( gamma/2 * (sum |eta|)^2  +  sum_{i,j} d(x_i, x_j) eta_i eta_j )

    is nonnegative, with equality exactly for the generic witness.  The
    returned margin is that quantity.  The double sum is taken edge by
    edge: an edge e of weight w_e with x_e of the weight below it and
    s - x_e above, s = sum eta, adds 2 w_e x_e (s - x_e), whatever s is.
    The edge terms are summed correctly rounded.  A margin whose terms
    overflow a double is returned as inf or NaN, without a warning.
    """
    return _enhanced_margin(tree, points, eta)[0]


def _enhanced_margin(
    tree: MetricTree, points: Sequence[VertexId], eta: Sequence[float]
) -> Tuple[float, float, float]:
    """:func:`verify_enhanced_inequality`'s margin, the gamma it used and sum |eta|.

    The CLI's ``verify`` prints gamma and checks sum |eta| for overflow, so
    it reads both here instead of summing either a second time.
    """
    points, eta, total_abs = signed_weights(points, eta, tree)
    values = [0.0] * len(tree)
    for v, x in zip(points, eta):
        values[tree.position[v]] = x
    below = tree.subtree_sums(values)
    top = below[0]
    try:
        quad = 2.0 * math.fsum(w * (x * (top - x)) for w, x in zip(tree.up_weight, below))
    except (OverflowError, ValueError):  # the terms or their sum pass the double range
        quad = math.nan
    gamma = generic_delta(tree)
    return -(0.5 * gamma * total_abs * total_abs + quad), gamma, total_abs


def is_equality_witness(
    tree: MetricTree, points: Sequence[VertexId], eta: Sequence[float]
) -> bool:
    """Whether a signed weighting is the generic witness (up to sign flip).

    The witness weighs every vertex, so a weighting that misses one is not
    it, and the closed form is not computed.  Otherwise, dropping zero
    entries, eta / alpha (alpha is half of sum |eta|) must match it on every
    vertex, with one sign flip or none throughout, to within
    ``EQUALITY_RTOL * max(weight, 1)``.
    """
    try:
        points, eta, total_abs = signed_weights(points, eta)
    except (ZeroVector, NonZeroSum, DuplicateVertex):
        return False
    kept = [(tree.check_vertex(v), x) for v, x in zip(points, eta) if x != 0.0]
    if len(kept) != len(tree):
        return False
    witness = gamma_T(tree).signed
    pairs = [(x / (total_abs / 2.0), witness[i]) for i, x in kept]
    flip = _sign(pairs[0][0]) * _sign(pairs[0][1])
    targets = [(x, w * flip) for x, w in pairs]
    return all(
        _sign(x) == _sign(t) and abs(x - t) <= EQUALITY_RTOL * max(abs(t), 1.0) for x, t in targets
    )


def _sign(x: float) -> int:
    """-1, 0 or 1, as np.sign gives them for a number."""
    return (x > 0.0) - (x < 0.0)
