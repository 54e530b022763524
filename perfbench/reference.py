"""Expected answers, computed without treegap, and the output checks.

Each ``expect_*`` function runs when the inputs are generated and returns
what a correct report must contain.  ``check_output`` compares a request's
exit code and stdout against it and returns a list of problems (empty when
the answer is right).  Tolerances follow the paper's identities:

- gamma = 1 / sum(1/w) over the edges, to 1e-12 relative;
- a brute-force minimum agrees with gamma to 1e-7 relative;
- the star's maximal exponent is 1 + log2(1 + 1/(n - 1)), to 1e-6;
- a Euclidean metric has p-negative type for every p <= 2, so its p* is
  at least 2 - 1e-6 and `check` at p <= 2 never reports `fails`;
- every other p* is bracketed by this module's own eigen-solve.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

GAMMA_RTOL = 1e-12
BRUTE_FORCE_RTOL = 1e-7
STAR_P_TOL = 1e-6
EUCLID_P_FLOOR = 2.0 - 1e-6
WITNESS_RTOL = 1e-9
MARGIN_RTOL = 1e-9
KKT_TOL = 1e-5
BRUTE_FORCE_CAP = 9
# The verdict band the CLI uses for `check` and the p* search.
VERDICT_TOL = 1e-9
# How far either side of a reported p* the bracket is probed.
P_STAR_PROBE = 1e-3
# A `check` above p* is generated only where the reference eigenvalue is
# this far above zero, relative to the largest powered distance.
CLEAR_FAIL = 1e-6


# -- trees -----------------------------------------------------------------


def adjacency(n: int, edges: Sequence[Tuple[int, int, float]]) -> List[List[Tuple[int, float]]]:
    adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, w in edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    return adj


def _bfs(adj, source: int) -> Tuple[List[int], List[int], List[float]]:
    """Visit order, parents and weighted distances from one source."""
    parent = [-1] * len(adj)
    dist = [0.0] * len(adj)
    seen = [False] * len(adj)
    seen[source] = True
    order = [source]
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u, w in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                dist[u] = dist[v] + w
                order.append(u)
                queue.append(u)
    return order, parent, dist


def centre(n: int, adj) -> int:
    """A vertex of least eccentricity in hops (middle of a longest path)."""
    unit = [[(u, 1.0) for u, _w in nbrs] for nbrs in adj]
    order, _, dist = _bfs(unit, 0)
    far = max(order, key=lambda v: dist[v])
    order, parent, dist = _bfs(unit, far)
    other = max(order, key=lambda v: dist[v])
    path = [other]
    while path[-1] != far:
        path.append(parent[path[-1]])
    return path[len(path) // 2]


def tree_distances(n: int, edges) -> np.ndarray:
    adj = adjacency(n, edges)
    return np.array([_bfs(adj, s)[2] for s in range(n)])


def gamma(edges) -> float:
    return 1.0 / math.fsum(1.0 / w for _a, _b, w in edges)


def _edge_gap(tree, a_team: Dict[str, float], b_team: Dict[str, float]) -> float:
    """Gap of a normalized two-team weighting by the edge decomposition.

    gap = sum over edges of w * (alpha - beta)^2, where alpha and beta are
    the team weights on one side of the edge.
    """
    index = {v: k for k, v in enumerate(tree.labels)}
    signed = [0.0] * tree.n
    for v, m in a_team.items():
        signed[index[v]] += m
    for v, m in b_team.items():
        signed[index[v]] -= m
    adj = adjacency(tree.n, tree.edges)
    order, parent, _ = _bfs(adj, 0)
    below = signed[:]
    weight_above = [0.0] * tree.n
    for v in order[1:]:
        weight_above[v] = next(w for u, w in adj[v] if u == parent[v])
    for v in reversed(order[1:]):
        below[parent[v]] += below[v]
    return math.fsum(weight_above[v] * below[v] ** 2 for v in order[1:])


# -- metrics ---------------------------------------------------------------


def power(d: np.ndarray, p: float) -> np.ndarray:
    out = np.zeros_like(d)
    mask = d > 0.0
    out[mask] = d[mask] ** p
    return out


def lambda_max(d: np.ndarray, p: float) -> Tuple[float, float]:
    """Largest eigenvalue of d**p on mean-zero vectors, and max(d**p).

    The hyperplane basis comes from the Householder reflector that maps
    the unit all-ones vector to e_1, applied in O(n^2).
    """
    dp = power(d, p)
    n = dp.shape[0]
    u = np.full(n, 1.0 / math.sqrt(n))
    u[0] -= 1.0
    uu = float(u @ u)
    left = dp - np.outer(u, (2.0 / uu) * (u @ dp))
    both = left - np.outer((2.0 / uu) * (left @ u), u)
    restricted = both[1:, 1:]
    restricted = (restricted + restricted.T) / 2.0
    return float(np.linalg.eigvalsh(restricted)[-1]), float(dp.max())


def _eig_slack(d: np.ndarray, scale: float) -> float:
    return 1e-10 * d.shape[0] * scale


def clearly_failing_p(d: np.ndarray, start: float) -> float:
    """The first of start, start+0.5, ... where the verdict clearly fails."""
    p = start
    while p <= 16.0:
        lam, scale = lambda_max(d, p)
        if lam > CLEAR_FAIL * scale:
            return p
        p += 0.5
    raise ValueError("no clearly failing exponent up to 16")


def zeta(d: np.ndarray, gamma_value: float) -> float:
    n = d.shape[0]
    off = d[~np.eye(n, dtype=bool)]
    smallest, largest = float(off.min()), float(off.max())
    w = largest / smallest
    g = gamma_value / smallest
    return math.log(1.0 + g / (2.0 * w * (n - 1) * (n - 2))) / math.log(w)


def star_p(n: int) -> float:
    return 1.0 + math.log2(1.0 + 1.0 / (n - 1))


def necklace_edges(n: int) -> List[Tuple[int, int, float]]:
    """Unit stars with 2..n leaves, consecutive centres joined."""
    edges = []
    count = 0
    previous = None
    for k in range(2, n + 1):
        hub = count
        count += 1
        for _ in range(k):
            edges.append((count, hub, 1.0))
            count += 1
        if previous is not None:
            edges.append((previous, hub, 1.0))
        previous = hub
    return edges


# -- expectations ------------------------------------------------------------


def expect_gap(tree) -> Dict:
    return {
        "kind": "gap",
        "tree": tree,
        "gamma": gamma(tree.edges),
        "total_weight": math.fsum(w for _a, _b, w in tree.edges),
    }


def expect_oracle(tree) -> Dict:
    return {"kind": "oracle", "tree": tree, "gamma": gamma(tree.edges)}


def expect_verify(tree, gamma_value: float, points: List[str], eta: List[float]) -> Dict:
    """Margin -(gamma/2 (sum|eta|)^2 + sum_{i != j} d_ij eta_i eta_j)."""
    index = {v: k for k, v in enumerate(tree.labels)}
    adj = adjacency(tree.n, tree.edges)
    rows = [_bfs(adj, index[v])[2] for v in points]
    quad = 0.0
    size = 0.0
    for i, row in enumerate(rows):
        for j, v in enumerate(points):
            if i != j:
                term = row[index[v]] * eta[i] * eta[j]
                quad += term
                size += abs(term)
    total_abs = math.fsum(abs(x) for x in eta)
    head = 0.5 * gamma_value * total_abs * total_abs
    return {
        "kind": "verify",
        "gamma": gamma_value,
        "margin": -(head + quad),
        "scale": head + size,
    }


def expect_check(d: np.ndarray, p: float, fails: bool) -> Dict:
    lam, scale = lambda_max(d, p)
    return {"kind": "check", "p": p, "fails": fails, "lambda": lam,
            "slack": _eig_slack(d, scale)}


def expect_maxp(d: np.ndarray, euclidean: bool, gamma: Optional[float] = None) -> Dict:
    out = {"kind": "maxp", "d": d, "euclidean": euclidean}
    if gamma is not None:
        out["zeta"] = zeta(d, gamma)
    return out


def expect_star(n: int) -> Dict:
    return {"kind": "star", "n": n, "gamma": 1.0 / n, "p_star": star_p(n)}


def expect_necklace(n: int) -> Dict:
    edges = necklace_edges(n)
    return {
        "kind": "necklace",
        "n": n,
        "gamma": 1.0 / len(edges),
        "ceiling": star_p(n),
        "d": tree_distances(len(edges) + 1, edges),
    }


# -- output checks ---------------------------------------------------------


def _close(value, target: float, rtol: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - target) <= rtol * abs(target)


def _p_star_bracketed(d: np.ndarray, p_star: float) -> List[str]:
    """p* must sit where the reference eigenvalue changes sign."""
    problems = []
    below, scale_below = lambda_max(d, p_star - P_STAR_PROBE)
    above, scale_above = lambda_max(d, p_star + P_STAR_PROBE)
    if below > VERDICT_TOL * scale_below + _eig_slack(d, scale_below):
        problems.append(f"form fails at p* - {P_STAR_PROBE} (lambda {below:.3g})")
    if above < -_eig_slack(d, scale_above):
        problems.append(f"form strict at p* + {P_STAR_PROBE} (lambda {above:.3g})")
    return problems


def _check_teams(expect: Dict, doc: Dict, problems: List[str]) -> None:
    tree = expect["tree"]
    weights = doc.get("generic_weights") or {}
    a_team, b_team = weights.get("a_team", {}), weights.get("b_team", {})
    if set(a_team) | set(b_team) != set(tree.labels) or set(a_team) & set(b_team):
        problems.append("teams do not partition the vertices")
        return
    for name, team in (("a_team", a_team), ("b_team", b_team)):
        if min(team.values()) <= 0.0 or abs(math.fsum(team.values()) - 1.0) > 1e-9:
            problems.append(f"{name} weights are not a positive normalized load")
            return
    witness = _edge_gap(tree, a_team, b_team)
    if not _close(witness, expect["gamma"], WITNESS_RTOL):
        problems.append(f"witness weighting has gap {witness!r}, expected {expect['gamma']!r}")


def _checks_by_name(doc: Dict) -> Dict[str, Dict]:
    return {c.get("name"): c for c in doc.get("checks", [])}


def check_output(expect: Dict, code: int, stdout: str) -> List[str]:
    """Problems with one request's answer; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    kind = expect["kind"]
    problems: List[str] = []
    checks = _checks_by_name(doc)

    if kind in ("gap", "oracle", "verify", "star", "necklace"):
        if not _close(doc.get("gamma"), expect["gamma"], GAMMA_RTOL):
            problems.append(f"gamma {doc.get('gamma')!r}, expected {expect['gamma']!r}")

    if kind == "gap":
        tree = expect["tree"]
        summary = doc.get("tree_summary") or {}
        if summary.get("n_vertices") != tree.n or summary.get("n_edges") != tree.n - 1:
            problems.append("tree summary has the wrong size")
        if not _close(summary.get("total_weight"), expect["total_weight"], GAMMA_RTOL):
            problems.append("total weight is wrong")
        if doc.get("delta_star") != doc.get("gamma"):
            problems.append("delta_star differs from gamma")
        _check_teams(expect, doc, problems)
        brute = checks.get("brute_force_agrees")
        if tree.n <= BRUTE_FORCE_CAP:
            if brute is None or not _close(
                brute.get("brute_force_value"), expect["gamma"], BRUTE_FORCE_RTOL
            ):
                problems.append("brute-force minimum missing or off by more than 1e-7")
        elif brute is not None:
            problems.append("brute force ran above its cap")

    elif kind == "oracle":
        _check_teams(expect, doc, problems)
        descent = checks.get("descent_on_generic_labeling_agrees") or {}
        if not _close(descent.get("minimum_found"), expect["gamma"], BRUTE_FORCE_RTOL):
            problems.append("descent minimum off by more than 1e-7")
        if "skipped" not in (checks.get("brute_force_agrees") or {}):
            problems.append("brute force was not skipped above its cap")
        kkt = checks.get("stationarity_at_witness") or {}
        mean = (kkt.get("lambda_a", math.nan) + kkt.get("lambda_b", math.nan)) / 2.0
        if not abs(mean - expect["gamma"]) <= KKT_TOL:
            problems.append("stationarity multipliers do not average to gamma")

    elif kind == "verify":
        entry = checks.get("enhanced_inequality") or {}
        margin = entry.get("margin")
        if not isinstance(margin, float) or abs(margin - expect["margin"]) > (
            MARGIN_RTOL * expect["scale"]
        ):
            problems.append(f"margin {margin!r}, expected {expect['margin']!r}")
        if entry.get("equality_attained") is not False:
            problems.append("a random weighting was reported as the equality witness")

    elif kind == "check":
        verdict = checks.get("eigenvalue_verdict") or {}
        if (verdict.get("status") == "fails") != expect["fails"]:
            want = "fails" if expect["fails"] else "not fails"
            problems.append(f"status {verdict.get('status')!r}, expected {want}")
        lam = verdict.get("lambda_max")
        if not isinstance(lam, float) or abs(lam - expect["lambda"]) > expect["slack"]:
            problems.append(f"lambda_max {lam!r}, reference {expect['lambda']!r}")
        roundness = checks.get("roundness_sampling") or {}
        if not expect["fails"] and roundness.get("passed") is not True:
            problems.append("roundness sampling failed below p*")
        if verdict.get("p") != expect["p"]:
            problems.append("verdict reports another exponent")

    elif kind == "maxp":
        payload = doc.get("max_p") or {}
        p_star = payload.get("p_star")
        if not isinstance(p_star, float) or payload.get("certified") is not True:
            problems.append("no certified p*")
        else:
            problems += _p_star_bracketed(expect["d"], p_star)
            if expect["euclidean"] and p_star < EUCLID_P_FLOOR:
                problems.append(f"Euclidean p* {p_star!r} below 2")
            if "zeta" in expect:
                if not _close(payload.get("zeta"), expect["zeta"], 1e-9):
                    problems.append("zeta differs from the reference")
                elif p_star < 1.0 + expect["zeta"]:
                    problems.append("p* lies inside the strictness interval")

    elif kind == "star":
        payload = doc.get("max_p") or {}
        p_star = payload.get("p_star")
        if not isinstance(p_star, float) or abs(p_star - expect["p_star"]) > STAR_P_TOL:
            problems.append(f"p* {p_star!r}, closed form {expect['p_star']!r}")
        if not _close(payload.get("closed_form_p_star"), expect["p_star"], 1e-12):
            problems.append("closed-form p* differs")

    elif kind == "necklace":
        payload = doc.get("max_p") or {}
        p_star = payload.get("p_star")
        if not isinstance(p_star, float):
            problems.append("no p*")
        else:
            if p_star > expect["ceiling"] + 1e-4:
                problems.append("p* above the star ceiling")
            problems += _p_star_bracketed(expect["d"], p_star)

    failed_checks = [c.get("name") for c in doc.get("checks", []) if c.get("passed") is not True]
    if kind == "check" and expect["fails"]:
        failed_checks = [c for c in failed_checks if c not in ("eigenvalue_verdict", "roundness_sampling")]
    if failed_checks:
        problems.append(f"checks not passed: {failed_checks}")
    return problems


def check_setup_output(code: int, stdout: str) -> List[str]:
    """The set-up probe's answer: gamma of two unit edges is 0.5."""
    if code != 0:
        return [f"set-up probe exit code {code}"]
    try:
        value = json.loads(stdout).get("gamma")
    except json.JSONDecodeError:
        return ["set-up probe printed no JSON"]
    return [] if value == 0.5 else [f"set-up probe gamma {value!r}, expected 0.5"]
