"""Command-line interface.

Commands: gap, maxp, check, star, necklace, verify, oracle.  Input trees
come from Newick or edge-list files (``-`` reads stdin); maxp and check also
accept a JSON distance matrix ``{"labels": [...], "dist": [[...]]}``.
``--format auto`` reads Newick when the text starts with ``(`` or ends with
``;``, a JSON metric when it starts with ``{``, and an edge list otherwise.
Reports are printed as JSON (default) or text; identical inputs and seed
give byte-identical JSON.

Exit codes: 0 success, 2 input could not be parsed, 3 input parsed but a
value was invalid for the command, 4 internal error or a failed oracle check.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Dict, List, Optional, Tuple, Union

from ._lazy import np
from .errors import CapReached, InvalidMetric, TooLarge, TreeGapError
from .generic import GapReport, gamma_T, generic_delta, generic_labeling
from .metric import FiniteMetric, metric_from_tree
from .negtype import (
    _enhanced_margin,
    build_necklace,
    build_star,
    generalized_roundness_check,
    has_p_negative_type,
    is_equality_witness,
    max_negative_type,
    star_max_p,
    tree_maxp_lower_bound,
    # Unused here, but perfbench/tracing.py wraps this binding (ROADMAP item 2).
    verify_enhanced_inequality,  # noqa: F401
    zeta_lower_bound,
)
from .oracle import (
    BRUTE_FORCE_CAP,
    ORACLE_RTOL,
    brute_force_gamma,
    kkt_check_generic,
    minimize_gap_over_loads,
)
from .tree import MetricTree
from .treeio import emit_newick, emit_report, parse_edge_list, parse_eta_list, parse_newick

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4

MARGIN_RTOL = 1e-9
WITNESS_RTOL = 1e-10
FAMILY_P_STAR_TOL = 1e-4
# The most points maxp, check, oracle, star and necklace take: each builds
# n x n matrices, about 2 GB at peak for one tree verdict at the cap.
DENSE_POINT_CAP = 6400


class _ParsePhaseError(Exception):
    """Wrapper marking an error as belonging to input parsing (exit 2)."""

    def __init__(self, cause: Exception):
        super().__init__(str(cause))
        self.cause = cause


def _read_input(path: str) -> str:
    """The text of ``path`` (``-`` for stdin), without a leading byte-order mark."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return text[1:] if text.startswith("\ufeff") else text


# The spacing json.loads skips; str.isspace() takes more.
_JSON_SPACE = json.decoder.WHITESPACE
_DECODER = json.JSONDecoder()
# Rows of numbers hold none of these: a string's quote, or the "u" or "l"
# of true, false and null, which no number, NaN or Infinity holds.  numpy
# reads such values as np.array reads them from lists, but a document that
# holds them is left to json.loads.
_NOT_NUMBERS = '"ul'


def _read_metric_json(text: str):
    """The JSON document of ``text``, with ``"dist"`` as one float64 matrix where it can be.

    The top-level object is walked key by key, and ``"dist"`` is decoded
    one row at a time into a matrix allocated at its first row, so no more
    than one row of float objects exists at once.  A document that is not
    an object of distinct keys whose ``"dist"`` is a square list of flat
    rows of numbers, or that does not decode, is read by ``json.loads``
    from the text still in hand: its value, or its error, is that of
    ``json.loads``.
    """
    try:
        payload = _walk_metric_object(text)
    except (ValueError, TypeError, OverflowError, RecursionError):
        payload = None  # json.loads raises it again, or its own
    if payload is None:
        try:
            payload = json.loads(text)
        # ValueError also covers integers past Python's digit limit.
        except (ValueError, RecursionError) as exc:
            raise InvalidMetric(f"malformed JSON distance matrix: {exc}") from exc
    return payload


def _walk_metric_object(text: str) -> Optional[Dict]:
    """The top-level object of ``text`` with ``"dist"`` decoded by rows, or None."""
    space, decode = _JSON_SPACE.match, _DECODER.raw_decode
    payload: Dict = {}
    i = space(text).end()
    if text[i : i + 1] != "{":
        return None
    i = space(text, i + 1).end()
    while True:
        if text[i : i + 1] != '"':
            return None
        key, i = decode(text, i)
        i = space(text, i).end()
        if key in payload or text[i : i + 1] != ":":
            return None  # a repeated key is left to json.loads, which keeps the last
        i = space(text, i + 1).end()
        if key != "dist":
            payload[key], i = decode(text, i)
        else:
            read = _read_rows(text, i)
            if read is None:
                return None
            payload[key], i = read
        i = space(text, i).end()
        if text[i : i + 1] == "}":
            break
        if text[i : i + 1] != ",":
            return None
        i = space(text, i + 1).end()
    return payload if space(text, i + 1).end() == len(text) else None


def _read_rows(text: str, i: int) -> Optional[Tuple[np.ndarray, int]]:
    """The list of rows at ``text[i]`` as one n x n matrix and where it ends, or None."""
    space, decode = _JSON_SPACE.match, _DECODER.raw_decode
    start = i
    if text[i : i + 1] != "[":
        return None
    i = space(text, i + 1).end()
    matrix, rows = None, 0
    while True:
        if text[i : i + 1] != "[":
            return None
        row, i = decode(text, i)
        if matrix is None:
            # n rows of n numbers take at least n (2n + 1) characters.
            if len(row) * (2 * len(row) + 1) > len(text):
                return None
            matrix = np.empty((len(row), len(row)))
        if len(row) != len(matrix) or rows == len(matrix):
            return None
        # Raises on a nested array or an object, and past the double range.
        matrix[rows] = row
        rows += 1
        if text.startswith(", [", i):  # json.dumps's own separator
            i += 2
            continue
        i = space(text, i).end()
        if text[i : i + 1] != ",":
            break
        i = space(text, i + 1).end()
    if text[i : i + 1] != "]" or rows < len(matrix):
        return None
    if any(text.find(c, start, i) >= 0 for c in _NOT_NUMBERS):
        return None
    return matrix, i + 1


def _parse_metric_json(payload) -> FiniteMetric:
    """The metric of a parsed JSON document.

    Its ``"dist"`` is popped.  From :func:`_read_metric_json` it is mostly
    the float64 matrix read there, taken as it is; lists, from a document
    ``json.loads`` read, become one float64 array here and are released.
    Either way the text is gone by now, and the O(n^3) validation sees one
    n x n array.  A 2000-point 4-D metric (78 MB of text) peaks at 165 MB
    for ``check`` and 191 MB for ``maxp``; read as lists, both peaked at
    243 MB.
    """
    if not isinstance(payload, dict) or "labels" not in payload or "dist" not in payload:
        raise InvalidMetric('a JSON metric needs "labels" and "dist" keys')
    if not isinstance(payload["labels"], list):
        raise InvalidMetric('"labels" must be a JSON list')
    dist = payload.pop("dist")
    try:
        dist = np.asarray(dist, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass  # FiniteMetric raises the same error from the lists, after the labels'
    metric = FiniteMetric(payload["labels"], dist)
    # Reports key weights by printed label, so two labels must not print alike.
    printed: set = set()
    for key in map(str, metric.labels):
        if key in printed:
            raise InvalidMetric(f"two labels print as {key!r}")
        printed.add(key)
    return metric


def _load_host(path: str, fmt: str, allow_metric: bool) -> Union[MetricTree, FiniteMetric]:
    try:
        text = _read_input(path)
    except OSError as exc:
        raise _ParsePhaseError(exc)
    # What text.strip() would start and end with, without its copy.
    first = next((c for c in text if not c.isspace()), "")
    last = next((c for c in reversed(text) if not c.isspace()), "")
    try:
        if fmt == "newick":
            return parse_newick(text)
        if fmt == "edgelist":
            return parse_edge_list(text)
        if first == "(" or last == ";":
            return parse_newick(text)
        if first == "{":
            if not allow_metric:
                raise InvalidMetric("this command reads trees, not distance matrices")
            payload = _read_metric_json(text)
            del text  # one form of the input at a time: the text, then the matrix
            return _parse_metric_json(payload)
        return parse_edge_list(text)
    except TreeGapError as exc:
        raise _ParsePhaseError(exc)


def _tree_summary(tree: MetricTree, with_edge_list: bool = False) -> Dict:
    summary: Dict = {
        "n_vertices": len(tree.vertices),
        "n_edges": len(tree) - 1,
        "root": str(tree.root),
        "total_weight": tree.total_weight(),
        "unit_weights": all(w == 1.0 for w in tree.up_weight[1:]),
        "newick": emit_newick(tree),
    }
    if with_edge_list:
        lines = [f"# root {tree.root}"]
        lines += [f"{e.left}\t{e.right}\t{e.weight!r}" for e in tree.edges]
        summary["edge_list"] = "\n".join(lines) + "\n"
    return summary


def _empty_document() -> Dict:
    return {
        "tree_summary": None,
        "gamma": None,
        "delta_star": None,
        "generic_weights": None,
        "max_p": None,
        "checks": [],
    }


def _closed_form_payload(tree: MetricTree, document: Dict) -> GapReport:
    """Write gamma, delta_star and the witness's team weights, by label."""
    report = gamma_T(tree)
    teams: Dict[str, Dict[str, float]] = {"a_team": {}, "b_team": {}}
    for v in tree.vertices:
        w = report.signed[tree.position[v]]
        teams["a_team" if w > 0.0 else "b_team"][str(v)] = abs(w)
    document["gamma"] = report.gamma
    document["delta_star"] = report.gamma
    document["generic_weights"] = teams
    return report


def _witness_check(report: GapReport) -> Dict:
    """Whether the witness's edge-form gap matches gamma to WITNESS_RTOL."""
    return {
        "name": "witness_gap_matches_closed_form",
        "passed": abs(report.witness_gap - report.gamma) <= WITNESS_RTOL * report.gamma,
        "witness_gap": report.witness_gap,
    }


def _oracle_agrees(value: float, gamma: float) -> bool:
    """Whether an oracle's minimum matches gamma to ORACLE_RTOL."""
    return abs(value - gamma) <= ORACLE_RTOL * gamma


def _brute_force_check(tree: MetricTree, gamma: float) -> Dict:
    """Whether brute force over the tree's simplices finds gamma."""
    value = brute_force_gamma(tree).value
    return {
        "name": "brute_force_agrees",
        "passed": _oracle_agrees(value, gamma),
        "brute_force_value": value,
    }


def _gap_payload(tree: MetricTree, document: Dict) -> None:
    report = _closed_form_payload(tree, document)
    document["checks"].append(_witness_check(report))
    if len(tree.vertices) <= BRUTE_FORCE_CAP:
        entry = _brute_force_check(tree, report.gamma)
        entry["relative_tolerance"] = ORACLE_RTOL
        document["checks"].append(entry)


def _check_dense(points: int, what: str) -> None:
    """Raise TooLarge, before any n x n allocation, above DENSE_POINT_CAP points."""
    if points > DENSE_POINT_CAP:
        raise TooLarge(
            f"{what} has {points} points, above DENSE_POINT_CAP = {DENSE_POINT_CAP} "
            f"for an n x n matrix"
        )


def _dense_metric(host: Union[MetricTree, FiniteMetric]) -> FiniteMetric:
    """``host`` as a metric; a tree is held to DENSE_POINT_CAP first."""
    if not isinstance(host, MetricTree):
        return host
    _check_dense(len(host), "the tree")
    return metric_from_tree(host)


def _maxp_payload(
    host: Union[MetricTree, FiniteMetric], document: Dict, gamma: Optional[float] = None
) -> None:
    """Fill ``max_p``; a tree's zeta needs its gamma, ``generic_delta(host)`` unless given."""
    metric = _dense_metric(host)
    payload: Dict = {}
    try:
        estimate = max_negative_type(metric)
        payload["p_star"] = estimate.p_star
        payload["bracket_width"] = estimate.bracket_width
        payload["status_at_p_star"] = estimate.status_at_p_star
        payload["lambda_max_at_p_star"] = estimate.lambda_max_at_p_star
        payload["certified"] = True
    except CapReached as exc:
        payload["p_star"] = None
        payload["p_star_at_least"] = exc.cap
        payload["certified"] = False

    if isinstance(host, MetricTree):
        n = len(host.vertices)
        if n >= 3:
            zeta = zeta_lower_bound(metric, gamma or generic_delta(host))
            payload["zeta"] = zeta
            payload["strict_interval"] = [1.0 - zeta, 1.0 + zeta]
            if all(w == 1.0 for w in host.up_weight[1:]):
                payload["unweighted_lower_bound"] = tree_maxp_lower_bound(n)
    document["max_p"] = payload


def cmd_gap(args: argparse.Namespace) -> Tuple[Dict, int]:
    tree = _load_host(args.input, args.format, allow_metric=False)
    document = _empty_document()
    document["tree_summary"] = _tree_summary(tree)
    _gap_payload(tree, document)
    return document, EXIT_OK


def cmd_maxp(args: argparse.Namespace) -> Tuple[Dict, int]:
    host = _load_host(args.input, args.format, allow_metric=True)
    document = _empty_document()
    if isinstance(host, MetricTree):
        document["tree_summary"] = _tree_summary(host)
    _maxp_payload(host, document)
    return document, EXIT_OK


def cmd_check(args: argparse.Namespace) -> Tuple[Dict, int]:
    host = _load_host(args.input, args.format, allow_metric=True)
    document = _empty_document()
    if isinstance(host, MetricTree):
        document["tree_summary"] = _tree_summary(host)
    metric = _dense_metric(host)
    verdict = has_p_negative_type(metric, args.p)
    entry: Dict = {
        "name": "eigenvalue_verdict",
        "p": args.p,
        "status": verdict.status,
        "lambda_max": verdict.lambda_max,
        "passed": verdict.status != "fails",
    }
    if verdict.certificate is not None:
        entry["certificate"] = {
            str(v): float(x) for v, x in zip(metric.labels, verdict.certificate)
        }
    document["checks"].append(entry)
    ok, worst = generalized_roundness_check(metric, args.p, seed=args.seed)
    document["checks"].append(
        {
            "name": "roundness_sampling",
            "passed": ok,
            "worst_margin": worst,
        }
    )
    return document, EXIT_OK


def cmd_star(args: argparse.Namespace) -> Tuple[Dict, int]:
    exact = star_max_p(args.n)  # validates n >= 2
    _check_dense(args.n + 1, f"a star of {args.n} leaves")
    tree = build_star(args.n)
    document = _empty_document()
    document["tree_summary"] = _tree_summary(tree, with_edge_list=True)
    _gap_payload(tree, document)
    _maxp_payload(tree, document, document["gamma"])
    payload = document["max_p"]
    payload["closed_form_p_star"] = exact
    if payload.get("p_star") is not None:
        document["checks"].append(
            {
                "name": "bisection_matches_closed_form",
                "passed": abs(payload["p_star"] - exact) <= FAMILY_P_STAR_TOL,
                "difference": payload["p_star"] - exact,
            }
        )
    return document, EXIT_OK


def cmd_necklace(args: argparse.Namespace) -> Tuple[Dict, int]:
    if args.n >= 2:  # build_necklace rejects smaller n
        _check_dense((args.n + 4) * (args.n - 1) // 2, f"a necklace up to {args.n} leaves")
    tree = build_necklace(args.n)
    document = _empty_document()
    document["tree_summary"] = _tree_summary(tree, with_edge_list=True)
    document["gamma"] = generic_delta(tree)
    document["delta_star"] = document["gamma"]
    document["checks"].append(
        {
            "name": "gamma_is_reciprocal_edge_count",
            "passed": document["gamma"] == 1.0 / (len(tree) - 1),
            "edge_count": len(tree) - 1,
        }
    )
    _maxp_payload(tree, document, document["gamma"])
    ceiling = star_max_p(args.n)
    payload = document["max_p"]
    payload["star_ceiling"] = ceiling
    if payload.get("p_star") is not None:
        document["checks"].append(
            {
                "name": "p_star_below_star_ceiling",
                "passed": payload["p_star"] <= ceiling + FAMILY_P_STAR_TOL,
                "ceiling": ceiling,
            }
        )
    return document, EXIT_OK


def cmd_verify(args: argparse.Namespace) -> Tuple[Dict, int]:
    tree = _load_host(args.input, args.format, allow_metric=False)
    try:
        rows = parse_eta_list(_read_input(args.eta))
    except (TreeGapError, OSError) as exc:
        raise _ParsePhaseError(exc)
    points = [v for v, _ in rows]
    eta = [x for _, x in rows]
    margin, gamma, total_abs = _enhanced_margin(tree, points, eta)
    witness = is_equality_witness(tree, points, eta)
    # Float products overflow to inf where ** would raise OverflowError.
    scale = 0.5 * gamma * total_abs * total_abs
    if not (math.isfinite(scale) and math.isfinite(margin)):
        raise TreeGapError(
            f"the enhanced inequality overflows double precision: sum |eta| = {total_abs!r}, "
            f"gamma = {gamma!r}"
        )
    document = _empty_document()
    document["tree_summary"] = _tree_summary(tree)
    document["gamma"] = gamma
    document["checks"].append(
        {
            "name": "enhanced_inequality",
            "passed": margin >= -MARGIN_RTOL * scale,
            "margin": margin,
            "equality_attained": witness,
        }
    )
    return document, EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> Tuple[Dict, int]:
    tree = _load_host(args.input, args.format, allow_metric=False)
    _check_dense(len(tree), "the tree")
    document = _empty_document()
    document["tree_summary"] = _tree_summary(tree)
    report = _closed_form_payload(tree, document)
    checks: List[Dict] = document["checks"]
    checks.append(_witness_check(report))

    result = minimize_gap_over_loads(generic_labeling(tree))
    checks.append(
        {
            "name": "descent_on_generic_labeling_agrees",
            "passed": _oracle_agrees(result.value, report.gamma),
            "minimum_found": result.value,
            "iterations": result.iterations,
            "converged": result.converged,
        }
    )
    if len(tree.vertices) <= BRUTE_FORCE_CAP:
        checks.append(_brute_force_check(tree, report.gamma))
    else:
        checks.append(
            {
                "name": "brute_force_agrees",
                "passed": True,
                "skipped": f"tree exceeds {BRUTE_FORCE_CAP} vertices",
            }
        )
    kkt = kkt_check_generic(tree, report)
    checks.append(
        {
            "name": "stationarity_at_witness",
            "passed": kkt.consistent,
            "lambda_a": kkt.lambda_a,
            "lambda_b": kkt.lambda_b,
            "spread_a": kkt.spread_a,
            "spread_b": kkt.spread_b,
        }
    )
    code = EXIT_OK if all(c["passed"] for c in checks) else EXIT_INTERNAL
    return document, code


def _render_text(document: Dict) -> str:
    def fmt(x) -> str:
        if isinstance(x, float):
            return f"{x:.6g}"
        return str(x)

    lines: List[str] = []
    summary = document.get("tree_summary")
    if summary:
        lines.append(
            f"tree: {summary['n_vertices']} vertices, {summary['n_edges']} edges, "
            f"root {summary['root']}"
        )
    if document.get("gamma") is not None:
        lines.append(f"gamma = {fmt(document['gamma'])}")
    if document.get("delta_star") is not None:
        lines.append(f"delta_star = {fmt(document['delta_star'])}")
    weights = document.get("generic_weights")
    if weights:
        for team in ("a_team", "b_team"):
            pairs = ", ".join(f"{v}={fmt(w)}" for v, w in weights[team].items())
            lines.append(f"{team}: {pairs}")
    maxp = document.get("max_p")
    if maxp:
        for key, value in maxp.items():
            if isinstance(value, list):
                lines.append(f"{key} = [{', '.join(fmt(v) for v in value)}]")
            else:
                lines.append(f"{key} = {fmt(value)}")
    for check in document.get("checks", []):
        status = "PASS" if check.get("passed") else "FAIL"
        detail = ", ".join(
            f"{k}={fmt(v)}"
            for k, v in check.items()
            if k not in ("name", "passed") and not isinstance(v, dict)
        )
        lines.append(f"{status} {check['name']}" + (f" ({detail})" if detail else ""))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treegap",
        description=(
            "Gap and negative-type calculations for finite metric trees "
            "and finite metric spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # name, handler, help, reads an input file
    specs = [
        ("gap", cmd_gap, "closed-form gap with witness and cross-checks", True),
        ("maxp", cmd_maxp, "bracketed estimate of the maximal exponent", True),
        ("check", cmd_check, "p-negative-type verdict at one exponent", True),
        ("star", cmd_star, "build a star and report gap and maximal p", False),
        ("necklace", cmd_necklace, "build a star chain and report", False),
        ("verify", cmd_verify, "margin of the strengthened inequality", True),
        ("oracle", cmd_oracle, "run the numerical cross-check suite", True),
    ]
    commands: Dict[str, argparse.ArgumentParser] = {}
    for name, handler, help_text, reads_input in specs:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if reads_input:
            p.add_argument("input", help="input file, or - for stdin")
            p.add_argument(
                "--format",
                choices=["newick", "edgelist", "auto"],
                default="auto",
                help="input grammar (auto: Newick if the text starts with '(' or ends"
                " with ';', a JSON metric if it starts with '{', else an edge list)",
            )
        p.add_argument(
            "--output", choices=["json", "text"], default="json", help="report style"
        )
        commands[name] = p
    commands["verify"].add_argument("eta", help="vertex<TAB>weight file of signed weights")
    commands["check"].add_argument("--p", type=float, required=True, help="exponent")
    commands["check"].add_argument("--seed", type=int, default=0, help="sampling seed")
    for name, help_text in (("star", "leaf count"), ("necklace", "leaf count of the last star")):
        commands[name].add_argument("--n", type=int, required=True, help=help_text)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise TreeGapError(f"--seed = {args.seed} must be nonnegative")
        document, code = args.handler(args)
    except _ParsePhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TreeGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports everything
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.output == "text":
        sys.stdout.write(_render_text(document))
    else:
        sys.stdout.write(emit_report(document))
    return code


if __name__ == "__main__":
    sys.exit(main())
