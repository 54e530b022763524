"""Seeded inputs and request lists for the three benchmark workloads.

Nothing here imports treegap.  Every request carries the answer the
benchmark expects, computed from the generated data by ``reference``, so
the program under test never grades itself.

Sizes and tree shapes are fixed per workload; labels, weights, weighted
subsets and points come from the seed.  So the amount of work barely moves
between seeds while the inputs themselves differ: the cost of a request
depends strongly on the unlabelled shape of its tree, and a percentile
that falls between two requests moves whenever their costs cross.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import reference

WORKLOADS = ("closed-form", "spectral", "oracle")

# (shape, n) pairs; every tree gets one `gap` and one `verify` request.
CLOSED_FORM_SHAPES = ("random", "path", "caterpillar", "star")
CLOSED_FORM_SIZES = (10, 25, 60, 120, 200)
# `verify` cost grows with the weighted subset, so its size is fixed and
# only which vertices and weights come from the seed.
VERIFY_SUBSET = 16

# Euclidean point sets: (n, dimension drawn from 2..10); each gets `maxp`
# and two `check` requests, one on each side of p*.
SPECTRAL_EUCLID_SIZES = (50, 100, 100, 100, 100, 200, 400, 400)
SPECTRAL_TREE_SIZES = (50, 100, 150, 180)
SPECTRAL_STARS = (9, 12, 16, 24, 32)
SPECTRAL_NECKLACES = (4, 5, 6, 7, 8)

# Brute force runs on every `gap` request here (n <= 9); `oracle` requests
# are above that cap, so they run one long single-row descent instead.
ORACLE_GAP_SIZES = (5,) * 10 + (6,) * 14 + (7,) * 4 + (8,)
ORACLE_DESCENT_SIZES = (14, 15, 15, 16, 16, 17, 17, 18)

WEIGHT_RANGE = (0.5, 2.0)


@dataclass
class Tree:
    """Vertex labels plus undirected weighted edges over label indices."""

    labels: List[str]
    edges: List[Tuple[int, int, float]]

    @property
    def n(self) -> int:
        return len(self.labels)

    def labelled_edges(self) -> List[Tuple[str, str, float]]:
        return [(self.labels[a], self.labels[b], w) for a, b, w in self.edges]


@dataclass
class Request:
    """One CLI invocation: its arguments, input files and expected answer."""

    rid: str
    command: str
    argv: List[str]
    files: Dict[str, str] = field(default_factory=dict)
    expect: Dict = field(default_factory=dict)


def make_tree(
    rng: random.Random, shape: str, n: int, shape_rng: Optional[random.Random] = None
) -> Tree:
    """A tree of the given shape with shuffled labels and random weights.

    ``shape_rng``, when given, draws the random edges in place of ``rng``.
    """
    srng = shape_rng or rng
    if shape == "random":
        pairs = [(srng.randrange(v), v) for v in range(1, n)]
    elif shape == "path":
        pairs = [(v - 1, v) for v in range(1, n)]
    elif shape == "star":
        pairs = [(0, v) for v in range(1, n)]
    elif shape == "caterpillar":
        spine = max(2, n // 2)
        pairs = [(v - 1, v) for v in range(1, spine)]
        pairs += [(srng.randrange(spine), v) for v in range(spine, n)]
    else:
        raise ValueError(f"unknown tree shape {shape!r}")
    names = [f"v{k}" for k in range(n)]
    rng.shuffle(names)
    lo, hi = WEIGHT_RANGE
    edges = [(a, b, rng.uniform(lo, hi)) for a, b in pairs]
    return Tree(names, edges)


def edge_list_text(tree: Tree) -> str:
    """Tab-separated ``left<TAB>right<TAB>weight`` lines."""
    return "".join(f"{a}\t{b}\t{w!r}\n" for a, b, w in tree.labelled_edges())


def newick_text(tree: Tree) -> str:
    """Newick with every vertex labelled, hung from a centre vertex.

    Hanging from the centre halves the nesting depth of deep shapes; the
    text is built without recursion.
    """
    adjacency = reference.adjacency(tree.n, tree.edges)
    root = reference.centre(tree.n, adjacency)
    parent = {root: None}
    order = [root]
    for v in order:
        for u, _w in adjacency[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    weight_above = {}
    for v in order[1:]:
        weight_above[v] = next(w for u, w in adjacency[v] if u == parent[v])
    rendered: Dict[int, str] = {}
    for v in reversed(order):
        kids = [u for u, _w in adjacency[v] if parent.get(u) == v and u != root]
        if kids:
            inner = ",".join(f"{rendered.pop(u)}:{weight_above[u]!r}" for u in kids)
            rendered[v] = f"({inner}){tree.labels[v]}"
        else:
            rendered[v] = tree.labels[v]
    return rendered[root] + ";\n"


def euclidean_metric(nrng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    points = nrng.normal(size=(n, dim))
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def metric_json(labels: List[str], d: np.ndarray) -> str:
    return json.dumps({"labels": labels, "dist": d.tolist()})


def mean_zero_weighting(
    rng: random.Random, labels: List[str], k: int
) -> Tuple[List[str], List[float]]:
    """Signed weights on k random vertices, summing to zero exactly.

    The last weight is the negated sum of the others, so the parsed values
    sum to zero up to one rounding.
    """
    points = rng.sample(labels, k)
    eta = [rng.uniform(-1.0, 1.0) for _ in range(k - 1)]
    eta.append(-math.fsum(eta))
    return points, eta


def _tree_input(tree: Tree, index: int, stem: str) -> Tuple[str, str]:
    """Alternate Newick and edge-list files so each grammar gets half."""
    if index % 2 == 0:
        return f"{stem}.nwk", newick_text(tree)
    return f"{stem}.tsv", edge_list_text(tree)


def closed_form(seed: int) -> List[Request]:
    rng = random.Random(f"closed-form:{seed}")
    shapes = random.Random("closed-form:shapes")
    requests: List[Request] = []
    index = 0
    for n in CLOSED_FORM_SIZES:
        for shape in CLOSED_FORM_SHAPES:
            tree = make_tree(rng, shape, n, shape_rng=shapes)
            stem = f"cf{index:02d}-{shape}{n}"
            name, text = _tree_input(tree, index, stem)
            gamma = reference.gamma(tree.edges)
            requests.append(
                Request(
                    rid=f"{stem}-gap",
                    command="gap",
                    argv=["gap", name],
                    files={name: text},
                    expect=reference.expect_gap(tree),
                )
            )
            k = min(n, VERIFY_SUBSET)
            points, eta = mean_zero_weighting(rng, tree.labels, k)
            eta_name = f"{stem}.eta"
            eta_text = "".join(f"{v}\t{x!r}\n" for v, x in zip(points, eta))
            requests.append(
                Request(
                    rid=f"{stem}-verify",
                    command="verify",
                    argv=["verify", name, eta_name],
                    files={name: text, eta_name: eta_text},
                    expect=reference.expect_verify(tree, gamma, points, eta),
                )
            )
            index += 1
    return requests


def spectral(seed: int) -> List[Request]:
    rng = random.Random(f"spectral:{seed}")
    nrng = np.random.default_rng([seed, 7])
    shapes = random.Random("spectral:shapes")
    requests: List[Request] = []
    p_low_cycle = (1.0, 1.5, 2.0)
    for index, n in enumerate(SPECTRAL_EUCLID_SIZES):
        dim = rng.randint(2, 10)
        d = euclidean_metric(nrng, n, dim)
        labels = [f"x{k}" for k in range(n)]
        rng.shuffle(labels)
        stem = f"sp{index:02d}-euclid{n}d{dim}"
        name = f"{stem}.json"
        files = {name: metric_json(labels, d)}
        requests.append(
            Request(f"{stem}-maxp", "maxp", ["maxp", name], files,
                    reference.expect_maxp(d, euclidean=True))
        )
        # Euclidean metrics have p-negative type for every p <= 2.
        p_low = p_low_cycle[index % len(p_low_cycle)]
        requests.append(
            Request(f"{stem}-check-low", "check", ["check", name, "--p", repr(p_low)],
                    files, reference.expect_check(d, p_low, fails=False))
        )
        p_high = reference.clearly_failing_p(d, 2.5)
        requests.append(
            Request(f"{stem}-check-high", "check", ["check", name, "--p", repr(p_high)],
                    files, reference.expect_check(d, p_high, fails=True))
        )
    for index, n in enumerate(SPECTRAL_TREE_SIZES):
        tree = make_tree(rng, "random", n, shape_rng=shapes)
        stem = f"sp{index + len(SPECTRAL_EUCLID_SIZES):02d}-tree{n}"
        name, text = _tree_input(tree, index, stem)
        files = {name: text}
        d = reference.tree_distances(tree.n, tree.edges)
        requests.append(
            Request(f"{stem}-maxp", "maxp", ["maxp", name], files,
                    reference.expect_maxp(d, euclidean=False,
                                          gamma=reference.gamma(tree.edges)))
        )
        # Metric trees have strict 1-negative type.
        requests.append(
            Request(f"{stem}-check-low", "check", ["check", name, "--p", "1.0"],
                    files, reference.expect_check(d, 1.0, fails=False))
        )
        p_high = reference.clearly_failing_p(d, 2.0)
        requests.append(
            Request(f"{stem}-check-high", "check", ["check", name, "--p", repr(p_high)],
                    files, reference.expect_check(d, p_high, fails=True))
        )
    for n in SPECTRAL_STARS:
        requests.append(
            Request(f"star{n}", "star", ["star", "--n", str(n)], {},
                    reference.expect_star(n))
        )
    for n in SPECTRAL_NECKLACES:
        requests.append(
            Request(f"necklace{n}", "necklace", ["necklace", "--n", str(n)], {},
                    reference.expect_necklace(n))
        )
    return requests


def oracle(seed: int) -> List[Request]:
    rng = random.Random(f"oracle:{seed}")
    shapes = random.Random("oracle:shapes")
    plan = [("gap", n) for n in ORACLE_GAP_SIZES]
    plan += [("oracle", n) for n in ORACLE_DESCENT_SIZES]
    requests: List[Request] = []
    for index, (command, n) in enumerate(plan):
        tree = make_tree(rng, "random", n, shape_rng=shapes)
        stem = f"or{index:02d}-tree{n}"
        name, text = _tree_input(tree, index, stem)
        expect = reference.expect_gap(tree) if command == "gap" else reference.expect_oracle(tree)
        requests.append(
            Request(f"{stem}-{command}", command, [command, name], {name: text}, expect)
        )
    return requests


def build(workload: str, seed: int) -> List[Request]:
    """The fixed request list of one workload for one seed."""
    makers = {"closed-form": closed_form, "spectral": spectral, "oracle": oracle}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return makers[workload](seed)


def input_files(requests: List[Request]) -> Dict[str, str]:
    """Every distinct input file of a request list, by file name."""
    files: Dict[str, str] = {}
    for request in requests:
        files.update(request.files)
    return files


# The three-vertex input the set-up probe runs: gamma = 0.5.
TRIVIAL_TREE = "a\tm\t1.0\nb\tm\t1.0\n"
