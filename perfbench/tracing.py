"""Spans and counters recorded around treegap's layers, from outside.

``from .x import f`` copies a name into the importing module, so a layer
function is reached through several bindings (``treegap.cli.gamma_T``,
``treegap.negtype.gamma_T``, ...).  Each binding a CLI path reaches gets
its own wrapper, and ``installed`` puts the originals back afterwards.
Nothing under ``src/`` changes.

A span records its layer name, start, end, the span that caused it and the
request it belongs to.  Spans stay in memory; ``layer_metrics`` reduces
one pass of them to the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Tuple

# (module, attribute path, span name): the call is timed as one span.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("treegap.cli", "parse_newick", "treeio.parse"),
    ("treegap.cli", "parse_edge_list", "treeio.parse"),
    ("treegap.cli", "parse_eta_list", "treeio.parse"),
    ("treegap.cli", "emit_newick", "treeio.emit"),
    ("treegap.cli", "emit_report", "treeio.emit"),
    ("treegap.treeio", "build_tree", "tree.build_tree"),
    ("treegap.negtype", "build_tree", "tree.build_tree"),
    ("treegap.tree", "build_tree", "tree.build_tree"),
    ("treegap.cli", "metric_from_tree", "metric.metric_from_tree"),
    ("treegap.oracle", "metric_from_tree", "metric.metric_from_tree"),
    ("treegap.metric", "FiniteMetric.__init__", "metric.finite_metric"),
    ("treegap.cli", "gamma_T", "generic.gamma_T"),
    ("treegap.negtype", "gamma_T", "generic.gamma_T"),
    ("treegap.oracle", "gamma_T", "generic.gamma_T"),
    ("treegap.generic", "generic_algorithm", "generic.generic_algorithm"),
    ("treegap.generic", "make_simplex", "simplex.make_simplex"),
    ("treegap.simplex", "make_simplex", "simplex.make_simplex"),
    ("treegap.cli", "has_p_negative_type", "negtype.verdict"),
    ("treegap.negtype", "has_p_negative_type", "negtype.verdict"),
    ("treegap.cli", "max_negative_type", "negtype.maxp"),
    ("treegap.cli", "generalized_roundness_check", "negtype.roundness"),
    ("treegap.cli", "verify_enhanced_inequality", "negtype.verify"),
    ("treegap.cli", "is_equality_witness", "negtype.verify"),
    ("treegap.cli", "brute_force_gamma", "oracle.brute_force"),
    ("treegap.cli", "minimize_gap_over_loads", "oracle.descent"),
    ("treegap.cli", "kkt_check_generic", "oracle.kkt"),
)

# (module, attribute path, counter name): calls are counted, not timed,
# because they are too many and too short for a span each.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("treegap.tree", "MetricTree.distance", "tree.distance_calls"),
    ("treegap.oracle", "extended_gap", "simplex.extended_gap_calls"),
)

# negtype reaches LAPACK through the numpy module it imported; only its
# verdict calls eigh, the oracle uses eigvalsh.
EIGH = ("numpy.linalg", "eigh")

REQUEST_SPAN = "cli.request"


def resolve(module: str, path: str) -> Tuple[object, str]:
    """The object owning a binding, and the binding's name on it."""
    owner: object = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def all_bindings() -> List[Tuple[str, str]]:
    return [(m, p) for m, p, _ in SPANS + COUNTERS] + [EIGH]


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        # (request, name, start, end, parent index or -1, outermost of its name)
        self.spans: List[Tuple[int, str, float, float, int, bool]] = []
        self.counts: Counter = Counter()
        self._stack: List[Tuple[str, float, int]] = []
        self._active: Counter = Counter()
        self._request = -1

    def enter(self, name: str) -> None:
        self._stack.append((name, time.perf_counter(), len(self.spans)))
        self.spans.append(None)  # placeholder keeps parent indices stable
        self._active[name] += 1

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, slot = self._stack.pop()
        self._active[name] -= 1
        parent = self._stack[-1][2] if self._stack else -1
        self.spans[slot] = (self._request, name, start, end, parent, self._active[name] == 0)
        self.counts[name + "_calls"] += 1

    @contextlib.contextmanager
    def request(self, index: int) -> Iterator[None]:
        self._request = index
        self.enter(REQUEST_SPAN)
        try:
            yield
        finally:
            self.exit()
            self._request = -1

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if name == "oracle.descent":

        @functools.wraps(fn)
        def descent(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            tracer.counts["oracle.descent_iterations"] += result.iterations
            tracer.counts["oracle.descent_unconverged"] += 0 if result.converged else 1
            return result

        return descent

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _counter_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _eigh_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        m = a.shape[-1]
        tracer.counts["negtype.eigh_calls"] += 1
        tracer.counts["negtype.eig_m3_sum"] += m * m * m
        return fn(a, *args, **kwargs)

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every binding for the duration of the block, then restore."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for module, path, name in SPANS:
            owner, attr = resolve(module, path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _span_wrapper(tracer, name, original))
        for module, path, name in COUNTERS:
            owner, attr = resolve(module, path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _counter_wrapper(tracer, name, original))
        owner, attr = resolve(*EIGH)
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _eigh_wrapper(tracer, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metrics: each span layer's inclusive time and call count, each
# counter, and the counts the special wrappers above add.
SPAN_TIMES = tuple(dict.fromkeys(name for *_, name in SPANS))
COUNTS = (
    tuple((f"{name}_calls", "count") for name in SPAN_TIMES)
    + tuple((name, "count") for *_, name in COUNTERS)
    + (
        ("negtype.eigh_calls", "count"),
        ("negtype.eig_m3_sum", "m3_computed"),
        ("oracle.descent_iterations", "count"),
        ("oracle.descent_unconverged", "count"),
        ("cli.requests", "count"),
    )
)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Reduce one pass of spans and counters to per-layer numbers.

    A layer's time is the sum of its outermost spans, so it includes the
    layers it calls.  ``cli.self_s`` is each request span minus the spans
    directly under it: argument parsing, file reading and report assembly.
    """
    busy: Dict[str, float] = {name: 0.0 for name in SPAN_TIMES}
    child_time: Dict[int, float] = {}
    self_time = 0.0
    for record in tracer.spans:
        _req, name, start, end, parent, outermost = record
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        if outermost and name in busy:
            busy[name] += end - start
    for index, record in enumerate(tracer.spans):
        if record[1] == REQUEST_SPAN:
            self_time += (record[3] - record[2]) - child_time.get(index, 0.0)
    out = {f"{name}_s": value for name, value in busy.items()}
    out["cli.self_s"] = self_time
    for name, _unit in COUNTS:
        out[name] = float(tracer.counts.get(name, 0))
    out["cli.requests"] = float(tracer.counts.get(REQUEST_SPAN + "_calls", 0))
    return out
