"""The JSON metric reader and matrix checks as they were before ``dist`` was read by rows.

``load_metric`` is the old JSON branch of ``treegap.cli._load_host``: the
whole document through ``json.loads``, then its ``"dist"`` lists through
``np.array``.  ``checked_matrix`` is the old ``metric._checked_matrix``,
with its ``|d|``, ``d - d^T`` and ``d/2 + d^T/2`` temporaries.  The
differential tests in ``test_cli.py`` hold the new reader and checks to
these: the same labels and a bitwise-equal matrix and slack, or the same
exception type and message.
"""

from __future__ import annotations

import json
from typing import Tuple

import numpy as np

from treegap import FiniteMetric, InvalidMetric

_SLACK = 1e-12


def load_metric(text: str) -> FiniteMetric:
    """The metric of a JSON document's text, after any leading byte-order mark."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidMetric(f"malformed JSON distance matrix: {exc}") from exc
    return _parse_metric_json(payload)


def _parse_metric_json(payload) -> FiniteMetric:
    if not isinstance(payload, dict) or "labels" not in payload or "dist" not in payload:
        raise InvalidMetric('a JSON metric needs "labels" and "dist" keys')
    if not isinstance(payload["labels"], list):
        raise InvalidMetric('"labels" must be a JSON list')
    dist = payload.pop("dist")
    try:
        dist = np.array(dist, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass  # FiniteMetric raises the same error from the lists, after the labels'
    metric = FiniteMetric(payload["labels"], dist)
    printed: set = set()
    for key in map(str, metric.labels):
        if key in printed:
            raise InvalidMetric(f"two labels print as {key!r}")
        printed.add(key)
    return metric


def checked_matrix(labels: Tuple, d: np.ndarray) -> Tuple[np.ndarray, float]:
    """Everything but the triangle inequality; the symmetrized matrix and slack."""
    if len(labels) == 0:
        raise InvalidMetric("a metric space needs at least one point")
    n = len(labels)
    if d.shape != (n, n):
        raise InvalidMetric(f"matrix shape {d.shape} does not match {n} labels")
    if not np.all(np.isfinite(d)):
        raise InvalidMetric("distances must be finite")
    scale = float(np.max(np.abs(d))) if n > 1 else 1.0
    slack = _SLACK * max(scale, 1.0)
    if np.max(np.abs(d - d.T)) > slack:
        raise InvalidMetric("matrix is not symmetric")
    d = d / 2.0 + d.T / 2.0
    if np.max(np.abs(np.diag(d))) > slack:
        raise InvalidMetric("diagonal is not zero")
    np.fill_diagonal(d, np.inf)
    if d.min() <= 0.0:
        raise InvalidMetric("off-diagonal distances must be positive")
    np.fill_diagonal(d, 0.0)
    return d, slack
