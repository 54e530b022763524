"""Informational size ladder: single layer calls over growing n.  Not gated.

    python3 perfbench/ladder.py --seed 0 > ladder.json

Times ``gamma_T`` and ``metric_from_tree`` on random trees, ``FiniteMetric``
validation, one verdict (p = 1.5) and ``max_negative_type`` on Euclidean
point sets in dimension 4, over n in {100, 400, 800, 1600, 6400}, and
``brute_force_gamma`` over n = 5..9.  n = 800 matches the sizes of the
baseline in ROADMAP.md.  A call is skipped when its time, extrapolated
from the previous size by the layer's growth exponent, would exceed the
per-call budget of 20 s, or when its matrices would not fit the memory
cap.  The JSON printed records the commit, Python, numpy, BLAS, BLAS
threads, nproc and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

import workloads
from worker import blas_threads

ROOT = Path(__file__).resolve().parent.parent
SIZES = (100, 400, 800, 1600, 6400)
BRUTE_FORCE_SIZES = (5, 6, 7, 8, 9)
# Growth exponents used to extrapolate one size to the next.
GROWTH = {
    "gamma_T": 2.5,
    "metric_from_tree": 2.5,
    "FiniteMetric": 3.0,
    "verdict": 3.0,
    "max_negative_type": 3.0,
    "brute_force_gamma": 5.0,
}
# Dense n x n float arrays a layer holds at once, for the memory cap.
MATRICES = {"metric_from_tree": 4, "FiniteMetric": 6, "verdict": 6, "max_negative_type": 6}
MEMORY_CAP_BYTES = 1 << 30
BUDGET_S = 20.0  # per call


def commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "treegap").is_dir():
        print(f"ladder: no treegap sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from treegap import (
        FiniteMetric,
        brute_force_gamma,
        build_tree,
        gamma_T,
        has_p_negative_type,
        max_negative_type,
        metric_from_tree,
    )

    rng = random.Random(f"ladder:{args.seed}")
    nrng = np.random.default_rng([args.seed, 11])

    def tree(n):
        t = workloads.make_tree(rng, "random", n)
        return build_tree(t.labels, t.labelled_edges())

    def euclid(n):
        return workloads.euclidean_metric(nrng, n, 4)

    def metric(n):
        return FiniteMetric([f"x{k}" for k in range(n)], euclid(n))

    layers = [
        ("gamma_T", SIZES, tree, gamma_T),
        ("metric_from_tree", SIZES, tree, metric_from_tree),
        ("FiniteMetric", SIZES, euclid,
         lambda d: FiniteMetric([f"x{k}" for k in range(len(d))], d)),
        ("verdict", SIZES, metric, lambda m: has_p_negative_type(m, 1.5)),
        ("max_negative_type", SIZES, metric, max_negative_type),
        ("brute_force_gamma", BRUTE_FORCE_SIZES, tree, brute_force_gamma),
    ]
    results = []
    for name, sizes, make, call in layers:
        last = None
        for n in sizes:
            entry = {"layer": name, "n": n}
            if 8 * n * n * MATRICES.get(name, 0) > MEMORY_CAP_BYTES:
                entry["skipped"] = "memory cap"
            elif last is not None and last[1] * (n / last[0]) ** GROWTH[name] > BUDGET_S:
                entry["skipped"] = "predicted over budget"
            else:
                took = timed(call, make(n))
                entry["seconds"] = took
                last = (n, took)
            results.append(entry)
            print(json.dumps(entry), file=sys.stderr, flush=True)
    print(json.dumps({"environment": environment(args.seed), "results": results},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
