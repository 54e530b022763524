"""Runs one workload's request list in process, as a closed loop.

Started by ``run.py`` as a fresh interpreter, so its peak memory belongs to
the workload alone.  It imports treegap from the ``src`` directory it is
given, calls ``treegap.cli.main(argv)`` for each request with stdout and
stderr captured, and writes timings and outputs as JSON.

One untimed warm-up pass comes first; its stdout is the answer
``run.py`` grades, and every later pass must print the same bytes.  With
``--trace 1`` the time is split between untraced passes and traced passes,
and the traced passes also yield per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracing import Tracer, installed, layer_metrics

MIN_LATENCY_SAMPLES = 100


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded, when it can be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started its program.

    ``VmHWM`` is reset by exec.  ``ru_maxrss`` is not: it keeps the forked
    parent's size, which would charge the benchmark's own inputs to the
    workload.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def run_one(cli, argv: List[str]) -> Tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), time.perf_counter() - start


def run_passes(cli, requests, reference, budget: float, min_passes: int, stop_at: float,
               tracer=None):
    """Repeat the request list until the budget is spent and min_passes ran.

    A pass that would not end by ``stop_at`` (a ``perf_counter`` time,
    judged from the slowest pass so far) is not started, unless no pass
    has run yet, so a slower program gets fewer passes instead of running
    past the benchmark's time limit.

    Returns per-pass wall times, per-request latencies, requests whose
    output differed from ``reference``, and per-pass layer metrics.
    """
    walls: List[float] = []
    latencies: List[List[float]] = [[] for _ in requests]
    mismatches: List[int] = []
    layers: List[Dict[str, float]] = []
    begin = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - begin < budget:
        if walls and time.perf_counter() + max(walls) > stop_at:
            break
        pass_start = time.perf_counter()
        for k, request in enumerate(requests):
            if tracer is None:
                code, stdout, took = run_one(cli, request["argv"])
            else:
                with tracer.request(k):
                    code, stdout, took = run_one(cli, request["argv"])
            latencies[k].append(took)
            if (code, stdout) != reference[k]:
                mismatches.append(k)
        walls.append(time.perf_counter() - pass_start)
        if tracer is not None:
            layers.append(layer_metrics(tracer))
            tracer.reset()
    return {"walls": walls, "latencies": latencies, "mismatches": mismatches, "layers": layers}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory holding the treegap package")
    parser.add_argument("--workdir", required=True, help="directory of the input files")
    parser.add_argument("--requests", required=True, help="JSON request list")
    parser.add_argument("--out", required=True, help="where to write the results")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, required=True,
                        help="seconds from start by which the timed passes must end")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.deadline

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import treegap
    from treegap import cli

    if Path(treegap.__file__).resolve().parent != src / "treegap":
        print(f"treegap imported from {treegap.__file__}, not {src}", file=sys.stderr)
        return 1

    with open(args.requests, encoding="utf-8") as fh:
        requests = json.load(fh)
    os.chdir(args.workdir)

    warm = [run_one(cli, r["argv"]) for r in requests]
    reference = [(code, stdout) for code, stdout, _ in warm]
    # Enough passes that at least ten latency samples lie beyond the p90.
    min_passes = max(3, math.ceil(MIN_LATENCY_SAMPLES / len(requests)))
    result: Dict = {
        "treegap_file": treegap.__file__,
        "blas_threads": blas_threads(),
        "warmup": [{"code": c, "stdout": s} for c, s in reference],
    }
    if args.trace:
        # The untraced passes may use half the time left, the traced the rest.
        halfway = (time.perf_counter() + deadline) / 2
        result["untraced"] = run_passes(cli, requests, reference, args.seconds / 2, 2, halfway)
        tracer = Tracer()
        with installed(tracer):
            result["traced"] = run_passes(
                cli, requests, reference, args.seconds / 2, 2, deadline, tracer
            )
    else:
        result["untraced"] = run_passes(
            cli, requests, reference, args.seconds, min_passes, deadline
        )
    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
