"""The treegap benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program under test is the checkout's
own ``src/treegap``; without it the benchmark exits with code 2 and prints
no result.  Inputs are generated from the seed into ``perfbench/_work``
(removed afterwards), a fresh worker interpreter runs the request list as
a closed loop with one client, and every answer is graded against
references computed here without treegap.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.  The line before it is a summary with
sample counts, pass counts, BLAS threads and any failing requests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import numpy as np

import reference
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 15
# A run must end within 180 s.  The worker's timed passes stop in time to
# leave GRADE_MARGIN_S for writing, grading and printing the result.
RUN_LIMIT_S = 175.0
GRADE_MARGIN_S = 10.0
# `star` and `necklace` are reported together as the family requests.
COMMAND_GROUPS = {
    "gap": "gap",
    "verify": "verify",
    "check": "check",
    "maxp": "maxp",
    "star": "family",
    "necklace": "family",
    "oracle": "oracle",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(workdir: Path) -> tuple:
    """Median wall time of a fresh `python -m treegap.cli` on a trivial tree.

    One probe runs first untimed, so byte-code compilation and the file
    cache are warm as they are for any installed copy.
    """
    probe = workdir / "trivial.tsv"
    probe.write_text(workloads.TRIVIAL_TREE, encoding="utf-8")
    argv = [sys.executable, "-m", "treegap.cli", "gap", probe.name]
    times: List[float] = []
    problems: List[str] = []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        done = subprocess.run(
            argv, cwd=workdir, env=cli_env(), capture_output=True, text=True, timeout=60
        )
        took = time.perf_counter() - start
        problems += reference.check_setup_output(done.returncode, done.stdout)
        if k:
            times.append(took)
    return statistics.median(times), problems


def run_worker(workdir: Path, requests, seconds: float, trace: int, limit_at: float) -> Dict:
    """Run the worker and return its results; it is killed at ``limit_at``."""
    request_file = workdir / "requests.json"
    request_file.write_text(
        json.dumps([{"rid": r.rid, "argv": r.argv} for r in requests]), encoding="utf-8"
    )
    out = workdir / "result.json"
    argv = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--src", str(SRC),
        "--workdir", str(workdir),
        "--requests", str(request_file),
        "--out", str(out),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--deadline", repr(limit_at - time.perf_counter() - GRADE_MARGIN_S),
    ]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(argv, env=env)
    try:
        code = proc.wait(timeout=max(0.0, limit_at - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"the run did not finish within {RUN_LIMIT_S} s")
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def grade(requests, result: Dict) -> tuple:
    """(attempted, failed, problems by request id) over every execution."""
    passes = [result["untraced"]] + ([result["traced"]] if "traced" in result else [])
    runs_per_request = 1 + sum(len(p["walls"]) for p in passes)
    attempted = runs_per_request * len(requests)
    failed = 0
    problems: Dict[str, List[str]] = {}
    for k, request in enumerate(requests):
        warm = result["warmup"][k]
        found = reference.check_output(request.expect, warm["code"], warm["stdout"])
        if found:
            problems[request.rid] = found
            failed += runs_per_request
            continue
        differing = sum(p["mismatches"].count(k) for p in passes)
        if differing:
            problems[request.rid] = [f"{differing} repeat(s) printed other bytes"]
            failed += differing
    return attempted, failed, problems


def command_totals(requests, block: Dict) -> Dict[str, float]:
    """Mean over passes of the summed latency of each command group."""
    per_pass: Dict[str, List[float]] = defaultdict(lambda: [0.0] * len(block["walls"]))
    for request, lats in zip(requests, block["latencies"]):
        group = COMMAND_GROUPS[request.command]
        for i, took in enumerate(lats):
            per_pass[group][i] += took
    return {g: statistics.fmean(v) for g, v in per_pass.items()}


def end_to_end(requests, result: Dict, setup_s: float) -> tuple:
    block = result["untraced"]
    # Every timed execution is one sample; the worker makes at least 100,
    # so at least ten lie beyond the 90th percentile.
    samples = [took * 1e3 for lats in block["latencies"] for took in lats]
    metrics = {
        "wall_s": (statistics.fmean(block["walls"]), "s"),
        "lat_p50_ms": (statistics.median(samples), "ms"),
        "lat_p90_ms": (quantile(samples, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    info = {
        "passes": len(block["walls"]),
        "requests_per_pass": len(requests),
        "latency_samples": len(samples),
        "command_totals_s": command_totals(requests, block),
    }
    return metrics, info


def per_layer(requests, result: Dict) -> tuple:
    traced = result["traced"]
    metrics = {}
    for name in tracing.SPAN_TIMES:
        key = f"{name}_s"
        metrics[key] = (statistics.median(p[key] for p in traced["layers"]), "s")
    metrics["cli.self_s"] = (statistics.median(p["cli.self_s"] for p in traced["layers"]), "s")
    for name, unit in tracing.COUNTS:
        metrics[name] = (statistics.median(p[name] for p in traced["layers"]), unit)
    totals = command_totals(requests, result["untraced"])
    for group in ("gap", "verify", "check", "maxp", "family", "oracle"):
        metrics[f"cmd.{group}_s"] = (totals.get(group, 0.0), "s")
    ratio = statistics.fmean(traced["walls"]) / statistics.fmean(result["untraced"]["walls"])
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    info = {
        "untraced_passes": len(result["untraced"]["walls"]),
        "traced_passes": len(traced["walls"]),
        "requests_per_pass": len(requests),
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treegap" / "cli.py").is_file():
        return fail(f"no treegap sources under {SRC}; run from a full checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    workdir = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        started = time.perf_counter()
        limit_at = started + RUN_LIMIT_S
        requests = workloads.build(args.workload, args.seed)
        for name, text in workloads.input_files(requests).items():
            (workdir / name).write_text(text, encoding="utf-8")
        generate_s = time.perf_counter() - started
        # Set-up time is an end-to-end metric; a traced run does not report it.
        setup_s, setup_problems = (None, []) if args.trace else measure_setup(workdir)
        result = run_worker(workdir, requests, args.seconds, args.trace, limit_at)
        attempted, failed, problems = grade(requests, result)
        if setup_problems:
            problems["setup-probe"] = sorted(set(setup_problems))
            failed += 1
        if args.trace:
            metrics, info = per_layer(requests, result)
        else:
            metrics, info = end_to_end(requests, result, setup_s)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    for rid, found in problems.items():
        print(f"FAIL {rid}: {'; '.join(found)}", file=sys.stderr)
    info.update(
        workload=args.workload,
        seed=args.seed,
        fail_ratio=failed / attempted,
        generate_s=generate_s,
        blas_threads=result["blas_threads"],
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    print("# " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
