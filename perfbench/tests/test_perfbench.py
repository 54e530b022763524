"""Tests of the benchmark itself: bindings, trace transparency, inputs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import time
from types import SimpleNamespace

import pytest

import reference
import run
import tracing
import workloads
import worker


def test_every_wrapped_binding_exists():
    # A renamed or moved function must fail here, not silently zero a layer.
    for module, path in tracing.all_bindings():
        owner, attr = tracing.resolve(module, path)
        assert callable(getattr(owner, attr)), f"{module}.{path} is not callable"


def test_installed_wraps_and_restores_every_binding():
    before = {b: getattr(*tracing.resolve(*b)) for b in tracing.all_bindings()}
    with tracing.installed(tracing.Tracer()):
        for binding, original in before.items():
            assert getattr(*tracing.resolve(*binding)) is not original, binding
    for binding, original in before.items():
        assert getattr(*tracing.resolve(*binding)) is original, binding


def _small_requests():
    """Cheap requests from every workload, covering every command."""
    closed = workloads.build("closed-form", 3)[:8]
    spectral = [
        r for r in workloads.build("spectral", 3)
        if r.command in ("star", "necklace") or r.rid.startswith("sp00-")
    ]
    oracle = workloads.build("oracle", 3)
    oracle = oracle[:3] + [r for r in oracle if r.command == "oracle"][:1]
    return closed + spectral + oracle


@pytest.fixture(scope="module")
def small_requests(tmp_path_factory):
    requests = _small_requests()
    workdir = tmp_path_factory.mktemp("inputs")
    for name, text in workloads.input_files(requests).items():
        (workdir / name).write_text(text, encoding="utf-8")
    here = os.getcwd()
    os.chdir(workdir)
    yield requests
    os.chdir(here)


def test_traced_stdout_is_byte_identical_and_answers_are_right(small_requests):
    from treegap import cli

    untraced = [worker.run_one(cli, r.argv)[:2] for r in small_requests]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = []
        for k, request in enumerate(small_requests):
            with tracer.request(k):
                traced.append(worker.run_one(cli, request.argv)[:2])
    for request, plain, wrapped in zip(small_requests, untraced, traced):
        assert plain == wrapped, request.rid
        assert reference.check_output(request.expect, *plain) == [], request.rid

    layers = tracing.layer_metrics(tracer)
    assert layers["cli.requests"] == len(small_requests)
    for name in ("generic.gamma_T_calls", "negtype.eigh_calls", "oracle.brute_force_calls",
                 "oracle.descent_iterations", "simplex.extended_gap_calls",
                 "tree.distance_calls"):
        assert layers[name] > 0, name
    assert 0.0 < layers["cli.self_s"] < sum(
        span[3] - span[2] for span in tracer.spans if span[1] == tracing.REQUEST_SPAN
    )


def test_grader_names_a_wrong_answer(small_requests):
    from treegap import cli

    request = next(r for r in small_requests if r.command == "gap")
    code, stdout, _ = worker.run_one(cli, request.argv)
    doc = json.loads(stdout)
    doc["gamma"] *= 1.0 + 1e-9
    assert reference.check_output(request.expect, code, json.dumps(doc))
    assert reference.check_output(request.expect, 3, stdout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    def snapshot(seed):
        requests = workloads.build(workload, seed)
        return [r.argv for r in requests], workloads.input_files(requests)

    first = snapshot(5)
    assert snapshot(5) == first
    assert snapshot(6)[1] != first[1]


def _benchmark_names(kind):
    path = os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _fake_result(requests, passes):
    lats = [[0.001 * (k + 1) * (1 + 0.01 * i) for i in range(passes)]
            for k in range(len(requests))]
    return {
        "peak_rss_mb": 30.0,
        "untraced": {"walls": [1.0] * passes, "latencies": lats},
        "traced": {"walls": [1.1] * passes,
                   "layers": [tracing.layer_metrics(tracing.Tracer())] * passes},
    }


def test_reported_metrics_are_the_ones_benchmark_json_declares():
    requests = [SimpleNamespace(command=c) for c in run.COMMAND_GROUPS] * 6
    result = _fake_result(requests, 3)
    metrics, info = run.end_to_end(requests, result, 0.3)
    assert set(metrics) == _benchmark_names("end_to_end")
    assert info["latency_samples"] == 3 * len(requests) >= 100
    samples = [t * 1e3 for lats in result["untraced"]["latencies"] for t in lats]
    assert sum(s > metrics["lat_p90_ms"][0] for s in samples) >= 10
    metrics, _ = run.per_layer(requests, result)
    assert set(metrics) == _benchmark_names("per_layer")


def test_passes_stop_before_the_deadline():
    class Cli:
        calls = 0

        def main(self, argv):
            Cli.calls += 1
            return 0

    requests = [{"argv": ["gap", "x"]}] * 4
    done = worker.run_passes(Cli(), requests, [(0, "")] * 4, 0.0, 5, time.perf_counter())
    assert len(done["walls"]) == 1 and Cli.calls == 4
    done = worker.run_passes(Cli(), requests, [(0, "")] * 4, 0.0, 5, time.perf_counter() + 60)
    assert len(done["walls"]) == 5
