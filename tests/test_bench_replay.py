"""Every benchmark request, replayed in process and graded by the benchmark.

``perfbench/workloads.py`` builds each workload's requests with the answer
it expects, computed by ``perfbench/reference.py`` without treegap.  A
change that moves printed values in their last digits must stay within the
tolerances that grader applies, so this runs it on the two seeds whose
stdout the project's byte-identity records compare.
"""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from treegap.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("closed-form", "spectral", "oracle")


@pytest.mark.parametrize(
    "workload, seed",
    [pytest.param(w, s, id=w if s == 5 else f"{w}-{s}") for s in (5, 11) for w in WORKLOADS],
)
def test_benchmark_requests_grade_correct(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = importlib.import_module("reference")
    requests = workloads.build(workload, seed)
    for name, text in workloads.input_files(requests).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    problems = {}
    for request in requests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(request.argv)
        found = reference.check_output(request.expect, code, out.getvalue())
        if found:
            problems[request.rid] = found
    assert problems == {}
