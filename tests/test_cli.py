import argparse
import gc
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treegap import (
    FiniteMetric,
    InvalidMetric,
    TooLarge,
    build_star,
    gamma_T,
    generic_delta,
    parse_edge_list,
    star_max_p,
)
import treegap.cli as cli_module
import treegap.generic as generic_module
import treegap.metric as metric_module
import treegap.simplex as simplex_module
import treegap.tree as tree_module
from treegap.cli import main

import reference_metric_json
from conftest import (
    UNIT_ROUNDOFF,
    exact_reciprocal_sum,
    exact_witness_gap,
    relative_error,
    same_metric,
    witness_gap_bound,
)

PATH3_NEWICK = "(a:1,b:1)m;\n"
PATH3_EDGELIST = "a\tm\t1\nm\tb\t1\n"
METRIC3_JSON = '{"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}'
TREE10_EDGELIST = "".join(
    f"{u}\t{v}\t{w}\n"
    for u, v, w in [
        ("v0", "v1", 1.5), ("v1", "v2", 2), ("v1", "v3", 0.7), ("v3", "v4", 1), ("v3", "v5", 3),
        ("v0", "v6", 2.2), ("v6", "v7", 1), ("v6", "v8", 0.4), ("v8", "v9", 1.1),
    ]
)
# The same tree as Newick hung from v0, spacing between its tokens but for
# the group labels, which follow their ')' directly.
TREE10_NEWICK = (
    "( ( v2 : 2 , ( v4 : 1 , v5 : 3 )v3 : 0.7 )v1 : 1.5 ,"
    " ( v7 : 1 , ( v9 : 1.1 )v8 : 0.4 )v6 : 2.2 )v0 ;\n"
)


@pytest.fixture()
def path3_file(tmp_path):
    f = tmp_path / "path3.nwk"
    f.write_text(PATH3_NEWICK)
    return str(f)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGapCommand:
    def test_json_document(self, capsys, path3_file):
        code, out, _ = run(capsys, ["gap", path3_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma"] == 0.5
        assert doc["delta_star"] == 0.5
        assert doc["tree_summary"]["n_vertices"] == 3
        assert doc["tree_summary"]["unit_weights"] is True
        assert doc["generic_weights"]["a_team"] == {"a": 0.5, "b": 0.5}
        assert doc["generic_weights"]["b_team"] == {"m": 1.0}
        names = {c["name"]: c["passed"] for c in doc["checks"]}
        assert names["witness_gap_matches_closed_form"] is True
        assert names["brute_force_agrees"] is True

    def test_text_output(self, capsys, path3_file):
        code, out, _ = run(capsys, ["gap", path3_file, "--output", "text"])
        assert code == 0
        assert "gamma = 0.5" in out
        assert "PASS witness_gap_matches_closed_form" in out

    def test_edge_list_input_autodetected(self, capsys, tmp_path):
        f = tmp_path / "path3.tsv"
        f.write_text(PATH3_EDGELIST)
        code, out, _ = run(capsys, ["gap", str(f)])
        assert code == 0
        assert json.loads(out)["gamma"] == 0.5

    def test_format_can_be_forced(self, capsys, tmp_path):
        f = tmp_path / "tree.txt"
        f.write_text(PATH3_NEWICK)
        code, _, _ = run(capsys, ["gap", str(f), "--format", "newick"])
        assert code == 0
        code, _, err = run(capsys, ["gap", str(f), "--format", "edgelist"])
        assert code == 2
        assert "error" in err

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(PATH3_NEWICK))
        code, out, _ = run(capsys, ["gap", "-"])
        assert code == 0
        assert json.loads(out)["gamma"] == 0.5

    def test_json_is_byte_identical_across_runs(self, capsys, path3_file):
        _, first, _ = run(capsys, ["gap", path3_file])
        _, second, _ = run(capsys, ["gap", path3_file])
        assert first == second

    def test_malformed_newick_exits_2(self, capsys, tmp_path):
        f = tmp_path / "broken.nwk"
        f.write_text("(a:1,b:1")
        code, _, err = run(capsys, ["gap", str(f)])
        assert code == 2
        assert err.startswith("error:")

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, ["gap", "/nonexistent/tree.nwk"])
        assert code == 2

    def test_metric_json_is_rejected_for_tree_commands(self, capsys, tmp_path):
        f = tmp_path / "metric.json"
        f.write_text('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]]}')
        code, _, err = run(capsys, ["gap", str(f)])
        assert code == 2
        assert "distance matrices" in err

    def test_single_vertex_tree_exits_3(self, capsys, tmp_path):
        f = tmp_path / "lone.nwk"
        f.write_text("x;\n")
        code, _, _ = run(capsys, ["gap", str(f)])
        assert code == 3

    def test_long_path_edge_list(self, capsys, tmp_path):
        weights = [0.1 + (i * 37 % 101) / 10.0 for i in range(4999)]
        f = tmp_path / "path5000.tsv"
        f.write_text("".join(f"v{i}\tv{i + 1}\t{w!r}\n" for i, w in enumerate(weights)))
        code, out, _ = run(capsys, ["gap", str(f)])
        assert code == 0
        assert json.loads(out)["gamma"] == pytest.approx(1.0 / sum(1.0 / w for w in weights), rel=1e-12)

    @pytest.mark.parametrize(
        "weight",
        [lambda i: 0.1 + (i * 37 % 101) / 10.0, lambda i: 0.7, lambda i: 1.5, lambda i: 3.0],
        ids=["varied", "0.7", "1.5", "3.0"],
    )
    def test_path_of_a_hundred_thousand_vertices(self, capsys, tmp_path, weight):
        # Reading, solving and writing are each linear in n; a quadratic
        # Newick writer took about 35 s here.  A sequential sum of 1/w
        # drifted by 1.3e-12 over 10**5 equal inexact terms, which failed
        # the witness's team sums on the constant paths.
        n = 100_000
        weights = [weight(i) for i in range(n - 1)]
        f = tmp_path / "path.tsv"
        f.write_text("".join(f"v{i}\tv{i + 1}\t{w!r}\n" for i, w in enumerate(weights)))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["gap", "--format", "edgelist", str(f)])
        took = time.perf_counter() - start
        assert code == 0
        gamma = json.loads(out)["gamma"]
        assert relative_error(gamma, 1 / exact_reciprocal_sum(weights)) <= 4e-16
        assert took < 15.0

    def test_internal_error_exits_4(self, capsys, path3_file, monkeypatch):
        import treegap.cli as cli_module

        def boom(tree):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_module, "gamma_T", boom)
        code, _, err = run(capsys, ["gap", path3_file])
        assert code == 4
        assert "internal error" in err


class TestMaxpCommand:
    def test_tree_input(self, capsys, path3_file):
        code, out, _ = run(capsys, ["maxp", path3_file])
        assert code == 0
        payload = json.loads(out)["max_p"]
        assert abs(payload["p_star"] - 2.0) <= 1e-5
        assert payload["certified"] is True
        assert payload["zeta"] == pytest.approx(math.log(1.0625) / math.log(2.0))
        lo, hi = payload["strict_interval"]
        assert lo < 1.0 < hi
        assert payload["unweighted_lower_bound"] == pytest.approx(1.1699250014423124)

    def test_metric_json_input(self, capsys, tmp_path):
        f = tmp_path / "pair.json"
        f.write_text('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]]}')
        code, out, _ = run(capsys, ["maxp", str(f)])
        assert code == 0
        payload = json.loads(out)["max_p"]
        assert payload["p_star"] is None
        assert payload["p_star_at_least"] == 64.0
        assert payload["certified"] is False

    def test_malformed_metric_json_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"labels": ["a"]}')
        code, _, _ = run(capsys, ["maxp", str(f)])
        assert code == 2


class TestCheckCommand:
    def test_boundary_exponent(self, capsys, path3_file):
        code, out, _ = run(capsys, ["check", path3_file, "--p", "2"])
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        eig = checks["eigenvalue_verdict"]
        assert eig["status"] == "non_strict"
        assert set(eig["certificate"]) == {"a", "b", "m"}
        assert checks["roundness_sampling"]["passed"] is True

    def test_labels_that_print_alike_exit_2(self, capsys, tmp_path):
        # Certificate weights are keyed by printed label: 1 and "1" would merge.
        f = tmp_path / "alike.json"
        f.write_text('{"labels": [1, "1", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}')
        code, out, err = run(capsys, ["check", str(f), "--p", "3"])
        assert code == 2
        assert out == ""
        assert "'1'" in err

    def test_failing_exponent_still_exits_0(self, capsys, path3_file):
        code, out, _ = run(capsys, ["check", path3_file, "--p", "2.5"])
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["eigenvalue_verdict"]["status"] == "fails"
        assert checks["eigenvalue_verdict"]["passed"] is False
        assert checks["roundness_sampling"]["passed"] is False
        assert checks["roundness_sampling"]["worst_margin"] < 0

    def test_requires_p(self, capsys, path3_file):
        with pytest.raises(SystemExit) as exc:
            run(capsys, ["check", path3_file])
        assert exc.value.code == 2

    def test_back_to_back_calls_share_no_state(self, capsys, tmp_path):
        # main reuses one parser: neither an option nor a usage error may
        # carry over into the next call.
        f = tmp_path / "tree10.tsv"
        f.write_text(TREE10_EDGELIST)
        argv = ["check", str(f), "--p", "2.5"]
        seed0 = run(capsys, argv + ["--seed", "0"])
        seed3 = run(capsys, argv + ["--seed", "3"])
        assert seed3[0] == 0 and seed3[1] != seed0[1]
        assert run(capsys, argv) == seed0
        with pytest.raises(SystemExit) as exc:
            run(capsys, argv + ["--seed", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, argv) == seed0
        assert cli_module._parser() is cli_module._parser()


class TestGeneratorCommands:
    def test_star4(self, capsys):
        code, out, _ = run(capsys, ["star", "--n", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma"] == 0.25
        assert doc["max_p"]["closed_form_p_star"] == pytest.approx(star_max_p(4))
        names = {c["name"]: c["passed"] for c in doc["checks"]}
        assert names["bisection_matches_closed_form"] is True

    def test_star_edge_list_round_trips(self, capsys):
        code, out, _ = run(capsys, ["star", "--n", "5"])
        assert code == 0
        text = json.loads(out)["tree_summary"]["edge_list"]
        rebuilt = parse_edge_list(text)
        assert same_metric(rebuilt, build_star(5), tol=0.0)

    def test_star_too_small_exits_3(self, capsys):
        code, _, _ = run(capsys, ["star", "--n", "1"])
        assert code == 3

    def test_necklace3(self, capsys):
        code, out, _ = run(capsys, ["necklace", "--n", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma"] == 1.0 / 6.0
        assert doc["tree_summary"]["n_edges"] == 6
        names = {c["name"]: c["passed"] for c in doc["checks"]}
        assert names["gamma_is_reciprocal_edge_count"] is True
        assert names["p_star_below_star_ceiling"] is True

    def test_necklace_too_small_exits_3(self, capsys):
        code, _, _ = run(capsys, ["necklace", "--n", "1"])
        assert code == 3


class TestVerifyCommand:
    def write_eta(self, tmp_path, rows):
        f = tmp_path / "eta.tsv"
        f.write_text("".join(f"{v}\t{x}\n" for v, x in rows))
        return str(f)

    def test_generic_witness(self, capsys, path3_file, tmp_path):
        eta = self.write_eta(tmp_path, [("a", 0.5), ("m", -1.0), ("b", 0.5)])
        code, out, _ = run(capsys, ["verify", path3_file, eta])
        assert code == 0
        check = json.loads(out)["checks"][0]
        assert check["name"] == "enhanced_inequality"
        assert abs(check["margin"]) <= 1e-12
        assert check["equality_attained"] is True
        assert check["passed"] is True

    def test_adjacent_pair(self, capsys, path3_file, tmp_path):
        eta = self.write_eta(tmp_path, [("a", 1.0), ("m", -1.0)])
        code, out, _ = run(capsys, ["verify", path3_file, eta])
        assert code == 0
        check = json.loads(out)["checks"][0]
        assert check["margin"] == pytest.approx(1.0, rel=1e-12)
        assert check["equality_attained"] is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_margin_exits_3(self, capsys, path3_file, tmp_path):
        heavy = tmp_path / "heavy.tsv"
        heavy.write_text("a\tb\t1.7e308\n")
        for tree, rows in (
            (path3_file, [("a", 1e300), ("b", -1e300)]),
            (path3_file, [("a", 1e300), ("m", -2e300), ("b", 1e300)]),
            # the margin of the witness itself overflows, through the edge form
            (str(heavy), [("a", 1.0), ("b", -1.0)]),
        ):
            eta = self.write_eta(tmp_path, rows)
            code, out, err = run(capsys, ["verify", tree, eta])
            assert (code, out) == (3, "")
            assert "overflows double precision" in err
        # Large weights whose margin is still a double are checked as usual.
        eta = self.write_eta(tmp_path, [("a", 1e150), ("b", -1e150)])
        code, out, _ = run(capsys, ["verify", path3_file, eta])
        assert code == 0
        check = json.loads(out)["checks"][0]
        assert check["passed"] is True
        assert check["margin"] == pytest.approx(3e300, rel=1e-12)

    def test_unbalanced_eta_exits_3(self, capsys, path3_file, tmp_path):
        eta = self.write_eta(tmp_path, [("a", 1.0), ("b", -2.0)])
        code, _, err = run(capsys, ["verify", path3_file, eta])
        assert code == 3
        assert "error" in err

    def test_unknown_vertex_exits_3(self, capsys, path3_file, tmp_path):
        eta = self.write_eta(tmp_path, [("zz", 1.0), ("b", -1.0)])
        code, _, _ = run(capsys, ["verify", path3_file, eta])
        assert code == 3

    def test_missing_eta_file_exits_2(self, capsys, path3_file):
        code, _, _ = run(capsys, ["verify", path3_file, "/nonexistent/eta.tsv"])
        assert code == 2


class TestOracleCommand:
    def test_cross_checks_pass(self, capsys, path3_file):
        code, out, _ = run(capsys, ["oracle", path3_file])
        assert code == 0
        doc = json.loads(out)
        names = {c["name"]: c for c in doc["checks"]}
        assert names["descent_on_generic_labeling_agrees"]["passed"] is True
        assert names["brute_force_agrees"]["passed"] is True
        assert names["stationarity_at_witness"]["passed"] is True

    def test_large_tree_skips_brute_force(self, capsys, tmp_path):
        edges = "".join(f"v{i}\tv{i + 1}\t1\n" for i in range(10))
        f = tmp_path / "path11.tsv"
        f.write_text(edges)
        code, out, _ = run(capsys, ["oracle", str(f)])
        assert code == 0
        names = {c["name"]: c for c in json.loads(out)["checks"]}
        assert "skipped" in names["brute_force_agrees"]

    def test_failed_cross_check_exits_4(self, capsys, path3_file, monkeypatch):
        import treegap.cli as cli_module

        class FakeResult:
            value = 123.0
            a_team = ("a",)
            b_team = ("b",)

        monkeypatch.setattr(cli_module, "brute_force_gamma", lambda tree: FakeResult())
        code, out, _ = run(capsys, ["oracle", path3_file])
        assert code == 4
        names = {c["name"]: c for c in json.loads(out)["checks"]}
        assert names["brute_force_agrees"]["passed"] is False


# The stored witness weights span 1e-28 to 1 here, and their rounding moves
# the witness's edge-form gap 3.2e-7 relative off gamma, past WITNESS_RTOL.
WITNESS_MISS_EDGELIST = (
    "v0\tv1\t1.987425399507633e+50\n"
    "v1\tv2\t9.792879854370982e+73\n"
    "v0\tv3\t1.5168379283414103e+46\n"
)


@pytest.mark.parametrize("command", ["gap", "verify", "oracle"])
def test_a_witness_miss_is_reported_and_fails_only_the_oracle(capsys, tmp_path, command):
    tree = tmp_path / "tree.tsv"
    tree.write_text(WITNESS_MISS_EDGELIST)
    eta = tmp_path / "eta.tsv"
    eta.write_text("v0\t3.0\nv1\t-1.0\nv2\t-1.0\nv3\t-1.0\n")
    argv = [command, str(tree)] + ([str(eta)] if command == "verify" else [])
    code, out, err = run(capsys, argv)
    assert err == ""
    checks = json.loads(out)["checks"]
    if command == "gap":
        assert code == 0
        assert {c["name"]: c["passed"] for c in checks} == {
            "witness_gap_matches_closed_form": False,
            "brute_force_agrees": True,
        }
    elif command == "verify":
        assert code == 0
    else:
        assert code == 4
        assert (checks[0]["name"], checks[0]["passed"]) == ("witness_gap_matches_closed_form", False)


def test_gap_and_verify_never_exit_4_on_wide_weight_spans(capsys, tmp_path):
    # 400 random 2-10-vertex trees, each with weights log-uniform in 1e+-s;
    # eta weighs every vertex, so verify compares it with the witness.
    rng = random.Random(11)
    tree, eta = tmp_path / "tree.tsv", tmp_path / "eta.tsv"
    codes = set()
    for _ in range(400):
        s = rng.choice([1, 4, 8, 16, 64, 150, 300])
        n = rng.randint(2, 10)
        tree.write_text("".join(
            f"v{rng.randrange(i)}\tv{i}\t{10.0 ** rng.uniform(-s, s)!r}\n" for i in range(1, n)
        ))
        eta.write_text("".join(f"v{i}\t{n - 1.0 if i == 0 else -1.0}\n" for i in range(n)))
        for argv in (["gap", str(tree)], ["verify", str(tree), str(eta)]):
            codes.add((argv[0], run(capsys, argv)[0]))
    assert codes <= {("gap", 0), ("gap", 3), ("verify", 0), ("verify", 3)}


@pytest.mark.parametrize(
    "argv, sums",
    [(["gap", "TREE10"], 1), (["star", "--n", "4"], 1), (["necklace", "--n", "4"], 1),
     (["oracle", "TREE10"], 1), (["maxp", "TREE10"], 1), (["verify", "TREE10", "PART"], 1),
     # An eta on every vertex is compared with the witness, so gamma_T sums again.
     (["verify", "TREE10", "EVERY"], 2)],
    ids=["gap", "star", "necklace", "oracle", "maxp", "verify", "verify-every-vertex"],
)
def test_each_request_sums_the_reciprocal_weights_once(capsys, tmp_path, monkeypatch, argv, sums):
    files = {"TREE10": TREE10_EDGELIST, "PART": "v0\t1.5\nv3\t-1.0\nv8\t-0.5\n",
             "EVERY": "v0\t9.0\n" + "".join(f"v{i}\t-1.0\n" for i in range(1, 10))}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    calls = []
    original = generic_module._reciprocal_sum

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(generic_module, "_reciprocal_sum", counted)
    assert run(capsys, [str(tmp_path / a) if a in files else a for a in argv])[0] == 0
    assert len(calls) == sums


# One request per subcommand; check fails at 2.5, so it prints a certificate.
EVERY_SUBCOMMAND = pytest.mark.parametrize(
    "argv",
    [["gap", "PATH3"], ["maxp", "PATH3"], ["check", "PATH3", "--p", "2.5"], ["star", "--n", "4"],
     ["necklace", "--n", "4"], ["verify", "PATH3", "ETA"], ["oracle", "PATH3"]],
    ids=["gap", "maxp", "check", "star", "necklace", "verify", "oracle"],
)


@EVERY_SUBCOMMAND
def test_no_subcommand_calls_eigh(capsys, path3_file, tmp_path, monkeypatch, argv):
    # Verdicts take eigenvalues from eigvalsh and a certificate from one solve.
    eta = tmp_path / "eta.tsv"
    eta.write_text("a\t0.5\nm\t-1.0\nb\t0.5\n")

    def eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert run(capsys, [{"PATH3": path3_file, "ETA": str(eta)}.get(a, a) for a in argv])[0] == 0


@pytest.mark.parametrize(
    "argv",
    [["maxp", "PATH3"], ["maxp", "PLANAR"], ["star", "--n", "9"], ["necklace", "--n", "5"]],
    ids=["tree", "metric", "star", "necklace"],
)
def test_a_maxp_request_computes_eigenvalues_once(capsys, path3_file, tmp_path, monkeypatch, argv):
    # The p* search reads signs from Cholesky factorizations; only the
    # verdict at p* calls eigvalsh.
    planar = tmp_path / "planar.json"
    points = np.array([(0, 0), (3, 1), (1, 4), (5, 5), (2, 7), (6, 2)], dtype=float)
    dist = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=-1))
    planar.write_text(json.dumps({"labels": [f"x{i}" for i in range(6)], "dist": dist.tolist()}))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    argv = [{"PATH3": path3_file, "PLANAR": str(planar)}.get(a, a) for a in argv]
    assert run(capsys, argv)[0] == 0
    assert len(calls) == 1


@EVERY_SUBCOMMAND
def test_no_request_leaves_cyclic_garbage(capsys, path3_file, tmp_path, argv):
    # Objects in a reference cycle outlive their request until the cyclic
    # collector runs, so a report must be written without making any.
    eta = tmp_path / "eta.tsv"
    eta.write_text("a\t0.5\nm\t-1.0\nb\t0.5\n")
    argv = [{"PATH3": path3_file, "ETA": str(eta)}.get(a, a) for a in argv]
    assert run(capsys, argv)[0] == 0  # builds the parser and other first-call state
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        garbage = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert (code, garbage) == (0, 0)


TREE10_SUMMARY = """{
  "tree_summary": {
    "n_vertices": 10,
    "n_edges": 9,
    "root": "v2",
    "total_weight": 12.9,
    "unit_weights": false,
    "newick": "(v2:2.0,((v7:1.0,(v9:1.1)v8:0.4)v6:2.2)v0:1.5,(v4:1.0,v5:3.0)v3:0.7)v1;"
  },
  "gamma": 0.1137370753323486,
"""

GAP_TREE10 = TREE10_SUMMARY + """  "delta_star": 0.1137370753323486,
  "generic_weights": {
    "a_team": {
      "v1": 0.29517479074347613,
      "v4": 0.1137370753323486,
      "v5": 0.037912358444116195,
      "v6": 0.4497784342688331,
      "v9": 0.103397341211226
    },
    "b_team": {
      "v0": 0.1275233874938454,
      "v2": 0.0568685376661743,
      "v3": 0.31413096996553425,
      "v7": 0.1137370753323486,
      "v8": 0.3877400295420975
    }
  },
  "max_p": null,
  "checks": [
    {
      "name": "witness_gap_matches_closed_form",
      "passed": true,
      "witness_gap": 0.11373707533234861
    }
  ]
}
"""


def _verify_tree10(margin: str, attained: str) -> str:
    return TREE10_SUMMARY + f"""  "delta_star": null,
  "generic_weights": null,
  "max_p": null,
  "checks": [
    {{
      "name": "enhanced_inequality",
      "passed": true,
      "margin": {margin},
      "equality_attained": {attained}
    }}
  ]
}}
"""


def test_closed_form_commands_build_no_simplex(capsys, path3_file, tmp_path, monkeypatch):
    eta = tmp_path / "eta.tsv"
    eta.write_text("a\t0.5\nm\t-1.0\nb\t0.5\n")
    argvs = [
        ["gap", path3_file],
        ["verify", path3_file, str(eta)],
        ["check", path3_file, "--p", "1"],
        ["maxp", path3_file],
        ["star", "--n", "4"],
        ["necklace", "--n", "4"],
    ]
    unpatched = [run(capsys, argv)[:2] for argv in argvs]
    assert [code for code, _ in unpatched] == [0] * len(argvs)

    def no_simplex(self, *args, **kwargs):
        raise AssertionError("a Simplex was built")

    monkeypatch.setattr(simplex_module.Simplex, "__init__", no_simplex)
    for argv, expected in zip(argvs, unpatched):
        assert run(capsys, argv)[:2] == expected, argv
    # The oracle's descent runs on the generic labeling, so it does build one.
    assert run(capsys, ["oracle", path3_file])[0] == 4


def test_tree_commands_read_no_edge_tuple(capsys, tmp_path, monkeypatch):
    tree10 = tmp_path / "tree10.tsv"
    tree10.write_text(TREE10_EDGELIST)
    eta = tmp_path / "eta.tsv"
    eta.write_text("v2\t1.0\nv4\t-0.5\nv9\t-0.5\n")
    argvs = [
        ["gap", str(tree10)],
        ["verify", str(tree10), str(eta)],
        ["check", str(tree10), "--p", "1"],
        ["maxp", str(tree10)],
        ["oracle", str(tree10)],
    ]
    unpatched = [run(capsys, argv)[:2] for argv in argvs]
    assert [code for code, _ in unpatched] == [0] * len(argvs)

    def no_edges(self):
        raise AssertionError("MetricTree.edges was read")

    monkeypatch.setattr(tree_module.MetricTree, "edges", property(no_edges))
    for argv, expected in zip(argvs, unpatched):
        assert run(capsys, argv)[:2] == expected, argv
    # Their documents print the edge list, so they do read it.
    assert run(capsys, ["star", "--n", "4"])[0] == 4
    assert run(capsys, ["necklace", "--n", "4"])[0] == 4


class TestGoldenBytes:
    """Exact stdout, so the order and float format of every field stay put.

    The tree has 10 vertices, above ``BRUTE_FORCE_CAP``, so no
    linear-algebra solve runs and the bytes do not depend on LAPACK.
    """

    @pytest.fixture()
    def tree10_file(self, tmp_path):
        f = tmp_path / "tree10.tsv"
        f.write_text(TREE10_EDGELIST)
        return str(f)

    def test_gap(self, capsys, tree10_file):
        assert run(capsys, ["gap", tree10_file])[:2] == (0, GAP_TREE10)
        # witness_gap is a correctly rounded sum of the witness's edge terms.
        # It, and the 0.1137370753323486 that a BLAS dot product printed,
        # lie within the rounding bound of the exact sum on the stored witness.
        tree = parse_edge_list(TREE10_EDGELIST)
        signed = gamma_T(tree).signed
        exact, bound = exact_witness_gap(tree, signed), witness_gap_bound(tree, signed)
        printed = json.loads(GAP_TREE10)["checks"][0]["witness_gap"]
        for value in (printed, 0.1137370753323486):
            assert abs(Fraction(value) - exact) <= bound, value

    def test_gap_reads_newick_to_the_same_bytes(self, capsys, tmp_path):
        # Both readers root the tree at its smallest leaf, v2.
        f = tmp_path / "tree10.nwk"
        f.write_text(TREE10_NEWICK)
        assert run(capsys, ["gap", str(f)])[:2] == (0, GAP_TREE10)

    @pytest.mark.parametrize(
        "weighting, expected",
        [
            ("witness", _verify_tree10("2.7755575615628914e-17", "true")),
            ("partial", _verify_tree10("7.222525849335303", "false")),
        ],
        ids=["witness", "partial"],
    )
    def test_verify(self, capsys, tmp_path, tree10_file, weighting, expected):
        if weighting == "witness":
            # Covers every vertex: the a-team weights and the negated b-team ones.
            teams = json.loads(GAP_TREE10)["generic_weights"]
            rows = [(v, w) for v, w in teams["a_team"].items()]
            rows += [(v, -w) for v, w in teams["b_team"].items()]
        else:
            rows = [("v2", 1.0), ("v4", -0.5), ("v9", -0.5)]
        eta = tmp_path / "eta.tsv"
        eta.write_text("".join(f"{v}\t{w!r}\n" for v, w in rows))
        assert run(capsys, ["verify", tree10_file, str(eta)])[:2] == (0, expected)
        if weighting == "partial":
            # Every edge term is exact here, so the margin rounds twice: the
            # correctly rounded edge sum q and the final add.  It lies within
            # 2u (|a| + |q|) of the exact margin -(a + q), a = gamma/2 (sum
            # |eta|)^2, as did the 7.222525849335302 of a BLAS dot product.
            tree = parse_edge_list(TREE10_EDGELIST)
            below = [Fraction(0)] * len(tree)
            for v, w in rows:
                below[tree.position[v]] = Fraction(w)
            for i in range(len(tree) - 1, 0, -1):
                below[tree.parent_position[i]] += below[i]
            q = 2 * sum(Fraction(w) * x * (below[0] - x) for w, x in zip(tree.up_weight, below))
            a = Fraction(generic_delta(tree)) / 2 * sum(abs(Fraction(w)) for _, w in rows) ** 2
            margin = json.loads(expected)["checks"][0]["margin"]
            for value in (margin, 7.222525849335302):
                assert abs(Fraction(value) + a + q) <= 2 * UNIT_ROUNDOFF * (abs(a) + abs(q)), value


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "STAR4", "--p", "nan"], 3),
        (["check", "STAR4", "--p", "inf"], 3),
        # the bands are fixed, so --tol is a usage error whatever its value
        (["check", "STAR4", "--p", "1", "--tol", "nan"], 2),
        (["check", "STAR4", "--p", "3", "--tol", "-1"], 2),
        (["gap", "STAR4", "--tol", "nan"], 2),
        (["oracle", "STAR4", "--tol", "nan"], 2),
        (["gap", "INF_EDGE"], 2),
        (["gap", "INF_BRANCH"], 2),
    ],
)
def test_non_finite_values_are_rejected(capsys, tmp_path, argv, code):
    files = {
        "STAR4": "(a:1,b:1,c:1,d:1)r;\n",
        "INF_EDGE": "a\tm\tinf\nm\tb\t1\n",
        "INF_BRANCH": "(a:1e999,b:1)m;\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    try:
        got = run(capsys, argv)[0]
    except SystemExit as exc:
        got = exc.code
    assert got == code


@pytest.mark.parametrize(
    "argv",
    [
        ["star", "--n", "100000000000"],
        ["necklace", "--n", "200"],
        ["maxp", "PATH6401"],
        ["check", "PATH6401", "--p", "1"],
        ["oracle", "PATH6401"],
    ],
)
def test_dense_commands_refuse_more_points_than_the_cap(capsys, tmp_path, monkeypatch, argv):
    # Nothing that builds labels or n x n matrices may run first.
    def refuse(*args):
        raise AssertionError("ran past the point cap")

    for name in ("build_star", "build_necklace", "metric_from_tree", "gamma_T",
                 "minimize_gap_over_loads"):
        monkeypatch.setattr(cli_module, name, refuse)
    path = tmp_path / "PATH6401"
    path.write_text("".join(f"v{i}\tv{i + 1}\t1\n" for i in range(6400)))
    code, out, err = run(capsys, [str(path) if a == "PATH6401" else a for a in argv])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "DENSE_POINT_CAP = 6400" in err


def test_the_point_cap_admits_its_own_size():
    cli_module._check_dense(cli_module.DENSE_POINT_CAP, "a metric")
    with pytest.raises(TooLarge):
        cli_module._check_dense(cli_module.DENSE_POINT_CAP + 1, "a metric")


# Every option and positional argument of every subcommand.  A flag added
# or dropped has to change this table too.
CLI_SURFACE = {
    "gap": {"input", "--format", "--output"},
    "maxp": {"input", "--format", "--output"},
    "check": {"input", "--format", "--output", "--p", "--seed"},
    "star": {"--output", "--n"},
    "necklace": {"--output", "--n"},
    "verify": {"input", "eta", "--format", "--output"},
    "oracle": {"input", "--format", "--output"},
}


@pytest.mark.parametrize(
    "argv, text, expect",
    [
        (["gap"], "a\tm\t1\nm\tc\t1\n", lambda doc: doc["tree_summary"]["root"] == "a"),
        (["gap"], PATH3_NEWICK, lambda doc: doc["generic_weights"]["a_team"] == {"a": 0.5, "b": 0.5}),
        (["check", "--p", "1"], '{"labels": ["x", "y"], "dist": [[0, 1], [1, 0]]}',
         lambda doc: doc["tree_summary"] is None),
    ],
    ids=["edgelist", "newick", "metric-json"],
)
def test_leading_byte_order_mark_is_ignored(capsys, tmp_path, monkeypatch, argv, text, expect):
    f = tmp_path / "input"
    f.write_text("\ufeff" + text, encoding="utf-8")
    code, out, err = run(capsys, [argv[0], str(f), *argv[1:]])
    assert (code, err) == (0, "")
    assert expect(json.loads(out))
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + text))
    assert run(capsys, [argv[0], "-", *argv[1:]]) == (0, out, "")


def test_cli_surface_is_pinned():
    parser = cli_module.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {s for a in sub._actions for s in a.option_strings or [a.dest]} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_SURFACE


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("treegap")
    if exe:
        argv = [exe, "star", "--n", "3"]
    else:
        argv = [sys.executable, "-m", "treegap.cli", "star", "--n", "3"]
    # The child imports this checkout's package, installed or not.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["gamma"] == pytest.approx(1.0 / 3.0)


def _eigenvalue_verdict(doc):
    return next(c for c in doc["checks"] if c["name"] == "eigenvalue_verdict")


def _zero_noise_verdict(doc):
    # Rounding noise times (2e300)**2 printed "lambda_max": "-Infinity".
    verdict = _eigenvalue_verdict(doc)
    zero = verdict["lambda_max"]
    return verdict["status"] == "non_strict" and zero == 0.0 and isinstance(zero, float)


@pytest.mark.parametrize(
    "argv, code, expect",
    [
        # a distance scale of 1e200 overflowed d**p, so the search ran to its cap
        (["maxp", "PATH_1E200"], 0, lambda doc: abs(doc["max_p"]["p_star"] - 2.0) <= 1e-5),
        (["check", "PATH_1E300", "--p", "2"], 0, _zero_noise_verdict),
        # (d + d.T) / 2 overflowed at 1e308
        (["check", "TRIANGLE_1E308", "--p", "2"], 0,
         lambda doc: _eigenvalue_verdict(doc)["status"] == "strict"),
        # the rows subtracted twice the 1.7e308 edge, which overflowed: exit 3
        (["check", "PATH_1_7E308", "--p", "1"], 0, lambda doc: _eigenvalue_verdict(doc)["passed"]),
        (["maxp", "PATH_1_7E308"], 0, lambda doc: doc["max_p"]["certified"] is not None),
        # the stationarity spreads were compared with an absolute tolerance
        (["oracle", "HEAVY5"], 0, lambda doc: all(c["passed"] for c in doc["checks"])),
        # 1e8 + 1e-8 rounds to 1e8: the brute force reported a gap of -2.8e-25
        (["gap", "WEIGHT_RATIO_1E16"], 0, lambda doc: all(c["passed"] for c in doc["checks"])),
        (["maxp", "DIST_STRING"], 2, None),
        (["maxp", "DIST_RAGGED"], 2, None),
        (["maxp", "LABEL_LIST"], 2, None),
        # a string is a sequence too: "xy" passed as the labels x and y
        (["check", "LABEL_STRING", "--p", "1"], 2, None),
        # an option the command does not read is a usage error
        (["gap", "PATH3", "--p", "3"], 2, None),
        # numpy rejected the negative seed with a bare ValueError
        (["check", "PATH3", "--p", "1", "--seed", "-1"], 3, None),
        # (sum |eta|) ** 2 raised OverflowError: exit 4
        (["verify", "PATH_ABC", "ETA_1E300"], 3, None),
    ],
    ids=["maxp-1e200", "check-1e300", "check-1e308", "check-1.7e308", "maxp-1.7e308",
         "oracle-1e7", "gap-ratio-1e16",
         "dist-string", "dist-ragged", "label-list", "label-string", "gap-p", "negative-seed", "verify-1e300"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scale_and_input_defects(capsys, tmp_path, argv, code, expect):
    files = {
        "PATH_1E200": "a\tb\t1e200\nb\tc\t1e200\n",
        "PATH_1E300": "a\tb\t1e300\nb\tc\t1e300\n",
        "PATH_1_7E308": "a\tb\t1.7e308\nb\tc\t1e300\nc\td\t1\n",
        "TRIANGLE_1E308": json.dumps(
            {"labels": ["x", "y", "z"], "dist": (1e308 * (1 - np.eye(3))).tolist()}
        ),
        "HEAVY5": "a\tm\t1e7\nb\tm\t1e7\nm\tc\t1e7\nc\td\t1e7\n",
        "WEIGHT_RATIO_1E16": "d\t1\t1e8\nd\tf\t1e-8\n",
        "DIST_STRING": '{"labels": ["x", "y"], "dist": "x"}',
        "DIST_RAGGED": '{"labels": ["x", "y"], "dist": [[0, 1], [1]]}',
        "LABEL_LIST": '{"labels": [["x"], "y"], "dist": [[0, 1], [1, 0]]}',
        "LABEL_STRING": '{"labels": "xy", "dist": [[0, 1], [1, 0]]}',
        "PATH3": PATH3_NEWICK,
        "PATH_ABC": "a\tb\t1\nb\tc\t1\n",
        "ETA_1E300": "a\t1e300\nc\t-1e300\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    try:
        got, out, _ = run(capsys, argv)
    except SystemExit as exc:
        got, out = exc.code, ""
    assert got == code
    if expect is not None:
        assert expect(json.loads(out))


@pytest.mark.parametrize("argv", [["maxp"], ["check", "--p", "1"]], ids=["maxp", "check"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tree_distances_that_overflow_exit_3_on_one_line(capsys, tmp_path, argv):
    # The diameter 1.7e308 + 1e308 overflows: numpy once printed two
    # RuntimeWarnings, then "distances must be finite".
    f = tmp_path / "heavy.tsv"
    f.write_text("a\tb\t1.7e308\nb\tc\t1e308\nc\td\t1\n")
    code, out, err = run(capsys, [argv[0], str(f), *argv[1:]])
    assert (code, out) == (3, "")
    assert err == (
        "error: tree distances overflow the double range: the diameter exceeds 1.8e+308\n"
    )


@pytest.mark.parametrize("argv", [["maxp"], ["check", "--p", "1"]], ids=["maxp", "check"])
def test_repeated_metric_labels_exit_2(capsys, tmp_path, argv):
    f = tmp_path / "twice.json"
    f.write_text('{"labels": ["a", "a"], "dist": [[0, 1], [1, 0]]}')
    code, out, err = run(capsys, [argv[0], str(f), *argv[1:]])
    assert (code, out, err) == (2, "", "error: labels are not pairwise distinct\n")


def test_verify_exits_3_when_the_quadratic_form_overflows(capsys, tmp_path):
    # The loads -1 below each 1e308 edge make terms of -1e308, whose sum
    # passes the double range, though gamma * (sum |eta|)**2 does not.
    tree, eta = tmp_path / "tree.tsv", tmp_path / "eta.tsv"
    tree.write_text("a\tb\t1e308\nb\tc\t1e308\n")
    eta.write_text("a\t1\nc\t-1\n")
    code, out, err = run(capsys, ["verify", str(tree), str(eta)])
    assert (code, out) == (3, "")
    assert err == (
        "error: the enhanced inequality overflows double precision: "
        "sum |eta| = 2.0, gamma = 5e+307\n"
    )


def test_maxp_text_output(capsys, tmp_path):
    f = tmp_path / "path4.tsv"
    f.write_text("a\tb\t1\nb\tc\t1\nc\td\t1\n")
    code, out, _ = run(capsys, ["maxp", str(f), "--output", "text"])
    assert code == 0
    lines = out.splitlines()
    # The p* search's figures rest on LAPACK; the rest are closed forms.
    assert [line.split(" = ")[0] for line in lines[1:6]] == [
        "p_star", "bracket_width", "status_at_p_star", "lambda_max_at_p_star", "certified"
    ]
    assert lines[0] == "tree: 4 vertices, 3 edges, root a"
    assert lines[5:] == [
        "certified = True",
        "zeta = 0.00838936",
        "strict_interval = [0.991611, 1.00839]",
        "unweighted_lower_bound = 1.0167",
    ]


@pytest.mark.parametrize(
    "edges, lightest, codes",
    [
        # 1/w overflows: the one sum of 1/w names the lightest weight
        ([1e-320], 1e-320, {"gap": 3, "oracle": 3, "maxp": 0}),
        ([1e-310, 1.0], 1e-310, {"gap": 3, "oracle": 3, "maxp": 3}),
        ([1e-308, 1e-308], 1e-308, {"gap": 3, "oracle": 3, "maxp": 3}),
        # gamma is about 1e-300, so the witness weight gamma / 1e300 is 0
        ([1e300, 1e-200, 1e-300, 1.0], 1e-300, {"gap": 3, "oracle": 3, "maxp": 0}),
    ],
    ids=["1e-320", "1e-310", "1e-308-twice", "1e300-to-1e-300"],
)
@pytest.mark.parametrize("command", ["gap", "oracle", "maxp"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weights_past_the_double_range_exit_3_on_one_line(
    capsys, tmp_path, command, edges, lightest, codes
):
    # These exited 3 with "delta = 0.0 must be finite and positive" or "m
    # contains a non-positive entry", naming no weight.  maxp asks for
    # gamma only for zeta, which needs three vertices.
    f = tmp_path / "path.tsv"
    f.write_text("".join(f"v{i}\tv{i + 1}\t{w!r}\n" for i, w in enumerate(edges)))
    code, out, err = run(capsys, [command, "--format", "edgelist", str(f)])
    assert code == codes[command]
    if code == 0:
        assert err == ""
        json.loads(out)
    else:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert err.startswith("error: ") and repr(lightest) in err


@pytest.mark.parametrize(
    "dist, message",
    [
        ("[[0, 1, 2], [1, 0, 1], [2.5, 1, 0]]", "matrix is not symmetric"),
        ("[[1, 1, 2], [1, 0, 1], [2, 1, 0]]", "diagonal is not zero"),
        ("[[0, -1, 2], [-1, 0, 1], [2, 1, 0]]", "off-diagonal distances must be positive"),
        ("[[0, 1, Infinity], [1, 0, 1], [Infinity, 1, 0]]", "distances must be finite"),
        ("[[0, 1, 3], [1, 0, 1], [3, 1, 0]]", "triangle inequality fails through point 'y'"),
    ],
    ids=["asymmetric", "nonzero-diagonal", "non-positive", "non-finite", "triangle"],
)
@pytest.mark.parametrize("argv", [["maxp"], ["check", "--p", "1"]], ids=["maxp", "check"])
def test_metric_defects_exit_2_on_one_line(capsys, tmp_path, argv, dist, message):
    # A JSON metric is validated while it is read, so its defects are
    # input errors like malformed JSON.
    f = tmp_path / "metric.json"
    f.write_text(f'{{"labels": ["x", "y", "z"], "dist": {dist}}}')
    assert run(capsys, [argv[0], str(f), *argv[1:]]) == (2, "", f"error: {message}\n")


def _strip_dispatch(text):
    """The format rule as written with text.strip(), for comparison."""
    stripped = text.strip()
    if stripped.startswith("(") or stripped.endswith(";"):
        return "newick"
    return "json" if stripped.startswith("{") else "edgelist"


@pytest.mark.parametrize(
    "text, kind",
    [
        ("", "edgelist"),
        (" \n\t\r\x0b\x0c", "edgelist"),
        ("a\tb\t1\n", "edgelist"),
        ("\n\n# root b\na\tb\t1\n\n", "edgelist"),
        ("(a,b);", "newick"),
        ("  (a:1,b:2)m\n", "newick"),
        ("a:1;\n", "newick"),
        ("\ufeff(a,b);", "newick"),
        ("\u3000(a,b)\u3000", "newick"),
        ("\xa0\x1c(a,b)\x85", "newick"),
        ("\u200b(a,b)", "edgelist"),  # a zero-width space is not whitespace
        ("a\tb\t1;\n", "newick"),
        (METRIC3_JSON, "json"),
        (METRIC3_JSON + "\n", "json"),
        ("\ufeff" + METRIC3_JSON, "json"),
        ("\n \u3000" + METRIC3_JSON + "\u3000 \n\n", "json"),
        (METRIC3_JSON + " ;", "newick"),
    ],
)
def test_auto_format_reads_the_first_and_last_non_space_characters(tmp_path, monkeypatch, text, kind):
    monkeypatch.setattr(cli_module, "parse_newick", lambda text: "newick")
    monkeypatch.setattr(cli_module, "parse_edge_list", lambda text: "edgelist")
    parsed = types.SimpleNamespace(loads=lambda text: None, JSONDecodeError=json.JSONDecodeError)
    monkeypatch.setattr(cli_module, "json", parsed)
    monkeypatch.setattr(cli_module, "_parse_metric_json", lambda payload: "json")
    f = tmp_path / "input"
    f.write_text(text, encoding="utf-8")
    bare = text[1:] if text.startswith("\ufeff") else text
    assert cli_module._load_host(str(f), "auto", allow_metric=True) == kind
    assert _strip_dispatch(bare) == kind


# (labels, dist) of malformed JSON metrics whose text json.loads parses.
MALFORMED_METRICS = [
    pytest.param('["x", "y"]', "[[0, 1], [1]]", id="ragged"),
    pytest.param('["x", "y"]', '"x"', id="string"),
    pytest.param('["x", "y"]', '{"a": 1}', id="object"),
    pytest.param('["x", "y"]', "[[0, 1], 5]", id="mixed"),
    pytest.param('["x", "y"]', '[[0, "a"], ["a", 0]]', id="text-entry"),
    pytest.param('["x", "y"]', "[[[0], [1]], [[1], [0]]]", id="3-d"),
    pytest.param('["x", "y", "z"]', "[[0, 1], [1, 0]]", id="count"),
    pytest.param('[["x"], "y"]', "[[0, 1], [1]]", id="unhashable-ragged"),
    pytest.param('["x", "x"]', "[[0, 1], [1]]", id="duplicate-ragged"),
    pytest.param('["x", "y"]', "[[0, 1" + "0" * 400 + "], [1, 0]]", id="huge-int"),
    pytest.param('[["x"], "y"]', "[[0, 1" + "0" * 400 + "], [1, 0]]", id="unhashable-huge-int"),
]


@pytest.mark.parametrize("labels, dist", MALFORMED_METRICS)
def test_a_malformed_metric_keeps_the_message_of_its_lists(capsys, tmp_path, labels, dist):
    # The reader hands FiniteMetric an array where the lists convert; the
    # error must still be the one the lists themselves raise, labels first.
    f = tmp_path / "metric.json"
    f.write_text(f'{{"labels": {labels}, "dist": {dist}}}')
    try:
        FiniteMetric(json.loads(labels), json.loads(dist))
    except InvalidMetric as exc:
        expected = (2, "", f"error: {exc}\n")
    except Exception as exc:  # noqa: BLE001 - the CLI reports it as internal
        expected = (4, "", f"internal error: {exc}\n")
    assert run(capsys, ["check", str(f), "--p", "1"]) == expected


@pytest.mark.parametrize("command", [["check", "--p", "1"], ["maxp"]], ids=["check", "maxp"])
@pytest.mark.parametrize(
    "labels, dist",
    MALFORMED_METRICS
    + [
        # Past Python's 4,300-digit limit, json.loads raises a plain ValueError.
        pytest.param('["x", "y"]', "[[0, 1" + "0" * 5000 + "], [1, 0]]", id="5001-digit-int"),
        # Past the recursion limit, json.loads raises RecursionError.
        pytest.param('["x", "y"]', "[" * 100_000 + "]" * 100_000, id="deeply-nested"),
        pytest.param('["x", "y"]', "[" * 900 + "]" * 900, id="nested-past-numpy-dimensions"),
    ],
)
def test_no_malformed_metric_exits_4(capsys, tmp_path, command, labels, dist):
    f = tmp_path / "metric.json"
    f.write_text(f'{{"labels": {labels}, "dist": {dist}}}')
    code, out, err = run(capsys, [*command, str(f)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


# Spacing between JSON tokens: JSON's own, and some that only str.isspace() takes.
JSON_SPACING = st.sampled_from(["", "", "", " ", "  ", "\n", "\t", "\r\n"])
ANY_SPACING = JSON_SPACING | st.sampled_from(["\u3000", "\x0b"])
# What may stand in for a distance: numbers json.loads reads, and other values.
JSON_ENTRIES = st.sampled_from(
    ["-0", "0.0", "1E2", "-1", "3", "1e400", "NaN", "Infinity", "-Infinity", "1" + "0" * 25,
     "1" + "0" * 400, "1" + "0" * 4300, "true", "false", "null", '"1"', '"a"', "[1]", "[]", "{}"]
)
# Texts that may follow a document: trailing data, or more spacing.
JSON_TAILS = st.sampled_from(["", "\n", " \r\n "] * 3 + ["x", "{}", "]", ",", "0", '"a"', "}"])


def _json_text(space, value):
    """``value`` as JSON spaced by ``space()``.

    A str is raw JSON, a list an array and a tuple of (key, value) pairs an object.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        items = [space() + _json_text(space, v) + space() for v in value]
        return "[" + (",".join(items) or space()) + "]"
    items = [
        space() + json.dumps(k) + space() + ":" + space() + _json_text(space, v) + space()
        for k, v in value
    ]
    return "{" + (",".join(items) or space()) + "}"


@st.composite
def metric_json_texts(draw):
    """JSON metrics, mostly valid, with their keys, spacing, entries and rows varied."""
    n = draw(st.integers(1, 5))
    points = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True))
    scale = draw(st.sampled_from([1, 1, 0.1, 1e-3, 1e300]))
    rows = [[repr(abs(a - b) * scale) if scale != 1 else str(abs(a - b)) for b in points]
            for a in points]
    for _ in range(max(0, draw(st.integers(-4, 2)))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(JSON_ENTRIES)
    shape = draw(st.sampled_from(
        ["square"] * 10 + ["short", "long", "extra", "missing", "nested"]
    ))
    i = draw(st.integers(0, n - 1))
    if shape in ("short", "long"):
        rows[i] = rows[i][:-1] if shape == "short" else rows[i] + ["1"]
    elif shape in ("extra", "missing"):
        rows = rows + [rows[i]] if shape == "extra" else rows[:-1]
    elif shape == "nested":
        rows[i] = [rows[i]]
    dist = draw(st.sampled_from([rows] * 12 + ['"x"', '{"a": 1}', "5", "[]", "[[]]", "null"]))
    labels = [json.dumps(f"x{k}") for k in range(n)]
    odd_labels = ['"xy"', labels[:-1], labels + ['"z"'], ["1", '"1"'] + labels[2:], labels[:1] * n]
    labels = draw(st.sampled_from([labels] * 12 + odd_labels))
    pairs = [("labels", labels), ("dist", dist)]
    pairs += draw(st.lists(st.sampled_from([("name", '"m"')] * 4 + [
        ("dist2", "[[0]]"), ("meta", '{"dist": [1]}'), ("labels", '["a"]'),
         ("dist", "[[0, 1], [1, 0]]"), ("dist", rows)]
    ), max_size=2, unique_by=repr))
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    spacing = draw(st.sampled_from([JSON_SPACING] * 4 + [ANY_SPACING]))
    text = draw(spacing) + _json_text(lambda: draw(spacing), tuple(pairs)) + draw(JSON_TAILS)
    if draw(st.integers(0, 5)) == 0:
        text = text[: -draw(st.integers(1, len(text)))]
    return ("\ufeff" if draw(st.integers(0, 3)) == 0 else "") + text


def _metric_outcome(load):
    """What ``load()`` returns, labels by type and repr and the matrix by its bytes, or raises."""
    try:
        metric = load()
    except Exception as exc:  # noqa: BLE001 - every outcome is compared
        if isinstance(exc, cli_module._ParsePhaseError):
            exc = exc.cause
        return type(exc), str(exc)
    d = metric.matrix
    return [(type(v), repr(v)) for v in metric.labels], d.dtype, d.shape, d.tobytes()


@pytest.fixture(scope="module")
def metric_file(tmp_path_factory):
    return tmp_path_factory.mktemp("metric-json") / "metric.json"


@settings(max_examples=500, deadline=None)
@given(metric_json_texts())
@example('{"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}')
@example('\ufeff {"x": [1], "dist": [[0, 1], [1, 0]], "labels": ["a", "b"]}\r\n')
@example('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]], "dist": [[0, 2], [2, 0]]}')
@example('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]]} x')
@example('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]')
@example('{"labels": ["a", "b"], "dist": [[0, true], [true, 0]]}')
@example('{"labels": ["a", "b"], "dist": [[0, null], [null, 0]]}')
@example('{"labels": ["a", "b"], "dist": [[0, "1"], ["1", 0]]}')
@example('{"labels": ["a"], "dist": [[[0]]]}')
@example('{"labels": ["a", "b"], "dist": [[0, 1' + "0" * 400 + '], [1, 0]]}')
@example('{"labels": ["a", "b"], "dist": [[0, Infinity], [Infinity, 0]]}')
@example('{"labels": ["a"], "dist": [[' + ", ".join(["0"] * 40) + "]]}")
@example('{"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1]]}')
@example('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0], [1, 0]]}')
@example('{"labels": ["a", "b"], "dist": [[0, 1], [1]]}')
@example('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0],]}')
@example('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]],}')
@example('{"labels": ["a"], "dist": [[0]}}')
def test_json_metrics_read_as_json_loads_reads_them(metric_file, text):
    # The row-by-row reader gives the labels and matrix that json.loads and
    # np.array gave, or the same error, on any document it is handed.
    bare = text[1:] if text.startswith("\ufeff") else text
    stripped = bare.strip()
    if not stripped.startswith("{") or stripped.endswith(";"):
        return  # not read as JSON
    metric_file.write_text(text, encoding="utf-8", newline="")
    read = metric_file.read_text(encoding="utf-8")
    read = read[1:] if read.startswith("\ufeff") else read
    new = _metric_outcome(lambda: cli_module._load_host(str(metric_file), "auto", True))
    old = _metric_outcome(lambda: reference_metric_json.load_metric(read))
    assert new == old


@pytest.mark.parametrize(
    "text, by_rows",
    [
        ('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]]}', True),
        ('\n{ "dist" :[ [0,1.5e0],\r\n[1.5, -0] ] , "x": {"dist": 1}, "labels": ["a", "b"] }', True),
        ('{"labels": ["a", "b"], "dist": [[0, NaN], [Infinity, 0]]}', True),
        ('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]], "dist": [[0, 1], [1, 0]]}', False),
        ('{"labels": ["a", "b"], "dist": "x"}', False),
        ('{"labels": ["a", "b"], "dist": []}', False),
        ('{"labels": ["a", "b"], "dist": [[0, 1], [1]]}', False),
        ('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0], [1, 0]]}', False),
        ('{"labels": ["a", "b"], "dist": [[0, [1]], [1, 0]]}', False),
        ('{"labels": ["a", "b"], "dist": [[0, {}], [1, 0]]}', False),
        ('{"labels": ["a", "b"], "dist": [[0, "1"], ["1", 0]]}', False),
        ('{"labels": ["a", "b"], "dist": [[0, true], [true, 0]]}', False),
        ('{"labels": ["a", "b"], "dist": [[0, false], [false, 0]]}', False),
        ('{"labels": ["a", "b"], "dist": [[0, null], [null, 0]]}', False),
        ('{"labels": ["a", "b"], "dist": [[0, 1' + "0" * 400 + '], [1, 0]]}', False),
        ('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]]} x', False),
        ('{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]', False),
    ],
    ids=["plain", "spaced", "non-finite", "duplicate-key", "dist-string", "no-rows", "ragged",
         "extra-row", "nested", "object", "string", "true", "false", "null", "huge-int",
         "trailing-data", "truncated"],
)
def test_only_rows_of_numbers_are_read_by_rows(text, by_rows):
    # Every other document is read by json.loads, whose value or error the
    # reader then hands on unchanged.
    try:
        walked = cli_module._walk_metric_object(text)
    except (ValueError, TypeError, OverflowError):
        walked = None
    assert isinstance(walked, dict) == by_rows
    if by_rows:
        assert isinstance(walked["dist"], np.ndarray) and walked["dist"].dtype == np.float64


def test_a_long_first_row_reserves_no_more_than_the_text_could_fill():
    # The matrix is sized by the first row: 3000 numbers in one row of a
    # short document must not reserve 3000 x 3000 floats (72 MB).
    text = '{"labels": ["a"], "dist": [[' + ",".join(["0"] * 3000) + "]]}"
    walked, peak = _traced_peak(lambda: cli_module._walk_metric_object(text))
    assert walked is None and peak < 1 << 20, peak


@st.composite
def square_matrices(draw):
    """Small matrices near a metric: symmetric, then with entries overwritten."""
    n = draw(st.integers(1, 4))
    values = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, 1e-12, 5e-324, 1e-310, 1e308, -1e308,
                              1.7976931348623157e308, math.inf, -math.inf, math.nan])
    upper = draw(st.lists(st.floats(0.5, 4.0) | values, min_size=n * n, max_size=n * n))
    d = np.array(upper).reshape(n, n)
    d = np.triu(d, 1) + np.triu(d, 1).T
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        d[i, j] = draw(values | st.floats(allow_nan=True, allow_infinity=True))
    labels = tuple(range(draw(st.sampled_from([n] * 6 + [0, n + 1]))))
    return labels, d


@settings(max_examples=400, deadline=None)
@given(square_matrices())
def test_matrix_checks_match_the_reference_bit_for_bit(case):
    # One work array in place of |d|, d - d^T and d/2 + d^T/2: the same
    # symmetrized matrix and slack, or the same error, and the input kept.
    labels, d = case
    before = d.tobytes()

    def outcome(check):
        try:
            m, slack = check(labels, d)
        except InvalidMetric as exc:
            return str(exc)
        return m.tobytes(), slack

    with np.errstate(all="ignore"):
        new = outcome(metric_module._checked_matrix)
        assert d.tobytes() == before
        assert new == outcome(reference_metric_json.checked_matrix)


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # Result records are NamedTuples; dataclasses would add to every start.
    script = "import sys\nimport treegap.cli\nprint('dataclasses' in sys.modules)\n"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert (proc.stdout, proc.stderr) == ("False\n", "")


def test_gap_and_verify_leave_numpy_unloaded(capsys, tmp_path):
    # gap above BRUTE_FORCE_CAP vertices and verify are plain Python, so a
    # fresh interpreter runs them without importing numpy's core (the lazy
    # module named numpy may be there).  The commands that then load it in
    # the same process print what they print here, numpy imported first.
    files = {"tree10": TREE10_EDGELIST, "eta": "v2\t1.0\nv4\t-0.5\nv9\t-0.5\n",
             "path5": "".join(f"v{i}\tv{i + 1}\t{i + 1}\n" for i in range(4)),
             "metric3": METRIC3_JSON}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    lazy = [["gap", "tree10"], ["verify", "tree10", "eta"]]
    loading = [["gap", "path5"], ["check", "metric3", "--p", "1"], ["maxp", "tree10"],
               ["oracle", "tree10"], ["star", "--n", "9"]]
    lazy, loading = ([[str(tmp_path / a) if a in files else a for a in argv] for argv in argvs]
                     for argvs in (lazy, loading))
    script = (
        "import contextlib, io, json, sys\n"
        "from treegap.cli import main\n"
        "def run(argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    return [code, out.getvalue()]\n"
        "def core():\n"
        "    return any(name.endswith('._multiarray_umath') for name in sys.modules)\n"
        f"first = [run(argv) for argv in {lazy!r}]\n"
        "unloaded = not core()\n"
        f"rest = [run(argv) for argv in {loading!r}]\n"
        "print(json.dumps([first, unloaded, rest, core()]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.stderr == ""
    first, unloaded, rest, loaded = json.loads(proc.stdout)
    assert (unloaded, loaded) == (True, True)
    expected = [list(run(capsys, argv)[:2]) for argv in lazy + loading]
    assert first + rest == expected
    assert [code for code, _ in expected] == [0] * len(expected)


def test_check_leaves_numpy_random_unloaded(tmp_path):
    # The sampler draws from the standard library's generator, which
    # treegap.cli has loaded already; numpy.random would add about 5 MB.
    f = tmp_path / "metric.json"
    f.write_text(METRIC3_JSON)
    script = (
        "import contextlib, io, sys\n"
        "from treegap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['check', {str(f)!r}, '--p', '1'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert (proc.stdout, proc.stderr) == ("0 False\n", "")


def _traced_peak(call):
    """The most memory ``call`` held at once beyond what was held before, by tracemalloc."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ending", ["", "\n"], ids=["bare", "newline"])
def test_a_json_metric_is_held_in_one_form_at_a_time(tmp_path, ending):
    # At most the text twice over, as the file's bytes decode into it, plus
    # one n x n float64 array: "dist" is read row by row into the matrix,
    # the text goes before the checks, and sniffing the format copies
    # nothing.  Read as lists by json.loads, it took the text plus 2.8 MB.
    n = 300
    x = np.random.default_rng(71).normal(size=(n, 4))
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    text = json.dumps({"labels": [f"x{i}" for i in range(n)], "dist": d.tolist()}) + ending
    f = tmp_path / "metric.json"
    f.write_text(text)
    metric, peak = _traced_peak(lambda: cli_module._load_host(str(f), "auto", allow_metric=True))
    assert len(metric) == n
    assert peak <= 2 * len(text) + n * n * 8, (peak, len(text))
