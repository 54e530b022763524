"""The package namespace republishes each module's ``__all__`` and nothing
else, its result records are immutable tuples, and README cites only
constants that exist."""

import importlib
import re
from pathlib import Path

import pytest

import treegap

MODULES = ("errors", "generic", "metric", "negtype", "oracle", "pruning", "simplex", "tree", "treeio")


def _modules():
    return [importlib.import_module(f"treegap.{name}") for name in MODULES]


def test_all_is_the_union_of_the_module_lists():
    names = [name for module in _modules() for name in module.__all__]
    assert len(set(treegap.__all__)) == len(treegap.__all__)
    assert len(set(names)) == len(names)
    assert sorted(treegap.__all__) == sorted(names)


def test_every_name_is_its_module_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(treegap, name) is getattr(module, name), (module.__name__, name)


def test_ninety_public_names():
    assert len(treegap.__all__) == 90


RESULT_FIELDS = {
    "GapReport": ("gamma", "witness_gap", "signed"),
    "NegTypeVerdict": ("status", "lambda_max", "certificate"),
    "MaxPEstimate": ("p_star", "bracket_width", "status_at_p_star", "lambda_max_at_p_star"),
    "MinimizationResult": ("value", "argmin_m", "argmin_n", "iterations", "converged"),
    "BruteForceResult": ("value", "a_team", "b_team", "argmin_m", "argmin_n"),
    "KktReport": ("lambda_a", "lambda_b", "spread_a", "spread_b", "gamma", "consistent"),
    "LevelAssignment": ("k0", "level"),
    "PartitionSums": (
        "alpha_l", "alpha_r", "beta_l", "beta_r",
        "alpha_l_strict", "alpha_r_strict", "beta_l_strict", "beta_r_strict",
    ),
    "PruneStep": ("contracted_edge", "gap_decrease", "merged_vertex"),
}


@pytest.mark.parametrize("name", sorted(RESULT_FIELDS))
def test_result_records_are_immutable_tuples(name):
    record_type = getattr(treegap, name)
    assert issubclass(record_type, tuple)
    assert record_type._fields == RESULT_FIELDS[name]
    record = record_type(*range(len(record_type._fields)))
    assert tuple(record) == tuple(range(len(record_type._fields)))
    for field in (record_type._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_readme_cites_constants_that_exist():
    # README names each pass/fail band as `module.NAME`; a constant that
    # moves or is renamed must take its citation along.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cited = set(re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`", readme))
    assert ("cli", "WITNESS_RTOL") in cited
    for module, name in sorted(cited):
        assert hasattr(importlib.import_module(f"treegap.{module}"), name), f"{module}.{name}"
