"""The package namespace republishes each module's ``__all__`` and nothing
else, and README cites only constants that exist."""

import importlib
import re
from pathlib import Path

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


def test_readme_cites_constants_that_exist():
    # README names each pass/fail band as `module.NAME`; a constant that
    # moves or is renamed must take its citation along.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cited = set(re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`", readme))
    assert ("cli", "WITNESS_RTOL") in cited
    for module, name in sorted(cited):
        assert hasattr(importlib.import_module(f"treegap.{module}"), name), f"{module}.{name}"
