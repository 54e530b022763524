"""The package namespace republishes each module's ``__all__`` and nothing else."""

import importlib

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
