"""numpy, imported the first time one of its attributes is read.

The closed form is plain Python over a tree's tuples, so ``gap`` above
``BRUTE_FORCE_CAP`` vertices and ``verify`` never pay numpy's start-up
time and memory.  Every module takes ``np`` from here.
"""

import importlib.util
import sys

if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
