import importlib
import os
import runpy

import wkintersect


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone must fail here,
    # not at a caller's `from wkintersect import *`
    assert [name for name in wkintersect.__all__ if not hasattr(wkintersect, name)] == []
    assert len(set(wkintersect.__all__)) == len(wkintersect.__all__)


def test_benchmark_boundaries_resolve():
    # the benchmark wraps these names by string; one that no longer resolves
    # would only drop its metrics there, so it must fail here
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")
    boundaries = runpy.run_path(path)["BOUNDARIES"]
    assert boundaries
    missing = []
    for span, module, attr, cls in boundaries:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(span)
    assert missing == []
