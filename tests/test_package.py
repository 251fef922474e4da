import glob
import importlib
import json
import math
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


def _reject_constant(name):
    raise ValueError("not strict JSON: %s" % name)


def test_committed_bench_files_are_well_formed():
    # each committed BENCH_*.json trajectory file: strict JSON (no NaN or
    # Infinity), and every metric carries its medians, wins and spread, the
    # ratio rounded to 3 decimals from medians stored to 6
    root = os.path.join(os.path.dirname(__file__), "..")
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    assert paths
    keys = {"unit", "parent_median", "change_median", "ratio", "change_wins", "parent_iqr"}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant)
        assert {"what", "parent", "machine", "workloads"} <= data.keys(), path
        assert data["workloads"], path
        for workload, body in data["workloads"].items():
            assert body["metrics"], (path, workload)
            for metric, m in body["metrics"].items():
                where = (os.path.basename(path), workload, metric)
                assert keys <= m.keys(), where
                assert math.isclose(m["ratio"], m["change_median"] / m["parent_median"], abs_tol=6e-4), where
