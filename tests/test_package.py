import ast
import glob
import importlib
import json
import math
import os
import runpy
import tokenize

import wkintersect

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone must fail here,
    # not at a caller's `from wkintersect import *`
    assert [name for name in wkintersect.__all__ if not hasattr(wkintersect, name)] == []
    assert len(set(wkintersect.__all__)) == len(wkintersect.__all__)


_PACKAGE_MODULES = {"wkintersect"} | {
    os.path.basename(path)[:-3] for path in glob.glob(os.path.join(ROOT, "src", "wkintersect", "*.py"))
}


def _names_used(path):
    """The identifiers a file uses: each name token except the one that a
    def or a class, or an assignment at the start of a line, defines; an
    attribute only of the package or of one of its modules (not
    ``math.factorial``); and each string literal that is one identifier, as
    the benchmark names what it wraps."""
    with open(path, encoding="utf-8") as fh:
        toks = [
            t
            for t in tokenize.generate_tokens(fh.readline)
            if t.type in (tokenize.NAME, tokenize.OP, tokenize.STRING)
        ]
    used = set()
    for i, tok in enumerate(toks):
        prev = toks[i - 1].string if i else ""
        if tok.type == tokenize.STRING:
            if tok.string[:1] in "'\"" and ast.literal_eval(tok.string).isidentifier():
                used.add(ast.literal_eval(tok.string))
        elif tok.type == tokenize.NAME and prev not in ("def", "class"):
            nxt = toks[i + 1].string if i + 1 < len(toks) else ""
            if tok.start[1] == 0 and nxt == "=":
                continue
            if prev != "." or toks[i - 2].string in _PACKAGE_MODULES:
                used.add(tok.string)
    return used


def _caller_paths():
    """The program, the demos and the benchmark, without the package's
    ``__init__.py``, which only names what it exports."""
    paths = [
        path
        for pattern in ("src/wkintersect/*.py", "demos/*.py", "perfbench/*.py")
        for path in glob.glob(os.path.join(ROOT, pattern))
        if os.path.basename(path) != "__init__.py"
    ]
    assert paths
    return paths


def test_every_exported_name_has_a_caller():
    # __all__ holds the names that the program, a demo or the benchmark
    # calls; a name only the tests call belongs with the tests
    used = set().union(*map(_names_used, _caller_paths()))
    assert [name for name in wkintersect.__all__ if name not in used] == []


def _attributes_used(path):
    """Every name a file reads as an attribute, ``.name``."""
    with open(path, encoding="utf-8") as fh:
        toks = [t for t in tokenize.generate_tokens(fh.readline) if t.type in (tokenize.NAME, tokenize.OP)]
    return {tok.string for prev, tok in zip(toks, toks[1:]) if prev.string == "." and tok.type == tokenize.NAME}


def test_every_sympoly_method_has_a_caller():
    # SymPoly is the value the API returns, not a ring: each public method
    # is one that the program, a demo or the benchmark calls; the tests'
    # arithmetic on SymPolys lives in tests/brute.py
    used = set().union(*map(_attributes_used, _caller_paths()))
    public = [name for name in dir(wkintersect.SymPoly) if not name.startswith("_")]
    methods = [name for name in public if callable(getattr(wkintersect.SymPoly, name))]
    assert methods
    assert [name for name in methods if name not in used] == []


def test_benchmark_boundaries_resolve():
    # the benchmark wraps these names by string; one that no longer resolves
    # would only drop its metrics there, so it must fail here
    path = os.path.join(ROOT, "perfbench", "spans.py")
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
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
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
