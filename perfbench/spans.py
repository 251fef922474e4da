"""Traced runs: spans around the calls into each wkintersect layer.

``Tracer.install`` rebinds public names, in every ``wkintersect`` module
that holds or imports them, to wrappers that record a span (name, start,
end, parent) and count calls, distinct arguments and non-zero returns.
Spans stay in memory until the process that made them reports them.
A name that a later version of the program no longer has is skipped,
and the metrics that depend on it are left out; tracing never fails a
run.  Tracing is installed only in the forked process that runs one
operation (or one sweep), never in the benchmark's parent, so untraced
rounds run the program's own code objects.
"""

import functools
import os
import sys
import time
from array import array

# (span name, module, attribute, class or None)
BOUNDARIES = (
    ("cli.main", "wkintersect.cli", "main", None),
    ("pengine.bootstrap_all", "wkintersect.pengine", "bootstrap_all", None),
    ("pengine.load", "wkintersect.pengine", "load", "DTable"),
    ("pengine.save", "wkintersect.pengine", "save", "DTable"),
    ("laurent.direct_p", "wkintersect.pengine", "direct_p", None),
    ("hop.apply", "wkintersect.hop", "apply", "HContext"),
    ("hop.apply_inverse", "wkintersect.hop", "apply_inverse", "HContext"),
    ("sympoly.kostka_column", "wkintersect.sympoly", "kostka_column", None),
    ("sympoly.ribbon", "wkintersect.sympoly", "power_sum_times_schur", None),
    ("intersect.tau", "wkintersect.intersect", "tau", None),
    ("intersect.q_coeff", "wkintersect.intersect", "q_coeff", None),
    ("intersect.a_gn", "wkintersect.intersect", "a_gn", None),
    ("intersect.w_gn", "wkintersect.intersect", "w_gn", None),
    ("oracle.tau", "wkintersect.oracle", "virasoro_tau", None),
    ("oracle.a_gn", "wkintersect.oracle", "a_gn_oracle", None),
)
NAMES = tuple(b[0] for b in BOUNDARIES)

# per-layer metric -> (unit, span name whose wrapper feeds it)
METRICS = {
    "cli.dtable_s": ("s", "cli.main"),
    "pengine.bootstrap_self_s": ("s", "pengine.bootstrap_all"),
    "pengine.blocks_built": ("count", "pengine.bootstrap_all"),
    "pengine.table_load_s": ("s", "pengine.load"),
    "pengine.table_save_s": ("s", "pengine.save"),
    "pengine.table_bytes": ("bytes", "pengine.save"),
    "hop.apply_s": ("s", "hop.apply"),
    "hop.apply_calls": ("count", "hop.apply"),
    "hop.apply_inverse_s": ("s", "hop.apply_inverse"),
    "hop.apply_inverse_calls": ("count", "hop.apply_inverse"),
    "sympoly.kostka_column_s": ("s", "sympoly.kostka_column"),
    "sympoly.kostka_columns": ("count", "sympoly.kostka_column"),
    "sympoly.ribbon_s": ("s", "sympoly.ribbon"),
    "sympoly.ribbon_calls": ("count", "sympoly.ribbon"),
    "partitions.classes_enumerated": ("count", None),
    "intersect.tau_self_s": ("s", "intersect.tau"),
    "intersect.q_coeff_s": ("s", "intersect.q_coeff"),
    "intersect.q_coeff_calls": ("count", "intersect.q_coeff"),
    "intersect.q_dets": ("count", "intersect.q_coeff"),
    "intersect.q_nonzero_ratio": ("ratio", "intersect.q_coeff"),
    "intersect.a_gn_s": ("s", "intersect.a_gn"),
    "intersect.w_gn_s": ("s", "intersect.w_gn"),
    "oracle.tau_s": ("s", "oracle.tau"),
    "oracle.tau_calls": ("count", "oracle.tau"),
    "oracle.a_gn_s": ("s", "oracle.a_gn"),
    "oracle.memo_entries": ("count", None),
    "laurent.direct_p_s": ("s", "laurent.direct_p"),
    "trace.spans": ("count", None),
    "trace.overhead_s": ("s", None),
}

# how a per-process report folds into a round: summed, or the largest
_MAX_METRICS = ("pengine.table_bytes", "oracle.memo_entries")


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.name_of = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.distinct = {}       # span name -> set of argument keys
        self.nonzero = {}        # span name -> non-zero returns
        self.blocks = 0
        self.saved_bytes = 0
        self.installed = set()   # span names that found their target
        self.memo_peak = None
        self._class_misses0 = None

    # -- recording ------------------------------------------------------

    def _wrap(self, name_id, fn, post):
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _post_hook(self, name):
        if name in ("sympoly.kostka_column", "intersect.q_coeff"):
            seen = self.distinct.setdefault(name, set())
            counts = self.nonzero
            counts[name] = 0

            def post(args, result):
                try:
                    seen.add(args)
                except TypeError:
                    seen.add(repr(args))
                if result:
                    counts[name] += 1

            return post
        if name == "pengine.bootstrap_all":
            def post(args, result):
                self.blocks += len(result)

            return post
        if name == "pengine.save":
            def post(args, result):
                self.saved_bytes = max(self.saved_bytes, os.path.getsize(args[1]))

            return post
        return None

    def install(self):
        """Rebind every boundary that exists in the loaded program."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "wkintersect" or k.startswith("wkintersect."))]
        for name_id, (name, modname, attr, cls) in enumerate(BOUNDARIES):
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if cls is not None:
                klass = getattr(mod, cls, None)
                raw = klass.__dict__.get(attr) if klass is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    setattr(klass, attr, classmethod(self._wrap(name_id, raw.__func__, self._post_hook(name))))
                else:
                    setattr(klass, attr, self._wrap(name_id, raw, self._post_hook(name)))
                self.installed.add(name)
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                continue
            wrapper = self._wrap(name_id, orig, self._post_hook(name))
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
            self.installed.add(name)
        info = self._class_cache_info()
        self._class_misses0 = info.misses if info is not None else None

    # -- module state read where no wrapper can count -------------------

    @staticmethod
    def _class_cache_info():
        part = sys.modules.get("wkintersect.partitions")
        fn = getattr(part, "partition_class", None)
        info = getattr(fn, "cache_info", None)
        return info() if info is not None else None

    def after_operation(self):
        """Record the oracle memo size once an operation has ended."""
        memo = getattr(sys.modules.get("wkintersect.oracle"), "_MEMO", None)
        if memo is not None:
            self.memo_peak = max(self.memo_peak or 0, len(memo))

    # -- report ---------------------------------------------------------

    def spans(self):
        return [(NAMES[self.name_of[i]], self.parent[i], self.start[i], self.end[i])
                for i in range(len(self.start))]

    def report(self):
        """Per-layer metrics of this process."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        incl = {name: 0.0 for name in NAMES}
        selft = {name: 0.0 for name in NAMES}
        calls = {name: 0 for name in NAMES}
        # inclusive time counts only the outermost span of a name, so a
        # recursive boundary is not counted twice
        outer = [True] * n
        for i in range(n):
            p = self.parent[i]
            me = self.name_of[i]
            while p >= 0:
                if self.name_of[p] == me:
                    outer[i] = False
                    break
                p = self.parent[p]
        for i in range(n):
            name = NAMES[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            selft[name] += dur - child[i]
            if outer[i]:
                incl[name] += dur
        m = {
            "cli.dtable_s": incl["cli.main"],
            "pengine.bootstrap_self_s": selft["pengine.bootstrap_all"],
            "pengine.blocks_built": self.blocks,
            "pengine.table_load_s": incl["pengine.load"],
            "pengine.table_save_s": incl["pengine.save"],
            "pengine.table_bytes": self.saved_bytes,
            "hop.apply_s": incl["hop.apply"],
            "hop.apply_calls": calls["hop.apply"],
            "hop.apply_inverse_s": incl["hop.apply_inverse"],
            "hop.apply_inverse_calls": calls["hop.apply_inverse"],
            "sympoly.kostka_column_s": incl["sympoly.kostka_column"],
            "sympoly.kostka_columns": len(self.distinct.get("sympoly.kostka_column", ())),
            "sympoly.ribbon_s": incl["sympoly.ribbon"],
            "sympoly.ribbon_calls": calls["sympoly.ribbon"],
            "intersect.tau_self_s": selft["intersect.tau"],
            "intersect.q_coeff_s": incl["intersect.q_coeff"],
            "intersect.q_coeff_calls": calls["intersect.q_coeff"],
            "intersect.q_dets": len(self.distinct.get("intersect.q_coeff", ())),
            "intersect.a_gn_s": incl["intersect.a_gn"],
            "intersect.w_gn_s": incl["intersect.w_gn"],
            "oracle.tau_s": incl["oracle.tau"],
            "oracle.tau_calls": calls["oracle.tau"],
            "oracle.a_gn_s": incl["oracle.a_gn"],
            "laurent.direct_p_s": incl["laurent.direct_p"],
            "trace.spans": n,
        }
        m = {k: v for k, v in m.items()
             if METRICS[k][1] is None or METRICS[k][1] in self.installed}
        if "intersect.q_coeff" in self.installed:
            m["q_nonzero"] = self.nonzero["intersect.q_coeff"]
        info = self._class_cache_info()
        if info is not None and self._class_misses0 is not None:
            m["partitions.classes_enumerated"] = info.misses - self._class_misses0
        if self.memo_peak is not None:
            m["oracle.memo_entries"] = self.memo_peak
        return m


def fold(reports):
    """Sum the per-process reports of one round (peaks are maxed)."""
    out = {}
    for rep in reports:
        for k, v in rep.items():
            if k in _MAX_METRICS:
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
    if "q_nonzero" in out:
        nz = out.pop("q_nonzero")
        calls = out.get("intersect.q_coeff_calls", 0)
        out["intersect.q_nonzero_ratio"] = nz / calls if calls else 0.0
    return out
