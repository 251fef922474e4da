"""Benchmark of wkintersect: cold table builds, independent queries and a
formula-against-recursion sweep.

    python3 perfbench/run.py --workload {tables,queries,sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (BENCHMARK.json); with ``--trace 1``
they are the per-layer ones, taken from spans around the calls into each
module (``spans.py``), and the spans of one traced round are written to
``perfbench/_out/trace-<workload>.json``.

Every operation runs in a process forked from a parent that has only
imported ``wkintersect`` (and, for ``queries`` and ``sweep``, loaded the
input table), so each one starts from the runtime-cache state of a fresh
process; a ``sweep`` round is one such process that keeps its caches
across the whole box.  The run repeats whole rounds of its operation list
until ``--seconds`` have passed.  See README.md for the make-up of each
workload and how the figures are kept steady.
"""

import argparse
import io
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, "_work")
OUT_DIR = os.path.join(HERE, "_out")

# fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 21
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import wkintersect
from wkintersect.pengine import DTable
if len(sys.argv) > 2:
    DTable.load(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""

clock = time.perf_counter


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def in_child(fn):
    """Run fn() in a forked process and return its (pickled) result, or
    {"error": ...} when it raised or the process died."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            try:
                payload = pickle.dumps(fn())
            except Exception as exc:
                payload = pickle.dumps({"error": repr(exc)})
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": "child ended with status %d" % status}
    return pickle.loads(data)


def setup_seconds(table_path):
    """Median time from a ready interpreter to the first operation: import
    and, where the workload has one, the load of the input table.  One
    untimed import first writes the bytecode cache of a fresh checkout."""
    argv = [sys.executable, "-c", SETUP_CODE, SRC] + ([table_path] if table_path else [])
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def max_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def call_op(op, table, cache_dir):
    """One operation through the program's public API."""
    from wkintersect import cli, intersect, oracle, pengine

    kind = op[0]
    if kind == "dtable":
        return cli.main(["--cache-dir", cache_dir] + list(op[1]), out=io.StringIO())
    if kind == "direct_p":
        return pengine.direct_p(op[1]).terms
    if kind == "tau":
        return intersect.tau(op[1], op[2], table)
    if kind == "a_gn":
        return intersect.a_gn(op[1], op[2], dtable=table).terms
    if kind == "w_gn":
        return intersect.w_gn(op[1], op[2], dtable=table).intersection_numbers()
    if kind == "oracle":
        return oracle.virasoro_tau(op[1], op[2])
    raise ValueError("unknown operation %r" % (op,))


def _new_tracer(traced):
    if not traced:
        return None
    import spans

    tracer = spans.Tracer()
    tracer.install()
    return tracer


def _finish(tracer, out):
    out["rss_kb"] = max_rss_kb()
    if tracer is not None:
        out["report"] = tracer.report()
        out["spans"] = tracer.spans()
    return out


def op_child(op, table, cache_dir, traced):
    """Body of the process that runs one operation."""
    tracer = _new_tracer(traced)
    out = {"value": None, "error": None}
    t0 = clock()
    try:
        out["value"] = call_op(op, table, cache_dir)
    except Exception as exc:
        out["error"] = repr(exc)
    out["latency"] = clock() - t0
    if tracer is not None:
        tracer.after_operation()
    return _finish(tracer, out)


def sweep_child(ops, table, traced):
    """Body of the process that runs one sweep round: formula against
    recursion on every index, caches shared across the box."""
    from wkintersect import intersect, oracle

    tracer = _new_tracer(traced)
    lat, errors, values = [], [], []
    for op in ops:
        g, d = op[1], op[2]
        t0 = clock()
        try:
            lhs = intersect.tau(g, d, table)
            rhs = oracle.virasoro_tau(g, d)
            err = None if lhs == rhs else "formula %s, recursion %s" % (lhs, rhs)
        except Exception as exc:
            lhs, err = None, repr(exc)
        lat.append(clock() - t0)
        if tracer is not None:
            tracer.after_operation()
        errors.append(err)
        values.append(lhs)
    return _finish(tracer, {"latency": lat, "errors": errors, "values": values})


def load_probe(table_path):
    """A traced DTable.load of the input table, for pengine.table_load_s."""
    from wkintersect.pengine import DTable

    tracer = _new_tracer(True)
    DTable.load(table_path)
    return _finish(tracer, {})


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def label(op):
    """A short printable name of an operation."""
    text = repr(op)
    return text if len(text) <= 60 else text[:56] + "...)"


class Round:
    def __init__(self, traced):
        self.traced = traced
        self.latency = []
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.rss_kb = 0
        self.reports = []
        self.spans = []

    def add_child(self, op, res):
        self.rss_kb = max(self.rss_kb, res.get("rss_kb", 0))
        if "report" in res:
            self.reports.append(res["report"])
            self.spans.append({"op": label(op), "spans": res["spans"]})

    def run(self, op, body):
        """Run body() in a forked process as one operation.  A process that
        died without reporting its latency is timed from here instead."""
        t0 = clock()
        res = in_child(body)
        self.latency.append(res.get("latency", clock() - t0))
        self.add_child(op, res)
        self.attempted += 1
        return res

    @property
    def wall(self):
        return sum(self.latency)


def tables_round(ops, traced):
    import checks
    import workloads

    rnd = Round(traced)
    os.makedirs(WORK_DIR, exist_ok=True)
    outputs = []  # per operation: the cache file written, direct_p's terms, or None
    for op in ops:
        cache = tempfile.mkdtemp(dir=WORK_DIR) if op[0] == "dtable" else None
        try:
            res = rnd.run(op, lambda: op_child(op, None, cache, traced))
            out = res.get("value")
            if cache is not None:
                path = os.path.join(cache, "dtable.txt")
                out = ""
                if os.path.exists(path):
                    with open(path, encoding="ascii") as fh:
                        out = fh.read()
        finally:
            if cache is not None:
                shutil.rmtree(cache, ignore_errors=True)
        if res.get("error") or (op[0] == "dtable" and res.get("value") != 0):
            rnd.failed += 1
            out = None
        outputs.append(out)

    def verify():
        files = {op[1]: out for op, out in zip(ops, outputs) if op[0] == "dtable"}
        bad = []
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if out is None:
                continue
            if op[0] == "dtable":
                errs = checks.table_errors(out, checks.dtable_blocks(op[1])) if out else ["no cache file"]
            else:
                full = files.get(workloads.dtable_argv(op[1], workloads.r_max(op[1])))
                errs = checks.direct_errors(full, op[1], out) if full else ["no full table to compare"]
            if errs:
                bad.append((i, errs))
        return bad

    bad = in_child(verify)
    if isinstance(bad, dict):
        raise RuntimeError("table check did not run: %s" % bad["error"])
    for i, errs in bad:
        rnd.failed += 1
        rnd.wrong.append("%s: %s" % (label(ops[i]), "; ".join(errs)))
    return rnd


def queries_round(ops, ctx, traced):
    import checks

    rnd = Round(traced)
    if traced:
        rnd.add_child("DTable.load", in_child(lambda: load_probe(ctx["table_path"])))
    for op in ops:
        res = rnd.run(op, lambda: op_child(op, ctx["table"], None, traced))
        if res.get("error"):
            rnd.failed += 1
        elif not checks.value_ok(op, res["value"], ctx["expected"][op]):
            rnd.failed += 1
            rnd.wrong.append("%s: got %s" % (label(op), res["value"]))
    return rnd


def sweep_round(ops, ctx, traced):
    import checks

    rnd = Round(traced)
    if traced:
        rnd.add_child("DTable.load", in_child(lambda: load_probe(ctx["table_path"])))
    res = in_child(lambda: sweep_child(ops, ctx["table"], traced))
    if "errors" not in res:
        raise RuntimeError("sweep process failed: %s" % res.get("error"))
    rnd.add_child("sweep", res)
    rnd.latency = res["latency"]
    rnd.attempted = len(ops)
    for op, err, value in zip(ops, res["errors"], res["values"]):
        if err is None and op in ctx["expected"] and not checks.value_ok(op, value, ctx["expected"][op]):
            err = "got %s" % (value,)
            rnd.wrong.append("%s: %s" % (label(op), err))
        elif err is not None and err.startswith("formula"):
            rnd.wrong.append("%s: %s" % (label(op), err))
        if err is not None:
            rnd.failed += 1
    return rnd


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("tables", "queries", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds, setup_s):
    walls = [r.wall for r in rounds]
    # an operation's latency is the median of its repeats in the run's
    # rounds, so a burst of load on the machine in one round moves no
    # percentile; the percentiles are then taken over the operation list
    lat = [statistics.median(reps) for reps in zip(*(r.latency for r in rounds))]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000 * quantile(lat, 90), "ms"),
        "peak_rss_mb": (max(r.rss_kb for r in rounds) / 1024, "MB"),
    }


def per_layer(rounds):
    import spans

    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    folded = [spans.fold(r.reports) for r in traced]
    out = {}
    for name, (unit, _) in spans.METRICS.items():
        vals = [f[name] for f in folded if name in f]
        if len(vals) == len(folded):
            out[name] = (statistics.median(vals), unit)
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def write_spans(workload, rnd):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s.json" % workload)
    with open(path, "w") as fh:
        for proc in rnd.spans:
            fh.write(json.dumps(proc, separators=(",", ":")) + "\n")


def main(argv=None):
    args = parse_args(argv)
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
    try:
        import wkintersect.cli  # noqa: F401  (every boundary module, for tracing)
        import checks
    except ImportError as exc:
        sys.stderr.write("cannot import the program from %s: %s\n" % (SRC, exc))
        return 2
    import workloads
    from wkintersect.pengine import DTable

    ops = workloads.OPS[args.workload](args.seed)
    table_path = None
    ctx = {}
    problems = []
    if args.workload != "tables":
        table_path = os.path.join(HERE, workloads.TABLE_FILE)
    setup_s = setup_seconds(table_path)
    if table_path:
        ctx["table_path"] = table_path
        ctx["table"] = DTable.load(table_path)

        def prepare():
            with open(table_path, encoding="ascii") as fh:
                errs = checks.input_table_errors(fh.read(), workloads.TABLE_N6_R)
            wanted = [op for op in ops if args.workload == "queries" or op[1] == 0 or len(op[2]) <= 2]
            return {"errors": errs, "expected": checks.expected_values(wanted)}

        prep = in_child(prepare)
        if "expected" not in prep:
            sys.stderr.write("expected values failed: %s\n" % prep.get("error"))
            return 1
        problems += prep["errors"]
        ctx["expected"] = prep["expected"]

    rounds = []
    t_start = clock()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if args.workload == "tables":
            rounds.append(tables_round(ops, traced))
        elif args.workload == "queries":
            rounds.append(queries_round(ops, ctx, traced))
        else:
            rounds.append(sweep_round(ops, ctx, traced))
        if clock() - t_start >= args.seconds and (not args.trace or len(rounds) >= 2):
            break

    for r in rounds:
        problems += r.wrong
    for p in problems[:20]:
        sys.stderr.write("WRONG %s\n" % p)
    if args.trace:
        metrics = per_layer(rounds)
        write_spans(args.workload, next(r for r in rounds if r.traced))
    else:
        metrics = end_to_end(rounds, setup_s)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("workload=%s seed=%d ops/round=%d failed/round=%s round wall_s=%s"
          % (args.workload, args.seed, len(ops), [r.failed for r in rounds],
             ["%.3f%s" % (r.wall, "T" if r.traced else "") for r in rounds]))
    for k, (v, u) in metrics.items():
        print("  %-32s %14.6f %s" % (k, v, u))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
