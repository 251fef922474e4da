"""Command-line surface: exact intersection numbers, generating
polynomials, coefficient-table management, oracle cross-verification,
the elementary-basis support report and a scaling benchmark.

Exit codes: 0 success, 1 verification mismatch, 2 domain error (an
input out of range or beyond the admission budget), 3 I/O error,
4 internal failure (recursion depth or memory exhausted, or any other
unexpected exception).
All output is deterministic for a fixed configuration and cache state
(timings excepted).
"""

import argparse
import functools
import os
import sys
import time

from . import intersect, oracle, sympoly
from .partitions import format_partition, partition_class
from .pengine import DTable, degree_rn, r_max

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

BASIS_NAMES = {
    "m": "m",
    "e": "e",
    "s": "s",
    "monomial": "m",
    "elementary": "e",
    "schur": "s",
}


def default_cache_dir():
    return os.environ.get("WK_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "wk"))


def cache_file(args):
    return os.path.join(args.cache_dir, "dtable.txt")


def load_table(args):
    path = cache_file(args)
    if os.path.exists(path):
        try:
            return DTable.load(path)
        except ValueError as exc:
            raise OSError("unusable cache %s: %s" % (path, exc))
    return DTable()


def parse_powers(text):
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def emit_sympoly(poly, fmt, out):
    if fmt == "tsv":
        for k in sorted(poly.terms, reverse=True):
            out.write("%s\t%s\n" % (format_partition(k), poly.terms[k]))
    else:
        text = poly.text()
        out.write(text + "\n" if text else "0\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_tau(args, out):
    d = parse_powers(args.powers)
    table = load_table(args)
    value = intersect.tau(args.genus, d, table)
    out.write("%s\n" % (value,))
    return EXIT_OK


def cmd_agn(args, out):
    table = load_table(args)
    poly = intersect.a_gn(args.genus, args.n, BASIS_NAMES[args.basis], table)
    emit_sympoly(poly, args.format, out)
    return EXIT_OK


def cmd_pn(args, out):
    if not 0 <= args.r <= r_max(args.n):
        raise ValueError("component index %d out of range for n=%d" % (args.r, args.n))
    table = load_table(args)
    table.ensure(args.r, args.n)
    poly = table.p_rn(args.r, args.n).change_basis(BASIS_NAMES[args.basis])
    emit_sympoly(poly, args.format, out)
    return EXIT_OK


def cmd_dtable(args, out):
    r_top = args.r_max if args.r_max is not None else r_max(args.n)
    if not 0 <= r_top <= r_max(args.n):
        raise ValueError("component bound %d out of range for n=%d" % (r_top, args.n))
    try:
        os.makedirs(args.cache_dir, exist_ok=True)
        path = cache_file(args)
        table = DTable.load(path) if os.path.exists(path) else DTable()
    except (OSError, ValueError) as exc:
        sys.stderr.write("cache error: %s\n" % (exc,))
        return EXIT_IO
    table.ensure_upto(r_top, args.n)
    try:
        import fcntl

        lock_path = path + ".lock"
        with open(lock_path, "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            # another writer may have saved since the load above: keep its blocks
            if os.path.exists(path):
                for key, block in DTable.load(path).blocks.items():
                    table.blocks.setdefault(key, block)
            table.counted = True
            tmp = path + ".tmp"
            table.save(tmp)
            os.replace(tmp, path)
    except (OSError, ValueError) as exc:
        sys.stderr.write("cannot write %s: %s\n" % (path, exc))
        return EXIT_IO
    out.write("wrote %s (%d blocks)\n" % (path, len(table.blocks)))
    return EXIT_OK


def cmd_verify(args, out):
    """Every index with g <= g_max and n <= n_max, formula against oracle.
    At n <= 2 ``tau`` delegates to the oracle, so those indices compare the
    oracle with itself; the per-n lines say which route each n took."""
    table = load_table(args)
    counts = {}
    bad = []
    for n in range(1, args.n_max + 1):
        if n >= 3:
            table.ensure_upto(min(args.g_max, r_max(n)), n)
        counts[n] = 0
        for g in range(0, args.g_max + 1):
            if 2 * g - 2 + n <= 0:
                continue
            for lam in partition_class(degree_rn(g, n), n):
                d = lam + (0,) * (n - len(lam))
                lhs = intersect.tau(g, d, table)
                rhs = oracle.virasoro_tau(g, d)
                counts[n] += 1
                if lhs != rhs:
                    bad.append((g, d, lhs, rhs))
    for g, d, a, b in bad:
        out.write(
            "MISMATCH g=%d d=%s formula=%s oracle=%s\n"
            % (g, ",".join(map(str, d)), a, b)
        )
    for n, count in counts.items():
        route = "formula against oracle" if n >= 3 else "oracle only"
        out.write("n=%d: %d indices, %s\n" % (n, count, route))
    out.write("verified %d indices, %d mismatches\n" % (sum(counts.values()), len(bad)))
    return EXIT_MISMATCH if bad else EXIT_OK


class BoundViolation(AssertionError):
    """A table component breaks the elementary-basis length bound."""


def elo_rows(n, r_top, table):
    """(r, appearing, allowed) rows: non-vanishing elementary coefficients of
    each homogeneous component against the exact-length count of candidates."""
    rows = []
    for r in range(r_top + 1):
        table.ensure(r, n)
        poly = table.p_rn(r, n).change_basis(sympoly.ELEMENTARY)
        seen = set()
        for lam in poly.terms:
            nu = tuple(x for x in lam if x >= 2)
            if len(nu) > r:
                raise BoundViolation(
                    "length bound violated in component r=%d of n=%d: %r" % (r, n, lam)
                )
            seen.add(nu)
        rows.append((r, len(seen), _count_exact_length(n, r)))
    return rows


def _count_exact_length(n, r):
    """The partitions of exactly r parts in [2, n] and weight at most
    3r - 3 + n, counted by a recursion over (parts left, weight left,
    largest part) instead of enumerated."""

    @functools.cache
    def count(k, w, top):
        if k == 0:
            return 1 if w >= 0 else 0
        return sum(count(k - 1, w - p, p) for p in range(2, min(top, w) + 1))

    return count(r, degree_rn(r, n), n)


def cmd_elo(args, out):
    r_top = args.r_max if args.r_max is not None else r_max(args.n)
    if not 0 <= r_top <= r_max(args.n):
        raise ValueError("component bound %d out of range for n=%d" % (r_top, args.n))
    table = load_table(args)
    try:
        rows = elo_rows(args.n, r_top, table)
    except BoundViolation as exc:
        out.write("MISMATCH %s\n" % (exc,))
        return EXIT_MISMATCH
    if args.format == "human":
        out.write("r\tappearing\tallowed\n")
    for r, app, allowed in rows:
        out.write("%d\t%d\t%d\n" % (r, app, allowed))
    return EXIT_OK


def cmd_bench(args, out):
    """Wall-clock scaling of the closed formula (warm coefficient tables)
    against the recursion, medians of three runs each; with --json one
    object {n, g_max, setup_seconds, rows: [{g, t_formula, t_oracle}]}."""
    n = args.n
    table = load_table(args)
    t0 = time.perf_counter()
    table.ensure_upto(min(args.g_max, r_max(n)), n)
    setup = time.perf_counter() - t0
    rows = []
    for g in range(1, args.g_max + 1):
        d = (degree_rn(g, n),) + (0,) * (n - 1)
        times_f = []
        times_o = []
        for _ in range(3):
            t0 = time.perf_counter()
            vf = intersect.tau(g, d, table)
            times_f.append(time.perf_counter() - t0)
            oracle.clear_memo()
            t0 = time.perf_counter()
            vo = oracle.virasoro_tau(g, d)
            times_o.append(time.perf_counter() - t0)
            if vf != vo:
                out.write("MISMATCH g=%d formula=%s oracle=%s\n" % (g, vf, vo))
                return EXIT_MISMATCH
        rows.append({"g": g, "t_formula": sorted(times_f)[1], "t_oracle": sorted(times_o)[1]})
    if args.json:
        import json  # only here, so that importing the CLI stays cheap

        report = {"n": n, "g_max": args.g_max, "setup_seconds": setup, "rows": rows}
        out.write(json.dumps(report) + "\n")
        return EXIT_OK
    out.write("# bench n=%d g_max=%d setup_seconds=%.6f\n" % (n, args.g_max, setup))
    out.write("g\tt_formula\tt_oracle\n")
    for row in rows:
        out.write("%d\t%.6f\t%.6f\n" % (row["g"], row["t_formula"], row["t_oracle"]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="wk",
        description="Exact Witten-Kontsevich intersection numbers and their generating polynomials.",
    )
    top.add_argument("--cache-dir", default=default_cache_dir(), help="coefficient cache directory (env WK_CACHE_DIR)")
    top.add_argument("--format", choices=("human", "tsv"), default="human")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau", help="one intersection number")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--powers", required=True, help="comma-separated tau indices, e.g. 0,0,3")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("agn", help="generating polynomial A_{g,n}")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--basis", choices=sorted(BASIS_NAMES), default="monomial")
    p.set_defaults(func=cmd_agn)

    p = sub.add_parser("pn", help="homogeneous component P_{r,n}")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--basis", choices=sorted(BASIS_NAMES), default="schur")
    p.set_defaults(func=cmd_pn)

    p = sub.add_parser("dtable", help="write/refresh the coefficient-table cache")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--r-max", type=int, default=None)
    p.set_defaults(func=cmd_dtable)

    p = sub.add_parser("verify", help="closed formula against the recursion oracle")
    p.add_argument("--g-max", type=int, default=2)
    p.add_argument("--n-max", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("elo", help="appearing vs allowed elementary-basis support")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--r-max", type=int, default=None)
    p.set_defaults(func=cmd_elo)

    p = sub.add_parser("bench", help="formula vs oracle timing table")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--g-max", type=int, default=6)
    p.add_argument("--json", action="store_true", help="print one JSON object instead of the table")
    p.set_defaults(func=cmd_bench)

    return top


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return EXIT_DOMAIN
    except OSError as exc:
        sys.stderr.write("i/o error: %s\n" % (exc,))
        return EXIT_IO
    except (RecursionError, MemoryError) as exc:
        sys.stderr.write("error: internal limit reached: %s\n" % (type(exc).__name__,))
        return EXIT_INTERNAL
    except Exception as exc:
        sys.stderr.write("error: internal failure: %s: %s\n" % (type(exc).__name__, exc))
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
